/**
 * @file
 * lightpc_cli — command-line driver for the simulator.
 *
 * Usage:
 *   lightpc_cli [options]
 *     --list                      list Table II workloads and exit
 *     --workload <name>           workload to run (default Redis)
 *     --trace <file>              replay an instruction trace
 *                                 instead of a synthetic workload
 *     --platform <name>           LegacyPC | LightPC-B | LightPC
 *     --scale <N>                 downscale divisor (default 18000)
 *     --freq <MHz>                core frequency (default 1600)
 *     --cores <N>                 core count (default 8)
 *     --powerfail                 inject a power failure at the end
 *                                 and run Stop-and-Go
 *     --record <file>             dump the workload's instruction
 *                                 trace to a file and exit
 *
 *   --scale, --freq and --cores take a whole positive decimal;
 *   anything else prints the usage line and exits 2.
 *
 * Examples:
 *   lightpc_cli --workload mcf --platform LightPC-B
 *   lightpc_cli --workload AMG --powerfail
 *   lightpc_cli --workload gcc --record gcc.trace
 *   lightpc_cli --trace gcc.trace --platform LightPC
 */

#include <cstring>
#include <iostream>
#include <limits>
#include <string>

#include "../bench/campaign_io.hh"
#include "platform/system.hh"
#include "power/psu.hh"
#include "stats/table.hh"
#include "workload/spec.hh"
#include "workload/synthetic.hh"
#include "workload/trace.hh"

using namespace lightpc;
using namespace lightpc::platform;

namespace
{

struct Options
{
    std::string workload = "Redis";
    std::string trace;
    std::string record;
    PlatformKind kind = PlatformKind::LightPC;
    std::uint64_t scale = 18000;
    std::uint64_t freqMhz = 1600;
    std::uint32_t cores = 8;
    bool powerfail = false;
    bool list = false;
};

int
usage(const char *argv0)
{
    std::cerr << "usage: " << argv0
              << " [--list] [--workload <name>] [--trace <file>]"
                 " [--platform LegacyPC|LightPC-B|LightPC]"
                 " [--scale N] [--freq MHz] [--cores N]"
                 " [--powerfail] [--record <file>]\n";
    return 2;
}

bool
parsePlatform(const std::string &name, PlatformKind &kind)
{
    if (name == "LegacyPC")
        kind = PlatformKind::LegacyPC;
    else if (name == "LightPC-B" || name == "LightPCB")
        kind = PlatformKind::LightPCB;
    else if (name == "LightPC")
        kind = PlatformKind::LightPC;
    else
        return false;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::cerr << arg << " needs a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        // A whole positive decimal no larger than @p max, else usage.
        auto count = [&](std::uint64_t max) {
            std::uint64_t v = 0;
            if (!bench::parseUnsigned(value(), max, v) || v == 0)
                std::exit(usage(argv[0]));
            return v;
        };
        if (arg == "--list")
            opt.list = true;
        else if (arg == "--workload")
            opt.workload = value();
        else if (arg == "--trace")
            opt.trace = value();
        else if (arg == "--record")
            opt.record = value();
        else if (arg == "--platform") {
            if (!parsePlatform(value(), opt.kind))
                return usage(argv[0]);
        } else if (arg == "--scale")
            opt.scale = count(std::numeric_limits<std::uint64_t>::max());
        else if (arg == "--freq")
            opt.freqMhz =
                count(std::numeric_limits<std::uint64_t>::max());
        else if (arg == "--cores")
            opt.cores = static_cast<std::uint32_t>(
                count(std::numeric_limits<std::uint32_t>::max()));
        else if (arg == "--powerfail")
            opt.powerfail = true;
        else
            return usage(argv[0]);
    }

    if (opt.list) {
        stats::Table table({"workload", "category", "R/W", "D$ read",
                            "D$ write", "threads"});
        for (const auto &spec : workload::tableTwo()) {
            table.addRow({spec.name, categoryName(spec.category),
                          stats::Table::num(spec.rwRatio(), 1),
                          stats::Table::percent(spec.readHitRate, 1),
                          stats::Table::percent(spec.writeHitRate, 1),
                          spec.multithread ? "8" : "1"});
        }
        table.print(std::cout);
        return 0;
    }

    if (!opt.record.empty()) {
        workload::SyntheticConfig wconfig;
        wconfig.scaleDivisor = opt.scale;
        workload::SyntheticStream stream(
            workload::findWorkload(opt.workload), wconfig, 0,
            System::workloadBase);
        const auto n =
            workload::captureTraceFile(opt.record, stream);
        std::cout << "recorded " << n << " instructions of "
                  << opt.workload << " to " << opt.record << "\n";
        return 0;
    }

    SystemConfig config;
    config.kind = opt.kind;
    config.cores = opt.cores;
    config.freqMhz = opt.freqMhz;
    config.scaleDivisor = opt.scale;
    System system(config);

    RunResult result;
    std::unique_ptr<workload::TraceStream> trace;
    if (!opt.trace.empty()) {
        trace = workload::loadTraceFile(opt.trace);
        result = system.runStreams({trace.get()});
        result.workload = opt.trace;
    } else {
        result = system.run(workload::findWorkload(opt.workload));
    }

    stats::Table table({"metric", "value"});
    table.addRow({"workload", result.workload});
    table.addRow({"platform", result.platform});
    table.addRow({"simulated time",
                  stats::Table::num(ticksToMs(result.elapsed), 3)
                      + " ms"});
    table.addRow({"instructions",
                  std::to_string(result.instructions)});
    table.addRow({"aggregate IPC",
                  stats::Table::num(result.ipc, 2)});
    table.addRow({"D$ load hit rate",
                  stats::Table::percent(result.loadHitRate, 1)});
    table.addRow({"D$ store hit rate",
                  stats::Table::percent(result.storeHitRate, 1)});
    table.addRow({"memory reads",
                  std::to_string(result.psmStats.reads)});
    table.addRow({"memory writes",
                  std::to_string(result.psmStats.writes)});
    table.addRow({"mem read latency",
                  stats::Table::num(result.memReadLatencyNs, 1)
                      + " ns"});
    table.addRow({"reconstructed reads",
                  std::to_string(
                      result.psmStats.reconstructedReads)});
    table.addRow({"platform power",
                  stats::Table::num(result.watts, 2) + " W"});
    table.addRow({"energy",
                  stats::Table::num(result.joules * 1e3, 2)
                      + " mJ"});
    table.print(std::cout);

    if (opt.powerfail) {
        std::cout << "\ninjecting power failure...\n";
        const auto stop =
            system.sng().stop(system.eventQueue().now());
        const auto atx = power::PsuModel::atx();
        std::cout << "  Stop " << ticksToMs(stop.totalTicks())
                  << " ms ("
                  << ticksToMs(stop.processStopTicks()) << " process"
                  << " / " << ticksToMs(stop.deviceStopTicks())
                  << " device / " << ticksToMs(stop.offlineTicks())
                  << " offline) vs " << ticksToMs(
                         atx.spec().specHoldup)
                  << " ms budget: "
                  << (stop.totalTicks() <= atx.spec().specHoldup
                          ? "EP-cut committed"
                          : "MISSED")
                  << "\n";
        const auto go =
            system.sng().resume(stop.offlineDone + 50 * tickMs);
        std::cout << "  Go " << ticksToMs(go.totalTicks()) << " ms, "
                  << go.tasksScheduled << " tasks rescheduled, "
                  << go.devicesRevived << " devices revived\n";
    }
    return 0;
}
