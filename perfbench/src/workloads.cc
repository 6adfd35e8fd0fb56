#include "workloads.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <set>
#include <sstream>

#include "fault/ras_campaign.hh"
#include "kernel/kernel.hh"
#include "net/service_plane.hh"
#include "platform/system.hh"
#include "sim/digest.hh"
#include "sim/parallel.hh"
#include "sim/rng.hh"
#include "workload/service_mix.hh"
#include "workload/spec.hh"

using namespace lightpc;

namespace perfbench
{

namespace
{

/** Seeds per (intensity, mode) cell: 105 trials, enough for a p90. */
constexpr std::size_t fleetSeedsPerCell = 7;

/**
 * Simulated run length and power cuts of each kv_service mode. With
 * 18 cuts the worst SnG outage is a steady statistic across seeds.
 */
constexpr Tick kvRunFor = 3 * tickSec;
constexpr std::uint32_t kvCuts = 18;

/** Instruction-count divisor for the Table II runs. */
constexpr std::uint64_t machineScaleDivisor = 12000;

/** The ATX hold-up SnG's Stop must fit in (Section V). */
constexpr Tick atxHoldup = 16 * tickMs;

void
note(Outcome &out, const std::string &text)
{
    if (out.notes.size() < 16)
        out.notes.push_back(text);
}

// --- fleet_nemesis --------------------------------------------------

Runner
prepareFleet(std::uint64_t seed)
{
    const fault::PartitionCampaignConfig cfg = fleetConfig(seed);
    const std::uint64_t trials = fault::partitionCampaignTrials(cfg);
    for (std::uint64_t i = 0; i < trials; ++i)
        cluster::validateClusterConfig(
            fault::partitionTrialConfig(cfg, i));

    return [cfg](Tracer *tracer, std::uint32_t track) {
        fault::PartitionCampaignResult r;
        {
            Scope span(tracer, "fault::runPartitionCampaign", track);
            r = fault::runPartitionCampaign(cfg);
        }
        Outcome out;
        out.trials = r.trials;
        out.digest = r.digest;
        // r.violations counts notes; the counters below count events.
        const bool broken = r.lostAckedPuts || r.splitBrainEpochs
            || r.divergentCommits || r.lostUpdates || r.orderInversions
            || r.phantomReads || r.valueDivergences;
        out.failedTrials = failedFromNotes(
            r.violationNotes, std::max<std::uint64_t>(r.violations, broken),
            r.trials);
        for (const std::string &n : r.violationNotes)
            note(out, n);

        double avail = 0.0;
        std::uint64_t cells = 0;
        for (const fault::PartitionCellStats &c : r.cells) {
            if (c.mode != net::PersistMode::SnG)
                continue;
            avail += c.writeAvailMean;
            ++cells;
        }
        out.sims["sim_sng_write_avail"] = cells ? avail / double(cells) : 0;
        return out;
    };
}

// --- kv_service -----------------------------------------------------

std::vector<net::ServiceConfig>
kvServiceConfigs(std::uint64_t seed)
{
    std::vector<net::ServiceConfig> configs;
    for (const net::PersistMode mode :
         {net::PersistMode::SnG, net::PersistMode::OpLog,
          net::PersistMode::SysPc, net::PersistMode::SCheckPc,
          net::PersistMode::ACheckPc}) {
        net::ServiceConfig c;
        c.mode = mode;
        c.seed = seed;
        c.runFor = kvRunFor;
        c.cuts = kvCuts;
        c.fleet.mix = workload::ServiceMix::updateHeavy();
        configs.push_back(c);
    }
    return configs;
}

Runner
prepareKv(std::uint64_t seed)
{
    const std::vector<net::ServiceConfig> configs = kvServiceConfigs(seed);
    for (const net::ServiceConfig &c : configs)
        net::validateServiceConfig(c);

    return [configs](Tracer *tracer, std::uint32_t track) {
        // The work of net::runServiceSuite(configs, 1), one runService
        // call per mode, so that traced runs can time each call.
        std::vector<net::ServiceResult> results;
        for (const net::ServiceConfig &c : configs) {
            Scope span(tracer,
                       std::string("net::runService.")
                           + net::persistModeName(c.mode),
                       track);
            results.push_back(net::runService(c));
        }

        Outcome out;
        sim::Fnv64 fnv;
        for (const net::ServiceResult &r : results) {
            ++out.trials;
            fnv.mix(r.digest);
            if (r.lostAckedPuts || r.duplicateApplied
                || !r.violations.empty()) {
                ++out.failedTrials;
                std::ostringstream os;
                os << r.modeName << ": lost acked " << r.lostAckedPuts
                   << ", duplicate applied " << r.duplicateApplied;
                for (const std::string &v : r.violations)
                    os << "; " << v;
                note(out, os.str());
            }
            out.layers["net.attempts"] += double(r.attempts);
            if (r.mode == net::PersistMode::SnG)
                out.sims["sim_sng_outage_ms"] =
                    ticksToMs(r.worstAttributable);
        }
        out.digest = fnv.h;
        return out;
    };
}

// --- machine_sng ----------------------------------------------------

struct MachineTrial
{
    const workload::WorkloadSpec *spec;
    platform::SystemConfig config;
};

Runner
prepareMachine(std::uint64_t seed)
{
    std::vector<MachineTrial> trials;
    for (const workload::WorkloadSpec &spec : workload::tableTwo()) {
        for (const platform::PlatformKind kind :
             {platform::PlatformKind::LightPC,
              platform::PlatformKind::LegacyPC}) {
            MachineTrial t{&spec, {}};
            t.config.kind = kind;
            t.config.scaleDivisor = machineScaleDivisor;
            t.config.seed = seed;
            trials.push_back(t);
        }
    }

    return [trials, seed](Tracer *tracer, std::uint32_t track) {
        Outcome out;
        sim::Fnv64 fnv;
        double log_slowdown = 0.0;
        Tick light_elapsed = 0;
        Tick worst_stop = 0;
        for (std::size_t i = 0; i < trials.size(); ++i) {
            const MachineTrial &t = trials[i];
            const bool light = t.config.kind
                == platform::PlatformKind::LightPC;
            const std::string plat = platform::platformName(t.config.kind);
            const auto trial = static_cast<std::int64_t>(i);
            Scope trial_span(tracer, "trial", track, trial);

            std::optional<platform::System> sys;
            {
                Scope span(tracer, "platform::System::System", track,
                           trial);
                sys.emplace(t.config);
            }
            platform::RunResult run;
            {
                Scope span(tracer, "platform::System::run." + plat, track,
                           trial);
                run = sys->run(*t.spec);
            }

            kernel::Kernel &kern = sys->kernel();
            Rng rng(seed ^ (0x9e3779b97f4a7c15ULL * (i + 1)));
            kern.scramble(rng);
            const kernel::SystemSnapshot before = kern.snapshot();
            const Tick event = sys->eventQueue().now();
            pecos::StopReport stop;
            {
                Scope span(tracer, "pecos::Sng::stop", track, trial);
                stop = sys->sng().stop(event);
            }
            for (std::size_t p = 0; p < kern.processCount(); ++p)
                kern.process(p).regs().randomize(rng);
            pecos::GoReport go;
            {
                Scope span(tracer, "pecos::Sng::resume", track, trial);
                go = sys->sng().resume(stop.offlineDone + 100 * tickMs);
            }
            const kernel::SystemSnapshot after = kern.snapshot();

            bool regs_ok = before.entries.size() == after.entries.size();
            for (std::size_t e = 0; regs_ok && e < before.entries.size();
                 ++e)
                regs_ok = before.entries[e].pid == after.entries[e].pid
                    && before.entries[e].regs == after.entries[e].regs;
            const bool in_holdup = !light || stop.totalTicks() <= atxHoldup;
            if (!regs_ok || stop.commitFailed || go.coldBoot
                || !in_holdup) {
                ++out.failedTrials;
                note(out, t.spec->name + " on " + plat
                         + (regs_ok ? "" : ": registers not restored")
                         + (stop.commitFailed ? ": commit failed" : "")
                         + (go.coldBoot ? ": cold boot" : "")
                         + (in_holdup ? "" : ": Stop beyond hold-up"));
            }
            ++out.trials;

            const psm::PsmStats &ps = run.psmStats;
            for (const std::uint64_t v :
                 {std::uint64_t(run.elapsed), run.instructions,
                  ps.reads, ps.writes, ps.rowBufferReadHits,
                  ps.rowBufferWriteHits, ps.blockedReads,
                  std::uint64_t(ps.readStallTicks), ps.wearMoves,
                  ps.flushes, std::uint64_t(stop.totalTicks()),
                  stop.dirtyLinesFlushed, std::uint64_t(go.totalTicks())})
                fnv.mix(v);

            if (light) {
                light_elapsed = run.elapsed;
                worst_stop = std::max(worst_stop, stop.totalTicks());
            } else {
                log_slowdown += std::log(double(light_elapsed)
                                         / double(run.elapsed));
            }

            out.layers["cpu.instructions"] += double(run.instructions);
            out.layers["cache.load_hit_rate"] += run.loadHitRate;
            out.layers["psm.accesses"] += double(ps.reads + ps.writes);
            out.layers["psm.row_hits"] +=
                double(ps.rowBufferReadHits + ps.rowBufferWriteHits);
            out.layers["psm.blocked_reads"] += double(ps.blockedReads);
            out.layers["pecos.dirty_lines_flushed"] +=
                double(stop.dirtyLinesFlushed);
        }
        out.digest = fnv.h;
        out.sims["sim_lightpc_slowdown"] =
            std::exp(log_slowdown / double(trials.size() / 2));
        out.sims["sim_stop_ms_max"] = ticksToMs(worst_stop);
        out.layers["cache.load_hit_rate"] /= double(trials.size());
        return out;
    };
}

// --- ras_media ------------------------------------------------------

Runner
prepareRas(std::uint64_t seed)
{
    fault::RasCampaignConfig cfg;
    cfg.seed = seed;
    cfg.threads = 1;

    return [cfg](Tracer *tracer, std::uint32_t track) {
        fault::RasCampaignResult r;
        {
            Scope span(tracer, "fault::runRasCampaign", track);
            r = fault::runRasCampaign(cfg);
        }
        Outcome out;
        out.trials = r.trials;
        out.digest = r.digest;
        out.failedTrials = failedFromNotes(
            r.violationNotes, r.violations + r.sdcEvents, r.trials);
        for (const std::string &n : r.violationNotes)
            note(out, n);
        out.layers["psm.checked_reads"] = double(r.checkedReads);
        out.layers["psm.corrected_reads"] = double(r.correctedReads);
        out.layers["psm.symbol_corrections"] =
            double(r.symbolCorrections);
        out.layers["psm.retired_lines"] = double(r.linesRetired);
        out.layers["psm.scrubbed_lines"] = double(r.scrubbedLines);
        return out;
    };
}

} // namespace

fault::PartitionCampaignConfig
fleetConfig(std::uint64_t seed)
{
    fault::PartitionCampaignConfig cfg;
    cfg.seed = seed;
    cfg.seedsPerCell = fleetSeedsPerCell;
    cfg.threads = sim::hardwareThreads();
    return cfg;
}

std::uint64_t
failedFromNotes(const std::vector<std::string> &notes,
                std::uint64_t violations, std::uint64_t trials)
{
    // Notes tagged "trial N ..." name their trial; every violation
    // without such a note is charged to a trial of its own, so the
    // count is exact when all notes are kept and an upper bound when
    // the campaign truncated them.
    std::set<std::uint64_t> named;
    std::uint64_t tagged = 0;
    for (const std::string &n : notes) {
        unsigned long long id = 0;
        if (std::sscanf(n.c_str(), "trial %llu", &id) == 1) {
            named.insert(id);
            ++tagged;
        }
    }
    const std::uint64_t untagged =
        violations > tagged ? violations - tagged : 0;
    return std::min<std::uint64_t>(trials, named.size() + untagged);
}

const std::vector<WorkloadDef> &
workloads()
{
    static const std::vector<WorkloadDef> defs = {
        {"fleet_nemesis", &prepareFleet},
        {"kv_service", &prepareKv},
        {"machine_sng", &prepareMachine},
        {"ras_media", &prepareRas},
    };
    return defs;
}

const WorkloadDef *
findWorkload(const std::string &name)
{
    for (const WorkloadDef &w : workloads())
        if (w.name == name)
            return &w;
    return nullptr;
}

} // namespace perfbench
