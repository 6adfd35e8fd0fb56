/**
 * @file
 * perfbench: host throughput of the LightPC simulator on four
 * workloads, with every simulated result checked.
 *
 *   perfbench --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]
 *             [--pins FILE] [--trace-out FILE] [--setup-only]
 *             [--print-pins]
 *
 * Untraced (--trace 0): prepares the workload, then runs it again and
 * again for S wall seconds and reports the median trials per CPU
 * second of this process (wall-clock throughput is printed too); every
 * repetition must reproduce the first one's digest. Afterwards
 * the other three workloads run once, untimed, at the pinned default
 * seed, so that every run reports all four simulated results and
 * checks them against their pins. Traced (--trace 1): runs the traced
 * suite (layers.hh), with the same seeds, and reports per-layer
 * metrics.
 *
 * The last stdout line is one JSON object:
 *   {"correct": B, "attempted": N, "failed": N, "metrics": {...}}
 *
 * Trials that fail an invariant are counted in "failed" and named on
 * stderr. Exit codes: 0 success; 1 a determinism check failed; 2 bad
 * arguments; 3 a pinned digest or simulated result differs.
 */

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "layers.hh"
#include "pins.hh"
#include "stats.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

constexpr int exitFailed = 1;  ///< nondeterministic output
constexpr int exitUsage = 2;
constexpr int exitPinMismatch = 3;

/** At least this many timed repetitions, however long they take. */
constexpr int minRepetitions = 3;

struct Options
{
    std::string workload;
    std::uint64_t seed = defaultSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string pins;
    std::string traceOut;
    bool setupOnly = false;
    bool printPins = false;

    /**
     * The seed @p name runs at: --seed for the named workload (for
     * every workload under "all"), the pinned default seed for the
     * others, which a run executes only to check them against pins.
     */
    std::uint64_t
    seedFor(const std::string &name) const
    {
        return workload == "all" || workload == name ? seed : defaultSeed;
    }
};

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload NAME|all [--seed N] [--seconds S]"
                 " [--trace 0|1] [--pins FILE] [--trace-out FILE]"
                 " [--setup-only] [--print-pins]\n",
                 argv0);
    return exitUsage;
}

bool
parse(int argc, char **argv, Options &o)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--setup-only")
            o.setupOnly = true;
        else if (arg == "--print-pins")
            o.printPins = true;
        else if (!has_value)
            return false;
        else if (arg == "--workload")
            o.workload = argv[++i];
        else if (arg == "--seed")
            o.seed = std::strtoull(argv[++i], nullptr, 10);
        else if (arg == "--seconds")
            o.seconds = std::strtod(argv[++i], nullptr);
        else if (arg == "--trace")
            o.trace = std::string(argv[++i]) == "1";
        else if (arg == "--pins")
            o.pins = argv[++i];
        else if (arg == "--trace-out")
            o.traceOut = argv[++i];
        else
            return false;
    }
    return o.printPins || o.workload == "all"
        || findWorkload(o.workload) != nullptr;
}

/**
 * CPU nanoseconds this process has used, over all its threads (ended
 * ones too). Unlike wall time it leaves out time spent waiting for a
 * CPU, and in a guest whose kernel accounts steal time, time the
 * hypervisor gave the CPU to another guest.
 */
std::int64_t
cpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return std::int64_t(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/**
 * Everything checked about one run. Failed invariants are counted in
 * the tally and reported; output that is not what it must be (not
 * deterministic, or not the pinned value) fails the run.
 */
struct Verdict
{
    bool nondeterministic = false;
    bool pinMismatch = false;
    Tally tally;
    std::vector<std::string> problems;

    bool correct() const { return !nondeterministic && !pinMismatch; }

    void
    fail(const std::string &why)
    {
        nondeterministic = true;
        problems.push_back(why);
    }
};

/** Report the invariant failures of @p o (if any). */
void
checkInvariants(const std::string &name, const Outcome &o, Verdict &v)
{
    if (o.failedTrials == 0 && o.notes.empty())
        return;
    v.problems.push_back(name + ": " + std::to_string(o.failedTrials)
                         + " of " + std::to_string(o.trials)
                         + " trials failed an invariant");
    for (const std::string &n : o.notes)
        v.problems.push_back("  " + n);
}

void
checkPins(const Pins &pins, std::uint64_t seed, const std::string &name,
          const Outcome &o, Verdict &v)
{
    for (const std::string &why : pins.compare(seed, name, o)) {
        v.pinMismatch = true;
        v.problems.push_back(why);
    }
}

struct Timed
{
    Outcome first;
    Tally tally;
    /** Trials per wall second and per CPU second, one per repetition. */
    std::vector<double> trialsPerS;
    std::vector<double> trialsPerCpuS;
};

/** Run a prepared workload for @p seconds; check repeats agree. */
Timed
timeWorkload(const std::string &name, const Runner &run, double seconds,
             Verdict &v)
{
    Timed t;
    const std::int64_t budget = static_cast<std::int64_t>(seconds * 1e9);
    const std::int64_t start = nowNs();
    for (int rep = 0;
         rep < minRepetitions || nowNs() - start < budget; ++rep) {
        const std::int64_t t0 = nowNs();
        const std::int64_t c0 = cpuNs();
        Outcome o = run(nullptr, 0);
        const double dt = static_cast<double>(nowNs() - t0) / 1e9;
        const double dc = static_cast<double>(cpuNs() - c0) / 1e9;
        t.trialsPerS.push_back(static_cast<double>(o.trials) / dt);
        t.trialsPerCpuS.push_back(static_cast<double>(o.trials) / dc);
        t.tally.add(o.trials, o.failedTrials);
        v.tally.add(o.trials, o.failedTrials);
        if (rep == 0) {
            checkInvariants(name, o, v);
            t.first = std::move(o);
        } else if (o.digest != t.first.digest || o.sims != t.first.sims) {
            v.fail(name + ": repetition " + std::to_string(rep)
                   + " is not bit-identical to the first");
        }
    }
    return t;
}

/** "q1 / median / q3" of @p v. */
std::string
quartiles(const std::vector<double> &v)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%.4g / %.4g / %.4g",
                  percentile(v, 25), median(v), percentile(v, 75));
    return buf;
}

void
printJson(const Verdict &v, const Metrics &m)
{
    std::ostringstream os;
    os.precision(17);
    os << "{\"correct\": "
       << (v.correct() ? "true" : "false")
       << ", \"attempted\": " << v.tally.attempted
       << ", \"failed\": " << v.tally.failed << ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, metric] : m) {
        os << (first ? "" : ", ") << '"' << name << "\": {\"value\": "
           << metric.value << ", \"unit\": \"" << metric.unit << "\"}";
        first = false;
    }
    os << "}}";
    std::cout << os.str() << std::endl;
}

void
report(const Metrics &m)
{
    for (const auto &[name, metric] : m) {
        char line[160];
        std::snprintf(line, sizeof(line), "  %-40s %16.6g %s\n",
                      name.c_str(), metric.value, metric.unit.c_str());
        std::cout << line;
    }
}

int
finish(const Verdict &v, const Metrics &m)
{
    for (const std::string &p : v.problems)
        std::cerr << p << "\n";
    printJson(v, m);
    if (v.pinMismatch)
        return exitPinMismatch;
    return v.nondeterministic ? exitFailed : 0;
}

/** --trace 1: the traced suite. */
int
runTracedMode(const Options &o, const Pins &pins)
{
    Tracer tracer;
    Metrics m;
    std::map<std::string, Outcome> outcomes;
    std::map<std::string, std::uint64_t> seeds;
    for (const WorkloadDef &w : workloads())
        seeds[w.name] = o.seedFor(w.name);
    runTraced(seeds, tracer, m, outcomes);

    Verdict v;
    for (const auto &[name, out] : outcomes) {
        v.tally.add(out.trials, out.failedTrials);
        checkInvariants(name, out, v);
        if (findWorkload(name))
            checkPins(pins, o.seedFor(name), name, out, v);
    }
    if (outcomes["fleet_nemesis.replay"].sims
        != outcomes["fleet_nemesis"].sims)
        v.fail("fleet_nemesis: 1-thread replay and the parallel campaign"
               " disagree on sim_sng_write_avail");

    if (!o.traceOut.empty()) {
        std::ofstream f(o.traceOut);
        tracer.writeChrome(f);
        if (!f)
            v.fail("cannot write trace " + o.traceOut);
        std::cout << "trace: " << o.traceOut << " ("
                  << tracer.spans().size() << " spans)\n";
    }
    std::cout << "span self time (duration minus child spans):\n";
    std::map<std::string, std::size_t> calls;
    for (const Span &span : tracer.spans())
        ++calls[span.name];
    for (const auto &[name, n] : calls) {
        char line[200];
        std::snprintf(line, sizeof(line), "  %-44s %6zu calls %10.1f ms"
                      " total %10.1f ms self\n", name.c_str(), n,
                      tracer.totalNs(name) / 1e6,
                      tracer.totalSelfNs(name) / 1e6);
        std::cout << line;
    }
    std::cout << "per-layer metrics (seed " << o.seed << " for "
              << o.workload << ", " << defaultSeed << " for the rest):\n";
    report(m);
    std::cout << "not measured from outside: event-kernel, Psm::route and"
                 " BackingStore self time (needs spans inside src/)\n";
    return finish(v, m);
}

/** --print-pins: one pass of every workload, as pin lines. */
int
printPinsMode(const Options &o)
{
    Verdict v;
    for (const WorkloadDef &w : workloads()) {
        const Outcome out = w.prepare(o.seed)(nullptr, 0);
        checkInvariants(w.name, out, v);
        std::cout << formatPins(o.seed, w.name, out);
    }
    // Pins are only worth keeping for a seed where every trial passes.
    for (const std::string &p : v.problems)
        std::cerr << p << "\n";
    return v.problems.empty() ? 0 : exitFailed;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    if (!parse(argc, argv, o) || o.seconds <= 0.0)
        return usage(argv[0]);

    if (o.printPins)
        return printPinsMode(o);

    Pins pins;
    if (!o.pins.empty()) {
        std::string error;
        if (!pins.load(o.pins, error)) {
            std::cerr << error << "\n";
            return exitUsage;
        }
    }
    if (o.trace)
        return runTracedMode(o, pins);

    std::vector<const WorkloadDef *> timed;
    if (o.workload == "all")
        for (const WorkloadDef &w : workloads())
            timed.push_back(&w);
    else
        timed.push_back(findWorkload(o.workload));

    Verdict v;
    Metrics m;
    std::map<std::string, Outcome> outcomes;
    for (const WorkloadDef *w : timed) {
        // Set-up is CPU time; a single workload's counts from the
        // process start, so exec and static initialisation are in it.
        const std::int64_t c0 = timed.size() == 1 ? 0 : cpuNs();
        const Runner run = w->prepare(o.seed);
        const double setup_s = static_cast<double>(cpuNs() - c0) / 1e9;
        if (o.setupOnly) {
            std::printf("{\"setup_s\": %.9f}\n", setup_s);
            return 0;
        }
        Timed t = timeWorkload(w->name, run, o.seconds, v);
        const std::string prefix = timed.size() == 1 ? "" : w->name + ".";
        m[prefix + "trials_per_cpu_s"] = {median(t.trialsPerCpuS),
                                          "1/cpu_s"};
        m[prefix + "setup_s"] = {setup_s, "s"};
        m[prefix + "peak_rss_mb"] = {peakRssMb(), "MB"};
        std::cout << w->name << ": " << t.trialsPerS.size()
                  << " repetitions of " << t.first.trials << " trials\n"
                  << "  trials per CPU second q1/median/q3 "
                  << quartiles(t.trialsPerCpuS) << "\n"
                  << "  trials per wall second q1/median/q3 "
                  << quartiles(t.trialsPerS) << "\n"
                  << "  set-up " << setup_s << " CPU s (this process)\n"
                  << "  error_rate " << t.tally.errorRate() << " ("
                  << t.tally.failed << " of " << t.tally.attempted
                  << " trials)\n";
        outcomes[w->name] = std::move(t.first);
    }

    // Every run reports and checks all four simulated results: the
    // workloads not timed here run once, untimed, at the pinned seed.
    for (const WorkloadDef &w : workloads()) {
        if (!outcomes.count(w.name)) {
            outcomes[w.name] = w.prepare(o.seedFor(w.name))(nullptr, 0);
            v.tally.add(outcomes[w.name].trials,
                        outcomes[w.name].failedTrials);
            checkInvariants(w.name, outcomes[w.name], v);
        }
        checkPins(pins, o.seedFor(w.name), w.name, outcomes[w.name], v);
        for (const auto &[name, value] : outcomes[w.name].sims)
            m[name] = {value, name == "sim_sng_write_avail"
                           ? "ratio"
                           : name == "sim_lightpc_slowdown" ? "x"
                                                            : "sim_ms"};
    }

    std::cout << "end-to-end metrics (seed " << o.seed << " for "
              << o.workload << ", " << defaultSeed << " for the rest):\n";
    report(m);
    return finish(v, m);
}
