/**
 * @file
 * Kernel sweep driver: runs the pooled EventQueue and the legacy
 * (heap + std::function) baseline through identical workloads and
 * emits BENCH_kernel.json with events/sec, ns/event, and
 * allocations/event for every configuration, plus the pooled/legacy
 * speedup per workload.
 *
 * Unlike the google-benchmark micro suite, this driver
 *  - counts heap allocations per event via a global operator
 *    new/delete override with thread-local counters (the pooled
 *    kernel must show zero in steady state),
 *  - interleaves legacy and pooled repetitions so background load
 *    perturbs both sides equally, and reports medians, and
 *  - fans repetitions out over a std::thread pool (-j N).
 *
 * Also emits a campaign_scaling section: the SnG power-cut campaign
 * run at 1/2/4 worker threads through sim::ParallelExecutor, with
 * trials/sec per point and a digest-equality check proving the
 * parallel reduction is bit-identical to the sequential one.
 *
 * Not registered with ctest; scripts/sweep.py and scripts/run_all.sh
 * invoke it.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "campaign_io.hh"
#include "fault/campaign.hh"
#include "sim/event_queue.hh"
#include "sim/legacy_event_queue.hh"
#include "sim/parallel.hh"

namespace
{

/**
 * Per-thread allocation counter, bumped by the global operator new
 * overrides below. Thread-local so pool workers measuring different
 * configurations never see each other's allocations.
 */
thread_local std::uint64_t t_newCalls = 0;

} // namespace

void *
operator new(std::size_t size)
{
    ++t_newCalls;
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    ++t_newCalls;
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace
{

using lightpc::EventQueue;
using lightpc::LegacyEventQueue;
using lightpc::Tick;

/** Keep a value alive without letting the optimizer drop the work. */
inline void
consume(std::uint64_t v)
{
    asm volatile("" : : "r"(v) : "memory");
}

enum class Workload
{
    Churn,          ///< empty callback: schedule + execute
    ChurnCapture32, ///< 32-byte capture: SBO vs one malloc per event
    ScheduleCancel, ///< schedule two, cancel one, execute one
};

const char *
workloadName(Workload w)
{
    switch (w) {
    case Workload::Churn: return "churn";
    case Workload::ChurnCapture32: return "churn_capture32";
    case Workload::ScheduleCancel: return "schedule_cancel";
    }
    return "?";
}

struct Sample
{
    double nsPerEvent = 0.0;
    double allocsPerEvent = 0.0;
};

template <typename Queue>
Sample
runWorkload(Workload w, std::uint64_t events)
{
    Queue eq;
    Tick t = eq.now();
    std::uint64_t sink[4] = {1, 2, 3, 4};

    auto iterate = [&](std::uint64_t n) {
        switch (w) {
        case Workload::Churn:
            for (std::uint64_t i = 0; i < n; ++i) {
                t += 10;
                eq.schedule(t, [] {});
                eq.step();
            }
            break;
        case Workload::ChurnCapture32:
            for (std::uint64_t i = 0; i < n; ++i) {
                t += 10;
                eq.schedule(t, [sink] { consume(sink[0]); });
                eq.step();
            }
            break;
        case Workload::ScheduleCancel:
            for (std::uint64_t i = 0; i < n; ++i) {
                t += 10;
                eq.schedule(t, [] {});
                const auto doomed = eq.schedule(t + 5, [] {});
                eq.deschedule(doomed);
                eq.step();
            }
            break;
        }
    };

    // Warm up: grow slabs/heap capacity outside the measured region
    // so the steady-state allocation count is what models see.
    iterate(std::min<std::uint64_t>(events, 65536));

    const std::uint64_t allocs0 = t_newCalls;
    const auto t0 = std::chrono::steady_clock::now();
    iterate(events);
    const auto t1 = std::chrono::steady_clock::now();
    const std::uint64_t allocs = t_newCalls - allocs0;

    const double ns = std::chrono::duration<double, std::nano>(
        t1 - t0).count();
    return Sample{ns / static_cast<double>(events),
                  static_cast<double>(allocs)
                      / static_cast<double>(events)};
}

struct Task
{
    Workload workload;
    bool legacy;
    std::uint64_t events;
    Sample result;
};

/** Run every task on @p threads workers pulling from a shared index. */
void
runTasks(std::vector<Task> &tasks, unsigned threads)
{
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= tasks.size())
                return;
            Task &task = tasks[i];
            task.result = task.legacy
                ? runWorkload<LegacyEventQueue>(task.workload,
                                                task.events)
                : runWorkload<EventQueue>(task.workload, task.events);
        }
    };
    if (threads <= 1) {
        worker();
        return;
    }
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        pool.emplace_back(worker);
    for (auto &th : pool)
        th.join();
}

double
median(std::vector<double> xs)
{
    std::sort(xs.begin(), xs.end());
    const std::size_t n = xs.size();
    return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

struct ConfigResult
{
    Workload workload;
    bool legacy;
    double nsPerEvent;
    double allocsPerEvent;
};

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [-j N] [--events N] [--reps N] "
                 "[--campaign-cuts N] [--out FILE]\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned threads = 1;
    std::uint64_t events = 2'000'000;
    unsigned reps = 5;
    std::uint64_t campaignCuts = 64;
    std::string out = "BENCH_kernel.json";

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::exit(usage(argv[0]));
            }
            return argv[++i];
        };
        // A whole decimal count no larger than @p max, else usage.
        auto count = [&](std::uint64_t max) {
            std::uint64_t v = 0;
            if (!bench::parseUnsigned(value(), max, v))
                std::exit(usage(argv[0]));
            return v;
        };
        if (arg == "-j")
            threads = lightpc::sim::parseThreadsArg(value());
        else if (arg == "--events")
            events = count(std::numeric_limits<std::uint64_t>::max());
        else if (arg == "--reps")
            reps = static_cast<unsigned>(
                count(std::numeric_limits<unsigned>::max()));
        else if (arg == "--campaign-cuts")
            campaignCuts =
                count(std::numeric_limits<std::uint64_t>::max());
        else if (arg == "--out")
            out = value();
        else
            return usage(argv[0]);
    }
    if (threads == 0)
        threads = std::max(1u, std::thread::hardware_concurrency());
    if (events == 0 || reps == 0)
        return usage(argv[0]);

    const Workload workloads[] = {Workload::Churn,
                                  Workload::ChurnCapture32,
                                  Workload::ScheduleCancel};

    // Interleave legacy/pooled within each repetition so transient
    // machine load lands on both kernels alike.
    std::vector<Task> tasks;
    for (unsigned rep = 0; rep < reps; ++rep)
        for (const Workload w : workloads)
            for (const bool legacy : {true, false})
                tasks.push_back(Task{w, legacy, events, {}});

    runTasks(tasks, threads);

    // --- campaign scaling: trials/sec vs worker threads -----------
    //
    // The honest perf claim for the parallel campaign engine: the
    // same seeded SnG cut campaign, at 1/2/4 pool workers, with the
    // digest required to be bit-identical at every point. trials/sec
    // only climbs when the host actually has cores to give
    // (host_threads records that), which is why the numbers are
    // measured, never assumed.
    struct ScalePoint
    {
        unsigned threads;
        double seconds;
        double trialsPerSec;
        std::uint64_t digest;
    };
    std::vector<ScalePoint> scaling;
    bool digestsEqual = true;
    if (campaignCuts > 0) {
        for (const unsigned th : {1u, 2u, 4u}) {
            lightpc::fault::CampaignConfig ccfg;
            ccfg.cuts = campaignCuts;
            ccfg.seed = 1;
            ccfg.threads = th;
            const auto c0 = std::chrono::steady_clock::now();
            const lightpc::fault::CampaignResult r =
                lightpc::fault::runSngCampaign(ccfg);
            const auto c1 = std::chrono::steady_clock::now();
            const double sec =
                std::chrono::duration<double>(c1 - c0).count();
            scaling.push_back(
                {th, sec,
                 static_cast<double>(campaignCuts) / sec, r.digest});
            if (r.digest != scaling.front().digest)
                digestsEqual = false;
        }
        if (!digestsEqual) {
            std::fprintf(stderr,
                         "FATAL: campaign digest diverged across"
                         " thread counts\n");
            return 1;
        }
    }

    std::vector<ConfigResult> configs;
    for (const Workload w : workloads) {
        for (const bool legacy : {true, false}) {
            std::vector<double> ns, allocs;
            for (const Task &task : tasks) {
                if (task.workload != w || task.legacy != legacy)
                    continue;
                ns.push_back(task.result.nsPerEvent);
                allocs.push_back(task.result.allocsPerEvent);
            }
            configs.push_back(
                ConfigResult{w, legacy, median(ns), median(allocs)});
        }
    }

    std::FILE *f = std::fopen(out.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot open %s\n", out.c_str());
        return 1;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"kernel_sweep\",\n");
    std::fprintf(f, "  \"events_per_run\": %llu,\n",
                 static_cast<unsigned long long>(events));
    std::fprintf(f, "  \"repetitions\": %u,\n", reps);
    std::fprintf(f, "  \"threads\": %u,\n", threads);
    std::fprintf(f, "  \"configs\": [\n");
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const ConfigResult &c = configs[i];
        std::fprintf(f,
                     "    {\"kernel\": \"%s\", \"workload\": \"%s\", "
                     "\"ns_per_event\": %.3f, "
                     "\"events_per_sec\": %.0f, "
                     "\"allocs_per_event\": %.4f}%s\n",
                     c.legacy ? "legacy" : "pooled",
                     workloadName(c.workload), c.nsPerEvent,
                     1e9 / c.nsPerEvent, c.allocsPerEvent,
                     i + 1 < configs.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    if (!scaling.empty()) {
        std::fprintf(f, "  \"campaign_scaling\": {\n");
        std::fprintf(f, "    \"campaign\": \"fault_sng\",\n");
        std::fprintf(f, "    \"trials\": %llu,\n",
                     static_cast<unsigned long long>(campaignCuts));
        std::fprintf(f, "    \"host_threads\": %u,\n",
                     lightpc::sim::hardwareThreads());
        std::fprintf(f, "    \"digest\": \"0x%016llx\",\n",
                     static_cast<unsigned long long>(
                         scaling.front().digest));
        std::fprintf(f, "    \"digests_equal\": %s,\n",
                     digestsEqual ? "true" : "false");
        std::fprintf(f, "    \"points\": [\n");
        for (std::size_t i = 0; i < scaling.size(); ++i) {
            const ScalePoint &sp = scaling[i];
            std::fprintf(f,
                         "      {\"threads\": %u,"
                         " \"seconds\": %.3f,"
                         " \"trials_per_sec\": %.1f,"
                         " \"speedup_vs_1\": %.2f}%s\n",
                         sp.threads, sp.seconds, sp.trialsPerSec,
                         sp.trialsPerSec
                             / scaling.front().trialsPerSec,
                         i + 1 < scaling.size() ? "," : "");
        }
        std::fprintf(f, "    ]\n  },\n");
    }
    std::fprintf(f, "  \"speedup\": {");
    bool first = true;
    for (const Workload w : workloads) {
        double legacyNs = 0.0, pooledNs = 0.0;
        for (const ConfigResult &c : configs) {
            if (c.workload != w)
                continue;
            (c.legacy ? legacyNs : pooledNs) = c.nsPerEvent;
        }
        std::fprintf(f, "%s\"%s\": %.2f", first ? "" : ", ",
                     workloadName(w), legacyNs / pooledNs);
        first = false;
    }
    std::fprintf(f, "}\n}\n");
    std::fclose(f);

    for (const ConfigResult &c : configs)
        std::printf("%-7s %-16s %8.2f ns/event %12.0f events/s "
                    "%8.4f allocs/event\n",
                    c.legacy ? "legacy" : "pooled",
                    workloadName(c.workload), c.nsPerEvent,
                    1e9 / c.nsPerEvent, c.allocsPerEvent);
    for (const ScalePoint &sp : scaling)
        std::printf("campaign fault_sng -j%-2u %8.1f trials/s "
                    "(%.2fx vs -j1, digest ok)\n",
                    sp.threads, sp.trialsPerSec,
                    sp.trialsPerSec / scaling.front().trialsPerSec);
    std::printf("wrote %s\n", out.c_str());
    return 0;
}
