/**
 * @file
 * The network service plane: end-to-end client-visible availability
 * of a persistent KV service across power cycles.
 *
 * runService() assembles one LightPC platform (kernel + dpm devices +
 * PSM-backed OC-PMEM), registers a NicDevice in the dpm_list, runs a
 * KvService over a persistent ObjectPool, and drives an open-loop
 * ClientFleet against it on the discrete-event queue. Seeded power
 * cuts interrupt the run; what happens next depends on the
 * persistence mode:
 *
 *  - SnG        — PecOS Stop-and-Go: the EP-cut commits within the
 *                 PSU hold-up, the NIC rings ride the DCB through the
 *                 outage, and Go resumes the service with its queued
 *                 traffic intact.
 *  - SysPc      — hibernate-style full-system image, attempted at the
 *                 power event; the dump cannot beat the hold-up, so
 *                 recovery is a cold reboot.
 *  - SCheckPc   — periodic BLCR-style dumps that stall the service
 *                 (stop-the-world), plus a cold reboot on power loss.
 *  - ACheckPc   — per-request synchronous checkpoint copies, plus a
 *                 cold reboot on power loss.
 *  - OpLog      — SnG power machinery plus a Persimmon-style
 *                 persistent op log: PUTs append one record and ack
 *                 on group commit (batched tail persist), a
 *                 background drain applies committed records to the
 *                 pool, and recovery replays the log from the
 *                 durable head (torn tail discarded by checksum).
 *
 * All modes share the same transactional pool, so *durability* of
 * acknowledged writes holds everywhere (that is an invariant, checked
 * against the fleet's ledger); what differs is the client-visible
 * downtime and tail latency — the paper's Fig. 19-22 argument
 * recast as a service-level benchmark.
 */

#ifndef LIGHTPC_NET_SERVICE_PLANE_HH
#define LIGHTPC_NET_SERVICE_PLANE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "net/availability.hh"
#include "net/client_fleet.hh"
#include "net/kv_service.hh"
#include "net/nic.hh"
#include "sim/fields.hh"
#include "sim/logging.hh"
#include "sim/ticks.hh"

namespace lightpc::net
{

/** Which persistence mechanism carries the service through outages. */
enum class PersistMode
{
    SnG,       ///< PecOS Stop-and-Go (LightPC)
    SysPc,     ///< full-system image at power-down
    SCheckPc,  ///< periodic system-level checkpoint (BLCR-style)
    ACheckPc,  ///< per-request application-level checkpoint
    OpLog,     ///< SnG + persistent op-log write path (group commit)
};

/** Display name. */
const char *persistModeName(PersistMode mode);

/** SysPC, S-CheckPC and A-CheckPC: every mode but the two SnG ones. */
inline bool
isCheckpointBaseline(PersistMode mode)
{
    return mode != PersistMode::SnG && mode != PersistMode::OpLog;
}

/** persistModeName() by enum value, for the field tables. */
inline const char *
persistModeNameAt(std::size_t mode)
{
    return persistModeName(static_cast<PersistMode>(mode));
}

/** One experiment configuration. */
struct ServiceConfig
{
    PersistMode mode = PersistMode::SnG;

    /** Arrivals are generated for this long; then the run drains. */
    Tick runFor = 8 * tickSec;

    /** Extra drain time after the last arrival. */
    Tick drainGrace = 3 * tickSec;

    /** Power events, evenly spaced inside runFor. */
    std::uint32_t cuts = 3;

    /**
     * Land each cut while the service is mid-flight (server busy or
     * frames queued in a NIC ring): from its nominal instant, the
     * power event probes every cutProbeInterval until it catches the
     * service under load, up to half the inter-cut spacing. This is
     * the adversarial case — queued traffic and an unsent ack are at
     * stake — and what makes DCB ring resurrection observable.
     */
    bool cutUnderLoad = true;
    Tick cutProbeInterval = 37 * tickUs;

    /** AC-off dwell between the power event and restoration. */
    Tick offDwell = 100 * tickMs;

    /**
     * Cut storms: after each scheduled cut fires, this many follow-up
     * cuts chase the recovery. Each is scheduled stormSpacing past
     * the previous restoration and fires as soon as the service is
     * back up (no under-load wait) — the compound-failure case where
     * the next outage lands inside the recovery from the last.
     */
    std::uint32_t stormFollowUps = 0;
    Tick stormSpacing = 30 * tickMs;

    /** PSU hold-up: rails stay in spec this long past the event. */
    Tick holdup = 16 * tickMs;

    /** One-way client <-> server propagation. */
    Tick wireLatency = 20 * tickUs;

    /** NIC TX drain interval (one response frame per interval). */
    Tick txDrainInterval = 2 * tickUs;

    /** Server-side deadline granted to each attempt. */
    Tick requestDeadline = 250 * tickMs;

    /** Goodput sampling window. */
    Tick goodputWindow = 10 * tickMs;

    /** S-CheckPC: period and VM footprint of the periodic dump. */
    Tick scheckPeriod = 100 * tickMs;
    std::uint64_t scheckVmBytes = std::uint64_t(48) << 20;

    /** A-CheckPC: synchronous checkpoint bytes per request. */
    std::uint64_t acheckBytesPerOp = 18000;

    /**
     * OpLog mode: group-commit cadence. A commit fires when either
     * this many records are waiting or the interval elapses since
     * the first deferred ack of the batch — amortizing the tail
     * persist + fence across the batch while bounding ack latency.
     */
    Tick oplogCommitInterval = 25 * tickUs;
    std::uint32_t oplogCommitRecords = 16;

    /** OpLog mode: background drain cadence and batch size. */
    Tick oplogDrainInterval = 150 * tickUs;
    std::uint32_t oplogDrainBatch = 32;

    /** Kernel population behind the service. */
    std::uint32_t userProcesses = 24;
    std::uint32_t kernelThreads = 16;
    std::size_t deviceCount = 60;

    FleetParams fleet;
    KvParams kv;
    NicParams nic;

    std::uint64_t seed = 42;
};

/** One power event as measured at the clients. */
struct ServiceOutage
{
    Tick eventAt = 0;
    Tick lastSuccessBefore = 0;
    Tick firstSuccessAfter = 0;  ///< maxTick when never recovered
    Tick downtime = 0;           ///< client-visible ack gap
    Tick attributable = 0;       ///< downtime minus the AC-off dwell
    bool coldBoot = false;       ///< recovery had no usable commit

    /**
     * Take the client-visible window from @p rec. Its first
     * @p off_dwell is AC-off time, not attributable to the mode.
     */
    void measure(const OutageRecord &rec, Tick off_dwell);
};

/** Add @p msg to @p violations unless that text is already there. */
void noteViolation(std::vector<std::string> &violations,
                   const std::string &msg);

/** JSON rows of ServiceOutage (sim/fields.hh). */
inline constexpr auto serviceOutageFields = std::make_tuple(
    sim::derived("event_ms", &ServiceOutage::eventAt).ms("%.2f"),
    sim::derived("downtime_ms", &ServiceOutage::downtime).ms("%.3f"),
    sim::derived("attributable_ms", &ServiceOutage::attributable)
        .ms("%.3f"),
    sim::derived("cold_boot", &ServiceOutage::coldBoot));

/** Power-cycle counters of one machine (net::ServiceNode). */
struct NodeStats
{
    /** Frames resurrected from the DCB ring images across outages. */
    std::uint64_t ringPreservedFrames = 0;
    /** Queued frames destroyed by cold boots. */
    std::uint64_t ringFramesLost = 0;
    std::uint64_t contextImagesSaved = 0;
    std::uint64_t contextImagesRestored = 0;
    std::uint64_t resumes = 0;  ///< warm Stop-and-Go recoveries
    std::uint64_t coldBoots = 0;
    Tick stopTicks = 0;  ///< accumulated SnG Stop wall time
    Tick goTicks = 0;    ///< accumulated SnG Go wall time
};

/** Everything one run produces. */
struct ServiceResult
{
    PersistMode mode = PersistMode::SnG;
    std::string modeName;

    // Client side.
    std::uint64_t arrivals = 0;
    std::uint64_t attempts = 0;
    std::uint64_t retries = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t ackedPuts = 0;

    // Server side.
    std::uint64_t executed = 0;
    std::uint64_t putsApplied = 0;
    std::uint64_t idempotentHits = 0;
    std::uint64_t appliedCount = 0;  ///< KvService::appliedCount() at the end
    std::uint64_t rejected = 0;

    // Op-log write path (OpLog mode; zero elsewhere).
    std::uint64_t logAppends = 0;
    std::uint64_t logCommits = 0;
    std::uint64_t logDrainApplied = 0;
    std::uint64_t logReplayApplied = 0;
    std::uint64_t logStallDrains = 0;

    // Dedup-table compaction (any mode).
    std::uint64_t dedupCompactions = 0;
    std::uint64_t dedupEvicted = 0;

    // NIC.
    std::uint64_t framesRx = 0;
    std::uint64_t framesTx = 0;

    /** Bounded-queue high-water marks (audited against capacity). */
    std::uint32_t maxQueueDepth = 0;
    std::uint32_t maxRxOccupancy = 0;
    std::uint32_t maxTxOccupancy = 0;

    /** Frames resurrected from the DCB ring images across outages. */
    std::uint64_t ringPreservedFrames = 0;

    /** Queued frames destroyed by cold boots (baselines pay this). */
    std::uint64_t ringFramesLost = 0;
    std::uint64_t contextImagesSaved = 0;
    std::uint64_t contextImagesRestored = 0;

    std::uint64_t coldBoots = 0;

    /** Storm follow-up cuts that fired (chasing recoveries). */
    std::uint64_t stormFollowUpCuts = 0;

    // Latency, first issue -> ack, in microseconds.
    double meanUs = 0.0;
    double p50Us = 0.0;
    double p99Us = 0.0;
    double p999Us = 0.0;

    /** Mean goodput over the arrival phase (completions / runFor). */
    double goodputMean = 0.0;

    /** Goodput timeline (window samples, req/s). */
    std::vector<std::pair<Tick, double>> goodput;

    std::vector<ServiceOutage> outages;
    Tick worstDowntime = 0;
    Tick worstAttributable = 0;

    /** Accumulated SnG Stop / Go wall time across outages. */
    Tick stopTicksTotal = 0;
    Tick goTicksTotal = 0;

    // Invariant audit (all must be zero / empty).
    std::uint64_t lostAckedPuts = 0;    ///< acked but not in dedup set
    std::uint64_t duplicateApplied = 0; ///< version/dedup mismatches
    std::vector<std::string> violations;

    /** FNV digest of the run's observable counters (determinism). */
    std::uint64_t digest = 0;
};

/**
 * JSON, copy and digest rows of ServiceResult (sim/fields.hh). Each
 * counter copies from its source in the live run; rows without a
 * key are copied or digested but not printed. The run digest mixes
 * the slotted rows, then the latency tail and outage downtimes.
 */
inline constexpr auto serviceResultFields = [] {
    using C = ServiceResult;
    using F = FleetStats;
    using K = KvStats;
    using N = NicStats;
    using M = NodeStats;
    return std::make_tuple(
        sim::key("mode", &C::modeName),
        sim::sum("arrivals", &C::arrivals, 0, &F::arrivals),
        sim::sum(nullptr, &C::attempts, 1, &F::attempts),
        sim::sum("completed", &C::completed, 2, &F::completed),
        sim::sum("failed", &C::failed, 3, &F::failed),
        sim::sum("retries", &C::retries, -1, &F::retries),
        sim::sum("acked_puts", &C::ackedPuts, 4, &F::ackedPuts),
        sim::sum(nullptr, &C::executed, 5, &K::executed),
        sim::sum("puts_applied", &C::putsApplied, 6, &K::putsApplied),
        sim::sum("idempotent_hits", &C::idempotentHits, 7,
                 &K::idempotentHits),
        sim::sum(nullptr, &C::appliedCount, 8),
        sim::sum("rejected", &C::rejected, -1, &K::rejected),
        sim::maximum(nullptr, &C::maxQueueDepth, -1, &K::maxQueueDepth),
        sim::sum(nullptr, &C::framesRx, 9, &N::framesRx),
        sim::sum(nullptr, &C::framesTx, 10, &N::framesTx),
        sim::maximum(nullptr, &C::maxRxOccupancy, -1, &N::maxRxOccupancy),
        sim::maximum(nullptr, &C::maxTxOccupancy, -1, &N::maxTxOccupancy),
        sim::sum(nullptr, &C::contextImagesSaved, -1,
                 &M::contextImagesSaved),
        sim::sum(nullptr, &C::contextImagesRestored, -1,
                 &M::contextImagesRestored),
        sim::sum(nullptr, &C::stormFollowUpCuts, 12),
        sim::derived("goodput_mean", &C::goodputMean).fixed("%.1f"),
        sim::derived("latency_mean_us", &C::meanUs).fixed("%.2f"),
        sim::derived("p50_us", &C::p50Us).fixed("%.2f"),
        sim::derived("p99_us", &C::p99Us).fixed("%.2f"),
        sim::derived("p999_us", &C::p999Us).fixed("%.2f"),
        sim::sum("cold_boots", &C::coldBoots, -1, &M::coldBoots),
        sim::sum("ring_preserved_frames", &C::ringPreservedFrames, 11,
                 &M::ringPreservedFrames),
        sim::sum("ring_frames_lost", &C::ringFramesLost, -1,
                 &M::ringFramesLost),
        sim::sum("stop_ms_total", &C::stopTicksTotal)
            .ms("%.3f").source(&M::stopTicks),
        sim::sum("go_ms_total", &C::goTicksTotal)
            .ms("%.3f").source(&M::goTicks),
        sim::sum("log_appends", &C::logAppends, 13, &K::logAppends),
        sim::sum("log_commits", &C::logCommits, 14, &K::logCommits),
        sim::sum("log_drain_applied", &C::logDrainApplied, -1,
                 &K::logDrainApplied),
        sim::sum("log_replay_applied", &C::logReplayApplied, -1,
                 &K::logReplayApplied),
        sim::sum("log_stall_drains", &C::logStallDrains, -1,
                 &K::logStallDrains),
        sim::sum("dedup_compactions", &C::dedupCompactions, -1,
                 &K::dedupCompactions),
        sim::sum("dedup_evicted", &C::dedupEvicted, 15, &K::dedupEvicted),
        sim::sum("lost_acked_puts", &C::lostAckedPuts),
        sim::sum("duplicate_applied", &C::duplicateApplied),
        sim::notes("violations", &C::violations),
        sim::derived("digest", &C::digest).text("%016llx"));
}();

/**
 * Reject the degenerate serving knobs every plane config names alike
 * (client fleet, rings, queue, run length, goodput window); @p what
 * names the config in the message.
 */
template <class Config>
void
validateServingKnobs(const Config &config, const char *what)
{
    if (config.fleet.clients == 0)
        fatal(what, ": fleet.clients must be >= 1 "
              "(a zero-client fleet generates no load)");
    if (config.fleet.arrivalsPerSec <= 0.0)
        fatal(what, ": fleet.arrivalsPerSec must be positive");
    if (config.fleet.maxAttempts == 0)
        fatal(what, ": fleet.maxAttempts must be >= 1");
    if (config.nic.ringEntries == 0)
        fatal(what, ": nic.ringEntries must be >= 1 "
              "(a zero-capacity ring can never carry a frame)");
    if (config.kv.queueCapacity == 0)
        fatal(what, ": kv.queueCapacity must be >= 1");
    if (config.runFor == 0)
        fatal(what, ": runFor must be nonzero");
    if (config.goodputWindow == 0)
        fatal(what, ": goodputWindow must be nonzero");
}

/**
 * Reject degenerate configurations with a clear message instead of
 * letting them silently degenerate (a zero-client fleet, a
 * zero-capacity ring that can never carry a frame, storm follow-ups
 * with no storm to follow). Called at runService entry; exposed so
 * callers embedding ServiceConfig (the cluster plane) and tests can
 * invoke it directly.
 */
void validateServiceConfig(const ServiceConfig &config);

/** Run one configuration to completion. */
ServiceResult runService(const ServiceConfig &config);

/**
 * Run a suite of configurations, fanned across @p threads host
 * threads (0 = hardware concurrency). Each run owns its whole
 * platform and event queue, and results come back in the input's
 * order regardless of which worker finished first — so a suite is
 * bit-identical to running each config sequentially, digests
 * included.
 */
std::vector<ServiceResult>
runServiceSuite(const std::vector<ServiceConfig> &configs,
                unsigned threads = 1);

} // namespace lightpc::net

#endif // LIGHTPC_NET_SERVICE_PLANE_HH
