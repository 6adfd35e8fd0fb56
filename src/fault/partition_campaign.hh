/**
 * @file
 * Seeded partition campaign: replicated-KV fleets under an
 * adversarial network nemesis, swept across nemesis intensity x all
 * five persistence modes, with the per-trial linearizability audit
 * rolled up into campaign invariants.
 *
 * Each trial is one full cluster::runCluster() with a NemesisConfig
 * built from the grid position — a pure function of (campaign seed,
 * trial index). The stream column packs (intensity, seedIdx) but NOT
 * the mode, so the same seed index replays an identical nemesis
 * schedule (drops, duplicates, jitter, flaps, partitions) and storm
 * schedule against every persistence mode: the availability
 * comparison across modes is paired.
 *
 * The intensity ladder:
 *
 *   1 — lossy links: 1% drop, 1% duplication, 30us reordering jitter
 *       (FIFO off), one rack storm;
 *   2 — single partition: the same loss floor plus one scheduled
 *       rack partition (mode cycling Symmetric / Asymmetric / Partial
 *       by seed index) and one link flap, one rack storm;
 *   3 — compound: 5% drop, 3% duplication, 100us jitter, two
 *       partitions scheduled to overlap the two storm windows (the
 *       struck rack is also severed — a deposed leader is partitioned
 *       AND power-cycled), plus two link flaps.
 *
 * Per cell the campaign reports write/read availability, nemesis
 * counters (messages dropped / duplicated / reordered, partition and
 * flap cuts), protocol-hardening counters (pre-vote rounds,
 * suppressed elections, retransmits, sync retries, redirect
 * fallbacks), audit metrics (stale reads), and the invariants that
 * must stay zero: lost acked PUTs, split-brain epochs, divergent
 * commits, lost updates, order inversions, phantom reads, value
 * divergences.
 */

#ifndef LIGHTPC_FAULT_PARTITION_CAMPAIGN_HH
#define LIGHTPC_FAULT_PARTITION_CAMPAIGN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster.hh"
#include "sim/fields.hh"
#include "sim/ticks.hh"

namespace lightpc::fault
{

/** Campaign sweep shape. */
struct PartitionCampaignConfig
{
    std::uint64_t seed = 42;

    /** Seeded trials per (intensity, mode) cell. */
    std::size_t seedsPerCell = 20;

    std::vector<std::uint32_t> intensities = {1, 2, 3};
    std::vector<net::PersistMode> modes = {
        net::PersistMode::SnG,      net::PersistMode::OpLog,
        net::PersistMode::SysPc,    net::PersistMode::SCheckPc,
        net::PersistMode::ACheckPc,
    };

    /** Fleet shape (fixed: 3 replicas over 2 racks — rack 0 holds
     *  the majority {0, 1}, so partitioning it off is already a
     *  quorum-threatening event). */
    std::uint32_t replicas = 3;
    std::uint32_t racks = 2;

    /** Per-trial run shape (kept small: the grid is 300 trials). */
    Tick runFor = 2 * tickSec;
    Tick drainGrace = 2 * tickSec;
    std::uint32_t clients = 120;
    double arrivalsPerSec = 1500.0;

    unsigned threads = 1;
};

/** Aggregate over one (intensity, mode) cell. */
struct PartitionCellStats
{
    std::uint32_t intensity = 0;
    net::PersistMode mode = net::PersistMode::SnG;
    std::string modeName;

    std::uint64_t trials = 0;
    std::uint64_t cutsInjected = 0;

    double writeAvailMean = 0.0;
    double writeAvailMin = 1.0;
    double readAvailMean = 0.0;
    double readAvailMin = 1.0;
    Tick worstWriteGap = 0;

    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t ackedPuts = 0;
    std::uint64_t redirects = 0;
    std::uint64_t fastRedirects = 0;
    std::uint64_t redirectFallbacks = 0;

    // Nemesis damage actually inflicted.
    std::uint64_t msgsDropped = 0;
    std::uint64_t msgsDuplicated = 0;
    std::uint64_t msgsReordered = 0;
    std::uint64_t partitionCuts = 0;
    std::uint64_t flapCuts = 0;

    // Protocol-hardening activity.
    std::uint64_t elections = 0;
    std::uint64_t leaderChanges = 0;
    std::uint64_t preVoteRounds = 0;
    std::uint64_t electionsSuppressed = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t syncRetries = 0;
    std::uint64_t duplicateAckAudits = 0;
    std::uint64_t syncDeltas = 0;
    std::uint64_t syncFulls = 0;

    // Linearizability-audit rollup.
    std::uint64_t auditedWrites = 0;
    std::uint64_t auditedReads = 0;
    std::uint64_t staleReads = 0;
    std::uint64_t notFoundReads = 0;

    // Must stay zero across the whole campaign.
    std::uint64_t lostAckedPuts = 0;
    std::uint64_t splitBrainEpochs = 0;
    std::uint64_t divergentCommits = 0;
    std::uint64_t lostUpdates = 0;
    std::uint64_t orderInversions = 0;
    std::uint64_t phantomReads = 0;
    std::uint64_t valueDivergences = 0;
    std::uint64_t violations = 0;
};

/**
 * Fold, digest and JSON rows of PartitionCellStats (sim/fields.hh).
 * Every counter folds from its cluster::ClusterResult source; the
 * availability means are sums until the campaign divides them.
 */
inline constexpr auto partitionCellFields = [] {
    using C = PartitionCellStats;
    using R = cluster::ClusterResult;
    return std::make_tuple(
        sim::key("intensity", &C::intensity, 0),
        sim::key(nullptr, &C::mode, 1),
        sim::key("mode", &C::modeName),
        sim::sum("trials", &C::trials, 2),
        sim::sum("cuts", &C::cutsInjected, 3, &R::cutsInjected),
        sim::sum("write_avail_mean", &C::writeAvailMean)
            .fixed("%.6f").source(&R::writeAvailability),
        sim::minimum("write_avail_min", &C::writeAvailMin)
            .fixed("%.6f").source(&R::writeAvailability),
        sim::sum("read_avail_mean", &C::readAvailMean)
            .fixed("%.6f").source(&R::readAvailability),
        sim::minimum("read_avail_min", &C::readAvailMin)
            .fixed("%.6f").source(&R::readAvailability),
        sim::maximum("worst_write_gap_ms", &C::worstWriteGap, 4)
            .ms("%.3f").source(&R::worstWriteGap),
        sim::sum("completed", &C::completed, 5, &R::completed),
        sim::sum("failed", &C::failed, 6, &R::failed),
        sim::sum("acked_puts", &C::ackedPuts, 7, &R::ackedPuts),
        sim::sum("redirects", &C::redirects, 8, &R::redirects),
        sim::sum("fast_redirects", &C::fastRedirects, 9, &R::fastRedirects),
        sim::sum("redirect_fallbacks", &C::redirectFallbacks, 10,
                 &R::redirectFallbacks),
        sim::sum("msgs_dropped", &C::msgsDropped, 11, &R::msgsDropped),
        sim::sum("msgs_duplicated", &C::msgsDuplicated, 12,
                 &R::msgsDuplicated),
        sim::sum("msgs_reordered", &C::msgsReordered, 13, &R::msgsReordered),
        sim::sum("partition_cuts", &C::partitionCuts, 14, &R::partitionCuts),
        sim::sum("flap_cuts", &C::flapCuts, 15, &R::flapCuts),
        sim::sum("elections", &C::elections, 16, &R::elections),
        sim::sum("leader_changes", &C::leaderChanges, 17, &R::leaderChanges),
        sim::sum("pre_vote_rounds", &C::preVoteRounds, 18, &R::preVoteRounds),
        sim::sum("elections_suppressed", &C::electionsSuppressed, 19,
                 &R::electionsSuppressed),
        sim::sum("retransmits", &C::retransmits, 20, &R::retransmits),
        sim::sum("sync_retries", &C::syncRetries, 21, &R::syncRetries),
        sim::sum("duplicate_ack_audits", &C::duplicateAckAudits, 22,
                 &R::duplicateAckAudits),
        sim::sum("sync_deltas", &C::syncDeltas, 23, &R::syncDeltas),
        sim::sum("sync_fulls", &C::syncFulls, 24, &R::syncFulls),
        sim::sum("audited_writes", &C::auditedWrites, 25, &R::auditedWrites),
        sim::sum("audited_reads", &C::auditedReads, 26, &R::auditedReads),
        sim::sum("stale_reads", &C::staleReads, 27, &R::staleReads),
        sim::sum("not_found_reads", &C::notFoundReads, 28, &R::notFoundReads),
        sim::sum("lost_acked_puts", &C::lostAckedPuts, 29, &R::lostAckedPuts),
        sim::sum("split_brain_epochs", &C::splitBrainEpochs, 30,
                 &R::splitBrainEpochs),
        sim::sum("divergent_commits", &C::divergentCommits, 31,
                 &R::divergentCommits),
        sim::sum("lost_updates", &C::lostUpdates, 32, &R::lostUpdates),
        sim::sum("order_inversions", &C::orderInversions, 33,
                 &R::orderInversions),
        sim::sum("phantom_reads", &C::phantomReads, 34, &R::phantomReads),
        sim::sum("value_divergences", &C::valueDivergences, 35,
                 &R::valueDivergences),
        sim::sum("violations", &C::violations, 36, &R::violations));
}();

/** Everything one campaign run produces. */
struct PartitionCampaignResult
{
    std::uint64_t trials = 0;
    unsigned threads = 1;

    /** Canonical order: intensity-major, then mode. */
    std::vector<PartitionCellStats> cells;

    // Campaign-wide invariant totals (all must be zero).
    std::uint64_t lostAckedPuts = 0;
    std::uint64_t splitBrainEpochs = 0;
    std::uint64_t divergentCommits = 0;
    std::uint64_t lostUpdates = 0;
    std::uint64_t orderInversions = 0;
    std::uint64_t phantomReads = 0;
    std::uint64_t valueDivergences = 0;
    std::uint64_t violations = 0;
    std::vector<std::string> violationNotes;

    /** FNV digest over every cell counter (thread-invariant). */
    std::uint64_t digest = 0;
};

/** Fold and JSON rows of the campaign-wide invariant totals. */
inline constexpr auto partitionCampaignFields = [] {
    using C = PartitionCampaignResult;
    using R = cluster::ClusterResult;
    return std::make_tuple(
        sim::sum("lost_acked_puts", &C::lostAckedPuts)
            .source(&R::lostAckedPuts),
        sim::sum("split_brain_epochs", &C::splitBrainEpochs)
            .source(&R::splitBrainEpochs),
        sim::sum("divergent_commits", &C::divergentCommits)
            .source(&R::divergentCommits),
        sim::sum("lost_updates", &C::lostUpdates)
            .source(&R::lostUpdates),
        sim::sum("order_inversions", &C::orderInversions)
            .source(&R::orderInversions),
        sim::sum("phantom_reads", &C::phantomReads)
            .source(&R::phantomReads),
        sim::sum("value_divergences", &C::valueDivergences)
            .source(&R::valueDivergences),
        sim::sum("violations", &C::violations).source(&R::violations),
        sim::derived("digest", &C::digest).text("%016llx"));
}();

/**
 * The ClusterConfig trial @p index of the campaign would run —
 * exposed so tests can replay one grid point without the sweep.
 * Pure function of (config, index); fatal on index out of range.
 */
cluster::ClusterConfig
partitionTrialConfig(const PartitionCampaignConfig &config,
                     std::uint64_t index);

/** Total trials the grid encodes. */
std::uint64_t
partitionCampaignTrials(const PartitionCampaignConfig &config);

/** Run the sweep on config.threads workers. */
PartitionCampaignResult
runPartitionCampaign(const PartitionCampaignConfig &config);

} // namespace lightpc::fault

#endif // LIGHTPC_FAULT_PARTITION_CAMPAIGN_HH
