/**
 * @file
 * Seeded cluster campaign: replicated-KV fleets under rack-correlated
 * cut storms, swept across replica count x storm intensity x all five
 * persistence modes.
 *
 * Each trial is one full cluster::runCluster() — N LightPC machines,
 * a client fleet, a correlated storm schedule — and is a pure
 * function of (campaign seed, trial index): the grid position picks
 * the cell (replicas, intensity, mode) and the per-cell seed index
 * picks the storm/arrival streams via Rng::streamSeed. Trials fan
 * across sim::ParallelExecutor and fold in canonical index order, so
 * the campaign digest is bit-identical at any thread count.
 *
 * Intensity is the storm ladder the acceptance gate sweeps:
 *
 *   1 — one storm, one rack struck (a minority loses power);
 *   2 — two storms, one rack each (repeated partial outages);
 *   3 — two storms, every rack struck (full-fleet blackouts: the
 *       whole cluster rides through on hold-up or cold-boots).
 *
 * Per cell the campaign reports mean/min write availability, read
 * availability, worst write gap, catch-up traffic (delta vs full
 * resyncs), and the invariant counters that must stay zero: lost
 * acked PUTs, split-brain epochs, divergent commits.
 */

#ifndef LIGHTPC_FAULT_CLUSTER_CAMPAIGN_HH
#define LIGHTPC_FAULT_CLUSTER_CAMPAIGN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster.hh"
#include "sim/fields.hh"
#include "sim/ticks.hh"

namespace lightpc::fault
{

/** Campaign sweep shape. */
struct ClusterCampaignConfig
{
    std::uint64_t seed = 42;

    /** Seeded trials per (replicas, intensity, mode) cell. */
    std::size_t seedsPerCell = 10;

    std::vector<std::uint32_t> replicaCounts = {3, 5};
    std::vector<std::uint32_t> intensities = {1, 2, 3};
    std::vector<net::PersistMode> modes = {
        net::PersistMode::SnG,      net::PersistMode::OpLog,
        net::PersistMode::SysPc,    net::PersistMode::SCheckPc,
        net::PersistMode::ACheckPc,
    };

    /**
     * Per-machine storage aging spread forwarded to every trial's
     * ClusterConfig (0 = the legacy uniform fleet; see
     * cluster::ClusterConfig::agingSpread).
     */
    double agingSpread = 0.0;

    /** Per-trial run shape (kept small: the grid is 300 trials). */
    Tick runFor = 2 * tickSec;
    Tick drainGrace = 2 * tickSec;
    std::uint32_t clients = 120;
    double arrivalsPerSec = 1500.0;

    unsigned threads = 1;
};

/** Aggregate over one (replicas, intensity, mode) cell. */
struct ClusterCellStats
{
    std::uint32_t replicas = 0;
    std::uint32_t intensity = 0;
    net::PersistMode mode = net::PersistMode::SnG;
    std::string modeName;

    std::uint64_t trials = 0;
    std::uint64_t cutsInjected = 0;

    double writeAvailMean = 0.0;
    double writeAvailMin = 1.0;
    double readAvailMean = 0.0;
    double readAvailMin = 1.0;
    Tick worstWriteGap = 0;        ///< max across the cell's trials
    std::uint64_t readOnlySpans = 0;

    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t ackedPuts = 0;
    std::uint64_t redirects = 0;

    std::uint64_t elections = 0;
    std::uint64_t leaderChanges = 0;
    std::uint64_t stepDowns = 0;

    std::uint64_t syncDeltas = 0;
    std::uint64_t syncFulls = 0;
    std::uint64_t syncBytes = 0;

    std::uint64_t resumes = 0;
    std::uint64_t coldBoots = 0;
    std::uint64_t degradedColdBoots = 0;

    // Must stay zero across the whole campaign.
    std::uint64_t lostAckedPuts = 0;
    std::uint64_t splitBrainEpochs = 0;
    std::uint64_t divergentCommits = 0;
    std::uint64_t violations = 0;
};

/**
 * Fold, digest and JSON rows of ClusterCellStats (sim/fields.hh).
 * Every counter folds from its cluster::ClusterResult source; the
 * availability means are sums until the campaign divides them.
 */
inline constexpr auto clusterCellFields = [] {
    using C = ClusterCellStats;
    using R = cluster::ClusterResult;
    return std::make_tuple(
        sim::key("replicas", &C::replicas, 0),
        sim::key("intensity", &C::intensity, 1),
        sim::key(nullptr, &C::mode, 2),
        sim::key("mode", &C::modeName),
        sim::sum("trials", &C::trials, 3),
        sim::sum("write_avail_mean", &C::writeAvailMean)
            .fixed("%.6f").source(&R::writeAvailability),
        sim::minimum("write_avail_min", &C::writeAvailMin)
            .fixed("%.6f").source(&R::writeAvailability),
        sim::sum("read_avail_mean", &C::readAvailMean)
            .fixed("%.6f").source(&R::readAvailability),
        sim::minimum("read_avail_min", &C::readAvailMin)
            .fixed("%.6f").source(&R::readAvailability),
        sim::maximum("worst_write_gap_ms", &C::worstWriteGap, 5)
            .ms("%.3f").source(&R::worstWriteGap),
        sim::sum("read_only_spans", &C::readOnlySpans, 6, &R::readOnlySpans),
        sim::sum("cuts", &C::cutsInjected, 4, &R::cutsInjected),
        sim::sum("completed", &C::completed, 7, &R::completed),
        sim::sum("failed", &C::failed, 8, &R::failed),
        sim::sum("acked_puts", &C::ackedPuts, 9, &R::ackedPuts),
        sim::sum("redirects", &C::redirects, 10, &R::redirects),
        sim::sum("elections", &C::elections, 11, &R::elections),
        sim::sum("leader_changes", &C::leaderChanges, 12, &R::leaderChanges),
        sim::sum("step_downs", &C::stepDowns, 13, &R::stepDowns),
        sim::sum("sync_deltas", &C::syncDeltas, 14, &R::syncDeltas),
        sim::sum("sync_fulls", &C::syncFulls, 15, &R::syncFulls),
        sim::sum("sync_bytes", &C::syncBytes, 16, &R::syncBytes),
        sim::sum("resumes", &C::resumes, 17, &R::resumes),
        sim::sum("cold_boots", &C::coldBoots, 18, &R::coldBoots),
        sim::sum("degraded_cold_boots", &C::degradedColdBoots, 19,
                 &R::degradedColdBoots),
        sim::sum("lost_acked_puts", &C::lostAckedPuts, 20, &R::lostAckedPuts),
        sim::sum("split_brain_epochs", &C::splitBrainEpochs, 21,
                 &R::splitBrainEpochs),
        sim::sum("divergent_commits", &C::divergentCommits, 22,
                 &R::divergentCommits),
        sim::sum("violations", &C::violations, 23, &R::violations));
}();

/** Everything one campaign run produces. */
struct ClusterCampaignResult
{
    std::uint64_t trials = 0;
    unsigned threads = 1;

    /** Canonical order: replicas-major, then intensity, then mode. */
    std::vector<ClusterCellStats> cells;

    // Campaign-wide invariant totals (all must be zero).
    std::uint64_t lostAckedPuts = 0;
    std::uint64_t splitBrainEpochs = 0;
    std::uint64_t divergentCommits = 0;
    std::uint64_t violations = 0;
    std::vector<std::string> violationNotes;

    /** FNV digest over every cell counter (thread-invariant). */
    std::uint64_t digest = 0;
};

/** Fold and JSON rows of the campaign-wide invariant totals. */
inline constexpr auto clusterCampaignFields = [] {
    using C = ClusterCampaignResult;
    using R = cluster::ClusterResult;
    return std::make_tuple(
        sim::sum("lost_acked_puts", &C::lostAckedPuts)
            .source(&R::lostAckedPuts),
        sim::sum("split_brain_epochs", &C::splitBrainEpochs)
            .source(&R::splitBrainEpochs),
        sim::sum("divergent_commits", &C::divergentCommits)
            .source(&R::divergentCommits),
        sim::sum("violations", &C::violations).source(&R::violations),
        sim::derived("digest", &C::digest).text("%016llx"));
}();

/**
 * The ClusterConfig trial @p index of the campaign would run —
 * exposed so tests can replay one grid point without the sweep.
 * Pure function of (config, index); fatal on index out of range.
 */
cluster::ClusterConfig
clusterTrialConfig(const ClusterCampaignConfig &config,
                   std::uint64_t index);

/** Total trials the grid encodes. */
std::uint64_t clusterCampaignTrials(const ClusterCampaignConfig &config);

/** Run the sweep on config.threads workers. */
ClusterCampaignResult
runClusterCampaign(const ClusterCampaignConfig &config);

} // namespace lightpc::fault

#endif // LIGHTPC_FAULT_CLUSTER_CAMPAIGN_HH
