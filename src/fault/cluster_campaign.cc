#include "fault/cluster_campaign.hh"

#include "fault/fleet_campaign.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace lightpc::fault
{

namespace
{

/** Storm count / rack span one intensity rung encodes. */
struct StormShape
{
    std::size_t storms = 0;
    std::uint32_t rackSpan = 1;
};

StormShape
shapeOf(std::uint32_t intensity, std::uint32_t racks)
{
    switch (intensity) {
    case 1: return {1, 1};
    case 2: return {2, 1};
    case 3: return {2, racks};
    default:
        fatal("cluster campaign: intensity ", intensity,
                   " is not on the 1..3 storm ladder");
    }
    return {};
}

void
validate(const ClusterCampaignConfig &config)
{
    validateFleetSweep("cluster campaign", config, 256);
    if (config.replicaCounts.empty())
        fatal("cluster campaign: no replica counts to sweep");
    if (config.replicaCounts.size() > (std::size_t(1) << 24))
        fatal("cluster campaign: ", config.replicaCounts.size(),
              " replica counts overflow the stream column packing");
    if (config.agingSpread < 0.0 || config.agingSpread > 1.0)
        fatal("cluster campaign: agingSpread (", config.agingSpread,
              ") must be within [0, 1]");
}

} // namespace

std::uint64_t
clusterCampaignTrials(const ClusterCampaignConfig &config)
{
    return std::uint64_t(config.replicaCounts.size())
           * config.intensities.size() * config.modes.size()
           * config.seedsPerCell;
}

cluster::ClusterConfig
clusterTrialConfig(const ClusterCampaignConfig &config,
                   std::uint64_t index)
{
    validate(config);
    if (index >= clusterCampaignTrials(config))
        fatal("cluster campaign: trial index ", index,
                   " past the ", clusterCampaignTrials(config),
                   "-trial grid");

    // Decode replicas-major, then intensity, then mode, then seed.
    const std::uint64_t seedIdx = index % config.seedsPerCell;
    std::uint64_t cell = index / config.seedsPerCell;
    const std::size_t modeIdx = cell % config.modes.size();
    cell /= config.modes.size();
    const std::size_t intIdx = cell % config.intensities.size();
    cell /= config.intensities.size();
    const std::size_t repIdx = cell;

    cluster::ClusterConfig cc;
    cc.mode = config.modes[modeIdx];
    cc.replicas = config.replicaCounts[repIdx];
    cc.racks = 2;

    const std::uint32_t intensity = config.intensities[intIdx];
    const StormShape shape = shapeOf(intensity, cc.racks);
    cc.storms = shape.storms;
    cc.stormRackSpan = shape.rackSpan;

    cc.agingSpread = config.agingSpread;

    cc.runFor = config.runFor;
    cc.drainGrace = config.drainGrace;
    cc.fleet.clients = config.clients;
    cc.fleet.arrivalsPerSec = config.arrivalsPerSec;

    // Small kernel population: a trial holds up to five machines.
    cc.userProcesses = 6;
    cc.kernelThreads = 4;
    cc.deviceCount = 12;

    // One stream per grid position: the *same* seed index replays
    // identical storm/arrival schedules against every mode in the
    // cell's column, so the availability comparison is paired. The
    // column packs (repIdx, intIdx, seedIdx) into disjoint wide
    // fields — validate() bounds each so they cannot collide.
    const std::uint64_t column =
        ((std::uint64_t(repIdx) * 256 + std::uint64_t(intIdx)) << 32)
        | std::uint64_t(seedIdx);
    cc.seed = Rng::streamSeed(config.seed, 0x636c7573ULL + column);
    return cc;
}

ClusterCampaignResult
runClusterCampaign(const ClusterCampaignConfig &config)
{
    validate(config);
    const std::size_t modes = config.modes.size();
    const std::size_t intensities = config.intensities.size();
    return runFleetCampaign<ClusterCampaignResult>(
        clusterCampaignTrials(config), config.seedsPerCell,
        config.replicaCounts.size() * intensities * modes,
        config.threads,
        [&config](std::uint64_t index) {
            return clusterTrialConfig(config, index);
        },
        // Cells come out replicas-major, then intensity, then mode.
        [&](ClusterCellStats &cell, std::size_t c) {
            cell.mode = config.modes[c % modes];
            cell.modeName = net::persistModeName(cell.mode);
            c /= modes;
            cell.intensity = config.intensities[c % intensities];
            cell.replicas = config.replicaCounts[c / intensities];
        },
        [](const cluster::ClusterResult &r, const ClusterCellStats &) {
            return r.modeName + " x" + std::to_string(r.replicas);
        },
        clusterCellFields, clusterCampaignFields);
}

} // namespace lightpc::fault
