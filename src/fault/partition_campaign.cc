#include "fault/partition_campaign.hh"

#include <algorithm>

#include "fault/compound.hh"
#include "fault/fleet_campaign.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace lightpc::fault
{

namespace
{

void
validate(const PartitionCampaignConfig &config)
{
    validateFleetSweep("partition campaign", config,
                       std::size_t(1) << 24);
    if (config.replicas < 3)
        fatal("partition campaign: needs >= 3 replicas (a partition "
              "against fewer has no minority island worth studying)");
    if (config.racks < 2 || config.racks > config.replicas)
        fatal("partition campaign: racks must be in [2, replicas] so "
              "a rack partition leaves both sides populated");
}

/** The partition mode seed index @p seed_idx exercises. */
PartitionMode
cycleMode(std::uint64_t seed_idx)
{
    switch (seed_idx % 3) {
    case 0: return PartitionMode::Symmetric;
    case 1: return PartitionMode::Asymmetric;
    default: return PartitionMode::Partial;
    }
}

/**
 * A flap on one replica pair, the pair picked by @p pick of the
 * replicas-choose-2 unordered pairs in (a, b) lexicographic order.
 */
LinkFlap
flapOnPair(std::uint64_t pick, std::uint32_t replicas, Tick start,
           Tick end)
{
    const std::uint64_t pairs =
        std::uint64_t(replicas) * (replicas - 1) / 2;
    std::uint64_t k = pick % pairs;
    LinkFlap flap;
    for (std::uint32_t a = 0; a < replicas; ++a) {
        const std::uint64_t fanout = replicas - 1 - a;
        if (k < fanout) {
            flap.a = a;
            flap.b = a + 1 + static_cast<std::uint32_t>(k);
            break;
        }
        k -= fanout;
    }
    flap.start = start;
    flap.end = end;
    return flap;
}

} // namespace

std::uint64_t
partitionCampaignTrials(const PartitionCampaignConfig &config)
{
    return std::uint64_t(config.intensities.size())
           * config.modes.size() * config.seedsPerCell;
}

cluster::ClusterConfig
partitionTrialConfig(const PartitionCampaignConfig &config,
                     std::uint64_t index)
{
    validate(config);
    if (index >= partitionCampaignTrials(config))
        fatal("partition campaign: trial index ", index, " past the ",
              partitionCampaignTrials(config), "-trial grid");

    // Decode intensity-major, then mode, then seed.
    const std::uint64_t seedIdx = index % config.seedsPerCell;
    std::uint64_t cell = index / config.seedsPerCell;
    const std::size_t modeIdx = cell % config.modes.size();
    const std::size_t intIdx = cell / config.modes.size();

    cluster::ClusterConfig cc;
    cc.mode = config.modes[modeIdx];
    cc.replicas = config.replicas;
    cc.racks = config.racks;
    cc.runFor = config.runFor;
    cc.drainGrace = config.drainGrace;
    cc.fleet.clients = config.clients;
    cc.fleet.arrivalsPerSec = config.arrivalsPerSec;

    // Small kernel population: a trial holds several machines.
    cc.userProcesses = 6;
    cc.kernelThreads = 4;
    cc.deviceCount = 12;

    // One stream per grid position, mode EXCLUDED: the same seed
    // index replays identical nemesis + storm + arrival schedules
    // against every mode in the column, pairing the comparison.
    const std::uint64_t column =
        (std::uint64_t(intIdx) << 32) | seedIdx;
    cc.seed = Rng::streamSeed(config.seed, 0x706172ULL + column);

    const std::uint32_t intensity = config.intensities[intIdx];

    // The nemesis schedule draws from its own stream off the trial
    // seed — NOT from the storm or arrival streams — in a fixed
    // order, so every draw below is a pure function of (config,
    // index) and independent of the mode under test.
    Rng sched(Rng::streamSeed(cc.seed, 0x6e656d73ULL));
    NemesisConfig nem;
    nem.fifoLinks = false;  // jitter is allowed to reorder

    switch (intensity) {
    case 1:
        // Lossy links only: the protocol's retransmission and
        // idempotence floor, plus one rack storm.
        cc.storms = 1;
        cc.stormRackSpan = 1;
        nem.dropProb = 0.01;
        nem.dupProb = 0.01;
        nem.jitterMax = 30 * tickUs;
        break;
    case 2: {
        // One scheduled partition (mode cycling by seed index) and
        // one link flap over the lossy floor, one rack storm.
        cc.storms = 1;
        cc.stormRackSpan = 1;
        nem.dropProb = 0.01;
        nem.dupProb = 0.01;
        nem.jitterMax = 30 * tickUs;
        nem.partialCutProb = 0.6;
        PartitionSpec part;
        part.mode = cycleMode(seedIdx);
        part.firstRack = static_cast<std::uint32_t>(
            sched.below(cc.racks));
        part.rackSpan = 1;
        part.start = sched.between(cc.runFor / 4, cc.runFor / 2);
        part.end = part.start
            + sched.between(150 * tickMs, 250 * tickMs);
        nem.partitions.push_back(part);
        nem.flaps.push_back(flapOnPair(
            sched.next(), cc.replicas,
            sched.between((3 * cc.runFor) / 5, (4 * cc.runFor) / 5),
            0));
        nem.flaps.back().end =
            nem.flaps.back().start
            + sched.between(60 * tickMs, 120 * tickMs);
        break;
    }
    case 3: {
        // Compound: heavy loss, and the partitions are scheduled to
        // overlap the storm windows — the struck rack is severed
        // while its replicas are power-cycled, so a deposed leader
        // comes back into a partition, not a healthy fleet.
        cc.storms = 2;
        cc.stormRackSpan = 1;
        nem.dropProb = 0.05;
        nem.dupProb = 0.03;
        nem.jitterMax = 100 * tickUs;
        nem.partialCutProb = 0.6;

        // Replay the exact storm schedule the cluster plane will
        // draw (same stream tag, same arguments) to learn each
        // storm's window and struck rack.
        CutStorm gen(Rng::streamSeed(cc.seed, 0xc157e5ULL));
        const auto schedule = gen.correlated(
            cc.runFor / 5, cc.runFor, cc.storms, cc.replicas,
            cc.racks, cc.stormRackSpan, cc.stormWindow);
        Tick prevEnd = 0;
        for (std::size_t i = 0; i < schedule.size(); ++i) {
            const CorrelatedStorm &storm = schedule[i];
            PartitionSpec part;
            part.mode = cycleMode(seedIdx + i);
            part.firstRack = storm.racks.empty()
                ? 0
                : std::min(storm.racks.front(), cc.racks - 1);
            part.rackSpan = 1;
            const Tick lead = 20 * tickMs;
            part.start = storm.startAt > lead
                ? storm.startAt - lead
                : Tick(1);
            // Partition windows must not overlap each other (the
            // validator rejects concurrent partitions); clamp to the
            // previous window's end and drop degenerates.
            part.start = std::max(part.start, prevEnd + 1);
            part.end = part.start + cc.stormWindow + 120 * tickMs;
            if (part.end <= part.start)
                continue;
            prevEnd = part.end;
            nem.partitions.push_back(part);
        }

        // Two flaps on distinct pairs (distinct pairs may overlap in
        // time; the validator only rejects same-pair overlap).
        const std::uint64_t pairs =
            std::uint64_t(cc.replicas) * (cc.replicas - 1) / 2;
        const std::uint64_t first = sched.next();
        LinkFlap f1 = flapOnPair(
            first, cc.replicas,
            sched.between(cc.runFor / 3, cc.runFor / 2), 0);
        f1.end = f1.start + sched.between(60 * tickMs, 120 * tickMs);
        LinkFlap f2 = flapOnPair(
            first + 1 + sched.next() % (pairs - 1), cc.replicas,
            sched.between((3 * cc.runFor) / 5, (4 * cc.runFor) / 5),
            0);
        f2.end = f2.start + sched.between(60 * tickMs, 120 * tickMs);
        nem.flaps.push_back(f1);
        nem.flaps.push_back(f2);
        break;
    }
    default:
        fatal("partition campaign: intensity ", intensity,
              " is not on the 1..3 nemesis ladder");
    }

    cc.nemesis = nem;
    return cc;
}

PartitionCampaignResult
runPartitionCampaign(const PartitionCampaignConfig &config)
{
    validate(config);
    const std::size_t modes = config.modes.size();
    return runFleetCampaign<PartitionCampaignResult>(
        partitionCampaignTrials(config), config.seedsPerCell,
        config.intensities.size() * modes, config.threads,
        [&config](std::uint64_t index) {
            return partitionTrialConfig(config, index);
        },
        // Cells come out intensity-major, then mode.
        [&](PartitionCellStats &cell, std::size_t c) {
            cell.intensity = config.intensities[c / modes];
            cell.mode = config.modes[c % modes];
            cell.modeName = net::persistModeName(cell.mode);
        },
        [](const cluster::ClusterResult &r,
           const PartitionCellStats &cell) {
            return r.modeName + " intensity "
                   + std::to_string(cell.intensity);
        },
        partitionCellFields, partitionCampaignFields);
}

} // namespace lightpc::fault
