/**
 * @file
 * Fleet-level availability of a replicated KV cluster under
 * rack-correlated cut storms (the paper's full system persistence
 * argument, compounded across machines).
 *
 * runClusterCampaign() sweeps replica count x storm intensity x all
 * five persistence modes, seedsPerCell seeded trials per cell — each
 * trial a full cluster of LightPC machines behind a load balancer,
 * with primary/backup replication, epoch-numbered elections, and a
 * client fleet measuring availability from the outside. Every cell
 * column (same replicas, intensity, seed index) replays the same
 * storm schedule against each mode, so the comparison is paired.
 *
 *   bench_cluster [--seeds N] [--seed S] [--out FILE]
 *       [--runfor-ms MS] [--arrivals PER_SEC] [--clients N]
 *       [--aging SPREAD] [--threads N|-j N]
 *
 * --aging derates each replica's hold-up by a seeded per-machine
 * storage-cell wear draw in [0, SPREAD] of rated cycle life (0 =
 * the legacy uniform fleet, digest-identical to older builds).
 *
 * Anchors (exit nonzero on failure):
 *  - >= 30 cells x seedsPerCell trials actually ran;
 *  - zero lost acked PUTs, zero split-brain epochs, zero divergent
 *    commits, zero invariant violations across the whole campaign;
 *  - in every (replicas, intensity) cell, SnG *and* SnG-OpLog mean
 *    write availability strictly exceeds each checkpointing
 *    baseline's (SysPC, S-CheckPC, A-CheckPC);
 *  - Stop-and-Go rejoiners catch up by delta sync while cold-booting
 *    baselines pay full resyncs.
 *
 * Determinism is checked by ctest and by CI's bench-freshness job,
 * which regenerates BENCH_cluster.json at --threads 4.
 */

#include <map>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "campaign_io.hh"
#include "fault/cluster_campaign.hh"

using namespace lightpc;

int
main(int argc, char **argv)
{
    fault::ClusterCampaignConfig cfg;
    std::uint64_t runforMs = 2000;
    bench::CampaignCli cli(cfg.seed, "BENCH_cluster.json");
    cli.count("--seeds", cfg.seedsPerCell)
        .count("--runfor-ms", runforMs)
        .real("--arrivals", "PER_SEC", cfg.arrivalsPerSec,
              [](double v) { return v > 0.0; })
        .count("--clients", cfg.clients)
        .real("--aging", "SPREAD", cfg.agingSpread,
              [](double v) { return v >= 0.0 && v <= 1.0; })
        .parse(argc, argv);
    cfg.seed = cli.seed;
    cfg.threads = cli.threads;
    cfg.runFor = runforMs * tickMs;

    bench::banner("Cluster availability",
                  "replicated KV fleet under rack-correlated cut"
                  " storms: failover, catch-up, and write/read"
                  " availability");
    bench::paperRef("full system persistence compounds at fleet"
                    " level: a Stop-and-Go replica rejoins by delta"
                    " sync in ~100 ms while checkpointing baselines"
                    " cold-boot and pay a full state resync"
                    " (Sections V-VI)");

    const std::uint64_t trials = fault::clusterCampaignTrials(cfg);
    std::cout << "sweeping " << cfg.replicaCounts.size()
              << " replica counts x " << cfg.intensities.size()
              << " storm intensities x " << cfg.modes.size()
              << " modes x " << cfg.seedsPerCell << " seeds = " << trials
              << " trials on " << cfg.threads << " thread(s)...\n";

    const fault::ClusterCampaignResult res =
        fault::runClusterCampaign(cfg);
    std::cout << "\n";

    bench::printRows(res.cells, fault::clusterCellFields,
                     {"replicas", "intensity", "mode",
                      "write_avail_mean", "write_avail_min",
                      "read_avail_mean", "worst_write_gap_ms",
                      "sync_deltas", "sync_fulls", "cold_boots",
                      "lost_acked_puts", "split_brain_epochs"});

    for (const std::string &note : res.violationNotes)
        std::cout << "  VIOLATION " << note << "\n";

    // --- anchors --------------------------------------------------

    bench::check(res.trials == trials
                     && res.trials >= 30 * cfg.seedsPerCell,
                 "every grid trial ran ("
                     + std::to_string(res.trials) + ")");
    bench::check(res.lostAckedPuts == 0,
                 "zero acked-then-lost PUTs fleet-wide");
    bench::check(res.splitBrainEpochs == 0,
                 "zero split-brain epochs (no two leaders acked one"
                 " epoch)");
    bench::check(res.divergentCommits == 0,
                 "zero divergent commits (one seq, one content)");
    bench::check(res.violations == 0,
                 "zero invariant violations across the campaign");

    // Per-cell strict separation: SnG and SnG-OpLog above every
    // checkpointing baseline under the same replicas/intensity/seeds.
    std::map<std::pair<std::uint32_t, std::uint32_t>,
             std::vector<const fault::ClusterCellStats *>>
        columns;
    for (const fault::ClusterCellStats &c : res.cells)
        columns[{c.replicas, c.intensity}].push_back(&c);
    std::uint64_t sngDeltas = 0, baseFulls = 0, baseCold = 0;
    for (const auto &[key, cells] : columns) {
        const fault::ClusterCellStats *sng = nullptr, *oplog = nullptr;
        for (const fault::ClusterCellStats *c : cells) {
            if (c->mode == net::PersistMode::SnG)
                sng = c;
            if (c->mode == net::PersistMode::OpLog)
                oplog = c;
        }
        const std::string where = "replicas=" + std::to_string(key.first)
                                  + " storm=" + std::to_string(key.second);
        bench::check(sng && oplog, where + ": SnG and OpLog cells ran");
        if (!sng || !oplog)
            continue;
        sngDeltas += sng->syncDeltas + oplog->syncDeltas;
        for (const fault::ClusterCellStats *c : cells) {
            if (!net::isCheckpointBaseline(c->mode))
                continue;
            baseFulls += c->syncFulls;
            baseCold += c->coldBoots;
            bench::check(sng->writeAvailMean > c->writeAvailMean,
                         where + ": SnG write availability above "
                             + c->modeName + "'s");
            bench::check(oplog->writeAvailMean > c->writeAvailMean,
                         where + ": SnG-OpLog write availability"
                                 " above " + c->modeName + "'s");
            bench::check(sng->worstWriteGap < c->worstWriteGap,
                         where + ": SnG worst write gap below "
                             + c->modeName + "'s");
        }
        bench::check(sng->coldBoots == 0 && oplog->coldBoots == 0,
                     where + ": SnG/OpLog rode every storm on"
                             " hold-up (no cold boots)");
        bench::check(sng->readAvailMean >= sng->writeAvailMean,
                     where + ": reads no less available than writes"
                             " (read-only degradation)");
    }
    bench::check(sngDeltas > 0,
                 "Stop-and-Go rejoiners caught up by delta sync");
    bench::check(baseFulls > 0,
                 "cold-booting baselines paid full resyncs");
    bench::check(baseCold > 0,
                 "baseline storms actually forced cold boots");

    // --- JSON -----------------------------------------------------

    bench::JsonWriter json;
    json.put("bench", "cluster_availability")
        .put("seed", cfg.seed)
        .put("seeds_per_cell", cfg.seedsPerCell)
        .put("trials", res.trials)
        .put("runfor_ms", runforMs)
        .put("arrivals_per_sec", cfg.arrivalsPerSec, "%.1f")
        .put("clients", cfg.clients)
        .put("aging_spread", cfg.agingSpread, "%.3f")
        .put("threads", cfg.threads)
        .fields(res, fault::clusterCampaignFields, "lost_acked_puts",
                "violations")
        .objects("cells", res.cells, fault::clusterCellFields)
        .fields(res, fault::clusterCampaignFields, "digest");
    if (!json.save(cli.out))
        return 1;

    return bench::result();
}
