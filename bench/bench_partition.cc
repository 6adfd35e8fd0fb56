/**
 * @file
 * Fleet-level robustness of the replicated KV cluster under an
 * adversarial network nemesis: lossy links, duplication, reordering
 * jitter, link flaps, and rack-granular partitions — optionally
 * overlapped with power-cut storms — with a client-history
 * linearizability audit over every trial.
 *
 * runPartitionCampaign() sweeps nemesis intensity x all five
 * persistence modes, seedsPerCell seeded trials per cell. The stream
 * column excludes the mode, so every cell column replays the same
 * nemesis + storm schedule against each mode: the availability
 * comparison is paired.
 *
 *   bench_partition [--seeds N] [--seed S] [--out FILE]
 *       [--runfor-ms MS] [--arrivals PER_SEC] [--clients N]
 *       [--threads N|-j N]
 *
 * Anchors (exit nonzero on failure):
 *  - the full grid ran (intensities x modes x seeds trials);
 *  - the nemesis actually engaged: messages dropped, duplicated,
 *    reordered, partition cuts, and flap cuts all nonzero;
 *  - the hardening engaged: retransmissions and pre-vote rounds ran;
 *  - zero lost acked PUTs, split-brain epochs, divergent commits;
 *  - zero linearizability violations (lost updates, order
 *    inversions, phantom reads, value divergences) across every
 *    audited history;
 *  - in every intensity cell, SnG *and* SnG-OpLog mean write
 *    availability strictly exceeds each checkpointing baseline's.
 *
 * Thread invariance is checked by ctest and by CI's bench-freshness
 * job, which regenerates BENCH_partition.json at --threads 4.
 */

#include <map>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "campaign_io.hh"
#include "fault/partition_campaign.hh"

using namespace lightpc;

int
main(int argc, char **argv)
{
    fault::PartitionCampaignConfig cfg;
    std::uint64_t runforMs = 2000;
    bench::CampaignCli cli(cfg.seed, "BENCH_partition.json");
    cli.count("--seeds", cfg.seedsPerCell)
        .count("--runfor-ms", runforMs)
        .real("--arrivals", "PER_SEC", cfg.arrivalsPerSec,
              [](double v) { return v > 0.0; })
        .count("--clients", cfg.clients)
        .parse(argc, argv);
    cfg.seed = cli.seed;
    cfg.threads = cli.threads;
    cfg.runFor = runforMs * tickMs;

    bench::banner("Partition nemesis",
                  "replicated KV fleet under lossy links, reordering,"
                  " link flaps, and rack partitions, with a"
                  " linearizability audit over every client history");
    bench::paperRef("full system persistence must survive the network"
                    " too: a deposed leader that is partitioned AND"
                    " power-cycled rejoins without losing one acked"
                    " write (Sections V-VI, hardened protocol)");

    const std::uint64_t trials = fault::partitionCampaignTrials(cfg);
    std::cout << "sweeping " << cfg.intensities.size()
              << " nemesis intensities x " << cfg.modes.size()
              << " modes x " << cfg.seedsPerCell << " seeds = " << trials
              << " trials on " << cfg.threads << " thread(s)...\n";

    const fault::PartitionCampaignResult res =
        fault::runPartitionCampaign(cfg);
    std::cout << "\n";

    bench::printRows(res.cells, fault::partitionCellFields,
                     {"intensity", "mode", "write_avail_mean",
                      "write_avail_min", "worst_write_gap_ms",
                      "msgs_dropped", "msgs_duplicated",
                      "msgs_reordered", "partition_cuts", "flap_cuts",
                      "retransmits", "stale_reads", "violations"});

    for (const std::string &note : res.violationNotes)
        std::cout << "  VIOLATION " << note << "\n";

    // --- anchors --------------------------------------------------

    bench::check(res.trials == trials
                     && res.trials
                            >= cfg.intensities.size()
                                   * cfg.modes.size() * cfg.seedsPerCell,
                 "every grid trial ran ("
                     + std::to_string(res.trials) + ")");

    // Campaign-wide nemesis and audit totals: every cell folded.
    fault::PartitionCellStats total;
    for (const fault::PartitionCellStats &c : res.cells)
        sim::fold(total, c, fault::partitionCellFields);
    bench::check(total.msgsDropped > 0 && total.msgsDuplicated > 0
                     && total.msgsReordered > 0,
                 "nemesis engaged: messages dropped ("
                     + std::to_string(total.msgsDropped)
                     + "), duplicated ("
                     + std::to_string(total.msgsDuplicated)
                     + "), reordered ("
                     + std::to_string(total.msgsReordered) + ")");
    bench::check(total.partitionCuts > 0 && total.flapCuts > 0,
                 "partitions (" + std::to_string(total.partitionCuts)
                     + " cuts) and flaps ("
                     + std::to_string(total.flapCuts)
                     + " cuts) both fired");
    bench::check(total.retransmits > 0,
                 "retransmission path engaged ("
                     + std::to_string(total.retransmits)
                     + " re-sends)");
    bench::check(total.preVoteRounds > 0,
                 "pre-vote probes ran ("
                     + std::to_string(total.preVoteRounds)
                     + " rounds, "
                     + std::to_string(total.electionsSuppressed)
                     + " elections suppressed)");
    bench::check(total.auditedWrites > 0 && total.auditedReads > 0,
                 "linearizability audit saw traffic ("
                     + std::to_string(total.auditedWrites)
                     + " writes, "
                     + std::to_string(total.auditedReads)
                     + " reads)");

    bench::check(res.lostAckedPuts == 0,
                 "zero acked-then-lost PUTs fleet-wide");
    bench::check(res.splitBrainEpochs == 0,
                 "zero split-brain epochs (duplicate-tolerant ack"
                 " ledger)");
    bench::check(res.divergentCommits == 0,
                 "zero divergent commits (one seq, one content)");
    bench::check(res.lostUpdates == 0 && res.orderInversions == 0
                     && res.phantomReads == 0
                     && res.valueDivergences == 0,
                 "zero linearizability violations across every"
                 " audited history");
    bench::check(res.violations == 0,
                 "zero invariant violations across the campaign");

    // Per-intensity strict separation: SnG and SnG-OpLog above every
    // checkpointing baseline under the same nemesis schedule.
    std::map<std::uint32_t,
             std::vector<const fault::PartitionCellStats *>>
        columns;
    for (const fault::PartitionCellStats &c : res.cells)
        columns[c.intensity].push_back(&c);
    for (const auto &[intensity, cells] : columns) {
        const fault::PartitionCellStats *sng = nullptr;
        const fault::PartitionCellStats *oplog = nullptr;
        for (const fault::PartitionCellStats *c : cells) {
            if (c->mode == net::PersistMode::SnG)
                sng = c;
            if (c->mode == net::PersistMode::OpLog)
                oplog = c;
        }
        const std::string where =
            "nemesis=" + std::to_string(intensity);
        bench::check(sng && oplog, where + ": SnG and OpLog cells ran");
        if (!sng || !oplog)
            continue;
        for (const fault::PartitionCellStats *c : cells) {
            if (!net::isCheckpointBaseline(c->mode))
                continue;
            bench::check(sng->writeAvailMean > c->writeAvailMean,
                         where + ": SnG write availability above "
                             + c->modeName + "'s");
            bench::check(oplog->writeAvailMean > c->writeAvailMean,
                         where + ": SnG-OpLog write availability"
                                 " above " + c->modeName + "'s");
        }
    }

    // --- JSON -----------------------------------------------------

    bench::JsonWriter json;
    json.put("bench", "partition_nemesis")
        .put("seed", cfg.seed)
        .put("seeds_per_cell", cfg.seedsPerCell)
        .put("trials", res.trials)
        .put("runfor_ms", runforMs)
        .put("arrivals_per_sec", cfg.arrivalsPerSec, "%.1f")
        .put("clients", cfg.clients)
        .put("threads", cfg.threads)
        .pick(total, fault::partitionCellFields,
              {"msgs_dropped", "msgs_duplicated", "msgs_reordered",
               "partition_cuts", "flap_cuts", "retransmits",
               "sync_retries", "pre_vote_rounds",
               "elections_suppressed", "redirect_fallbacks",
               "duplicate_ack_audits", "audited_writes",
               "audited_reads", "stale_reads"})
        .fields(res, fault::partitionCampaignFields, "lost_acked_puts",
                "violations")
        .objects("cells", res.cells, fault::partitionCellFields)
        .fields(res, fault::partitionCampaignFields, "digest");
    if (!json.save(cli.out))
        return 1;

    return bench::result();
}
