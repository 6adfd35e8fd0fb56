/**
 * @file
 * Media-error RAS campaign driver.
 *
 * Sweeps raw bit-error rate x media wear x machine-check policy,
 * with seeded trials per cell; every trial runs demand traffic with
 * the patrol scrubber interleaved, escalates uncorrectables into the
 * MCE handler, and finishes with an SnG stop/resume (a fraction of
 * trials also lose power mid-stop). Asserts the RAS invariant: zero
 * silent data corruption — every media fault resolves to a counted
 * correction, a retirement, or a contained machine check. Emits
 * BENCH_ras.json.
 *
 *   ras_campaign_main [--seeds N] [--ops N] [--seed S]
 *                     [--threads N|-j N] [--out FILE]
 *
 * --seeds is per (ber, wear, policy) cell; the default 32 yields
 * 4 x 2 x 2 x 32 = 512 seeded trials. --threads 0 (the default)
 * uses every host thread; results and digest are identical at any
 * thread count.
 */

#include <string>

#include "bench_common.hh"
#include "campaign_io.hh"
#include "fault/ras_campaign.hh"

using namespace lightpc;

int
main(int argc, char **argv)
{
    fault::RasCampaignConfig config;
    bench::CampaignCli cli(config.seed, "BENCH_ras.json");
    cli.count("--seeds", config.seedsPerCell)
        .count("--ops", config.opsPerTrial)
        .parse(argc, argv);
    config.seed = cli.seed;
    config.threads = cli.threads;

    bench::banner("RAS campaign",
                  "seeded media faults vs the zero-SDC invariant");
    bench::paperRef("LightPC Section V-A / VIII: ECC corrects, scrub"
                    " retires, the MCE contains or cold-boots —"
                    " never silent corruption");

    const fault::RasCampaignResult r = fault::runRasCampaign(config);

    bench::printRows(r.cells, fault::rasCellFields);

    std::cout << "\ncampaign totals:\n";
    bench::printFields(r, fault::rasCampaignFields);
    for (const std::string &note : r.violationNotes)
        std::cout << "  VIOLATION " << note << "\n";

    const std::uint64_t expected_trials = config.bers.size()
        * config.wearLevels.size() * 2 * config.seedsPerCell;
    bench::check(r.trials == expected_trials,
                 "every cell ran its seeded trials ("
                 + std::to_string(r.trials) + ")");
    // The checked-in artifact must come from a full-size run; CI
    // smoke runs (--seeds 2) are exempt from the floor.
    if (config.seedsPerCell >= 32)
        bench::check(r.trials >= 500,
                     "campaign ran >= 500 seeded trials ("
                     + std::to_string(r.trials) + ")");
    bench::check(r.sdcEvents == 0,
                 "zero silent-data-corruption events over "
                 + std::to_string(r.checkedReads)
                 + " checked reads");
    bench::check(r.violations == 0,
                 "zero durability-invariant violations");
    bench::check(r.correctedReads > 0 && r.symbolCorrections > 0,
                 "both ECC tiers exercised (XCC + RS erasure)");
    bench::check(r.mceContained > 0 && r.mceColdBoots > 0,
                 "both MCE policy arms exercised");
    bench::check(r.linesRetired > 0 && r.scrubRepairs > 0,
                 "scrubber repaired and retirement engaged");
    bench::check(r.containSurvivedSng > 0,
                 "a contained MCE (line retired) survived SnG"
                 " stop/resume");
    bench::check(r.cutTrials > 0,
                 "combined power-cut + media-fault trials ran");
    bench::check(r.resumes + r.coldBootResumes == r.trials,
                 "every trial resolved to resume or cold boot");

    bench::JsonWriter json;
    json.put("bench", "ras_campaign")
        .put("seed", config.seed)
        .put("threads", config.threads)
        .fields(r, fault::rasCampaignFields, "digest", "trials")
        .put("ops_per_trial", config.opsPerTrial)
        .fields(r, fault::rasCampaignFields, "sdc_events")
        .objects("cells", r.cells, fault::rasCellFields);
    if (!json.save(cli.out))
        return 1;

    return bench::result();
}
