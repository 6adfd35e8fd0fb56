/**
 * @file
 * Power-cut fault-injection campaign driver.
 *
 * Sweeps seeded power-cut ticks across every persistence mode (SnG,
 * the three checkpoint baselines, and the SnG-OpLog KV fast path) on
 * both measured PSUs, runs
 * recovery after each cut, and asserts the durability invariant: the
 * machine resumes iff the mechanism's commit record beat the rails
 * (and untorn), otherwise it comes up cold — never a third outcome.
 * Emits BENCH_fault.json with per-phase cut-coverage histograms.
 *
 *   fault_campaign_main [--cuts N] [--seed S] [--threads N|-j N]
 *                       [--out FILE]
 *
 * --cuts is per mode and PSU; the default 100 yields 200 seeded cut
 * ticks per persistence mode. --threads 0 (the default) uses every
 * host thread; the results — digests included — are identical at any
 * thread count.
 */

#include <string>
#include <vector>

#include "bench_common.hh"
#include "campaign_io.hh"
#include "fault/campaign.hh"
#include "power/psu.hh"

using namespace lightpc;

int
main(int argc, char **argv)
{
    std::uint64_t cuts = 100;
    bench::CampaignCli cli(1, "BENCH_fault.json");
    cli.count("--cuts", cuts).parse(argc, argv);

    bench::banner("Fault campaign",
                  "seeded power cuts vs the durability invariant");
    bench::paperRef("LightPC survives AC loss at any instant: resume"
                    " iff the EP-cut committed, else cold boot");

    const power::PsuModel psus[] = {power::PsuModel::atx(),
                                    power::PsuModel::dellServer()};
    using Runner = fault::CampaignResult (*)(const fault::CampaignConfig &);
    const Runner runners[] = {
        fault::runSngCampaign,
        fault::runSysPcCampaign,
        fault::runSCheckPcCampaign,
        fault::runACheckPcCampaign,
        fault::runOpLogCampaign,
    };

    std::vector<fault::CampaignResult> results;
    for (const Runner run : runners) {
        for (const power::PsuModel &psu : psus) {
            fault::CampaignConfig config;
            config.cuts = cuts;
            config.seed = cli.seed;
            config.psu = psu;
            config.threads = cli.threads;
            results.push_back(run(config));
        }
    }

    bench::printRows(results, fault::campaignResultFields,
                     {"mode", "psu", "cuts", "resumes", "cold_boots",
                      "dropped_writes", "torn_writes", "violations"});

    std::cout << "\ncut coverage per phase window:\n";
    bench::printRows(results, fault::campaignResultFields,
                     {"mode", "psu", "phase_cuts"});
    for (const fault::CampaignResult &r : results) {
        for (const std::string &note : r.violationNotes)
            std::cout << "  VIOLATION " << note << "\n";
    }

    // The invariant matrix. Also require the sweep to have exercised
    // every reachable window: all three Stop phases for SnG and the
    // mid-dump window for each baseline.
    std::uint64_t violations = 0;
    for (const fault::CampaignResult &r : results) {
        violations += r.violations;
        bench::check(r.violations == 0,
                     r.mode + "/" + r.psu + ": zero invariant"
                     " violations over " + std::to_string(r.cuts)
                     + " cuts");
        bench::check(r.resumes + r.coldBoots == r.cuts,
                     r.mode + "/" + r.psu + ": every cut resolved to"
                     " resume or cold boot");
        if (r.mode == "SnG") {
            using fault::CutPhase;
            bench::check(r.phaseCount(CutPhase::ProcessStop) > 0
                             && r.phaseCount(CutPhase::DeviceStop) > 0
                             && r.phaseCount(CutPhase::EpCut) > 0,
                         r.mode + "/" + r.psu + ": cuts landed in all"
                         " three Stop phases");
        } else if (r.mode == "SnG-OpLog") {
            using fault::CutPhase;
            bench::check(r.phaseCount(CutPhase::MidDump) > 0
                             && r.phaseCount(CutPhase::CommitWindow)
                                    > 0,
                         r.mode + "/" + r.psu + ": cuts landed both"
                         " mid-append and inside a group commit's"
                         " tail store");
        } else {
            bench::check(
                r.phaseCount(fault::CutPhase::MidDump) > 0,
                r.mode + "/" + r.psu + ": cuts landed mid-dump");
        }
    }

    bench::JsonWriter json;
    json.put("bench", "fault_campaign")
        .put("cuts_per_mode_psu", cuts)
        .put("seed", cli.seed)
        .put("threads", cli.threads)
        .put("total_violations", violations)
        .objects("campaigns", results, fault::campaignResultFields);
    if (!json.save(cli.out))
        return 1;

    return bench::result();
}
