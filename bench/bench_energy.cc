/**
 * @file
 * Energy-storage provisioning bench: how much stored energy must a
 * machine carry — ATX bulk cap + supercap + LiFePO4 UPS, with
 * per-machine aging spread — for each persistence mode to ride out
 * single cuts, three-cut storms, and brownout sieges?
 *
 * Sweeps fault::runEnergyCampaign over storage sizing x persistence
 * mode x outage intensity, prints the per-cell survival grid and the
 * headline minimum-provisioning table, and writes BENCH_energy.json.
 *
 *   bench_energy [--seeds N] [--seed S] [--aging CYCLES]
 *       [--out FILE] [--threads N|-j N]
 *
 * Anchors (exit nonzero on failure):
 *  - every grid trial ran, zero durability violations fleet-wide;
 *  - SnG *and* SnG+OpLog meet every intensity at a strictly smaller
 *    provisioned storage scale than each checkpointing baseline;
 *  - the storm rungs exercised the EnergyGuard: Stops were deferred
 *    on a weak plane and later admitted (and every admitted Stop
 *    landed its commit — that is folded into the violation count);
 *  - the brownout siege produced proactive-EP-cut-saved-the-machine
 *    trials (the in-trial counterfactual would have died).
 *
 * Thread invariance is checked by ctest and by CI's bench-freshness
 * job, which regenerates BENCH_energy.json at --threads 4.
 */

#include <string>
#include <vector>

#include "bench_common.hh"
#include "campaign_io.hh"
#include "fault/energy_campaign.hh"

using namespace lightpc;

namespace
{

/** A comma-separated list of positive scales; false on junk. */
bool
parseScales(const char *arg, std::vector<double> &scales)
{
    scales.clear();
    const std::string s(arg);
    std::size_t pos = 0;
    while (pos <= s.size()) {
        std::size_t next = s.find(',', pos);
        if (next == std::string::npos)
            next = s.size();
        double v = 0.0;
        if (!bench::parseReal(s.substr(pos, next - pos).c_str(), v)
            || v <= 0.0)
            return false;
        scales.push_back(v);
        pos = next + 1;
    }
    return true;
}

const fault::EnergyProvision *
provisionOf(const fault::EnergyCampaignResult &res,
            net::PersistMode mode, std::uint32_t intensity)
{
    for (const fault::EnergyProvision &p : res.provisioning)
        if (p.mode == mode && p.intensity == intensity)
            return &p;
    return nullptr;
}

} // namespace

int
main(int argc, char **argv)
{
    fault::EnergyCampaignConfig cfg;
    bench::CampaignCli cli(cfg.seed, "BENCH_energy.json");
    cli.count("--seeds", cfg.seedsPerCell)
        .real("--aging", "CYCLES", cfg.agingSpreadCycles,
              [](double v) { return v >= 0.0; })
        .option("--scales", "S1,S2,...",
                [&cfg](const char *text) {
                    return parseScales(text, cfg.sizingScales);
                })
        .parse(argc, argv);
    cfg.seed = cli.seed;
    cfg.threads = cli.threads;

    bench::banner("Energy provisioning",
                  "state-of-charge-aware persistence across the"
                  " storage-sizing sweep: single cuts, cut storms,"
                  " and brownout sieges");
    bench::paperRef("full system persistence needs only enough"
                    " stored energy to finish one Stop: capacitance"
                    " sized for the worst-case drain, not for ride-"
                    "through (Sections III-IV)");

    const std::uint64_t trials = fault::energyCampaignTrials(cfg);
    std::cout << "sweeping " << cfg.sizingScales.size()
              << " storage scales x " << cfg.intensities.size()
              << " intensities x " << cfg.modes.size() << " modes x "
              << cfg.seedsPerCell << " seeds = " << trials << " trials on "
              << cfg.threads << " thread(s)...\n";

    const fault::EnergyCampaignResult res =
        fault::runEnergyCampaign(cfg);
    std::cout << "\n";

    bench::printRows(res.cells, fault::energyCellFields);

    std::cout << "\nminimum provisioned storage per mode:\n";
    bench::printRows(res.provisioning, fault::energyProvisionFields);

    for (const std::string &note : res.violationNotes)
        std::cout << "  VIOLATION " << note << "\n";

    // --- anchors --------------------------------------------------

    bench::check(res.trials == trials,
                 "every grid trial ran (" + std::to_string(res.trials)
                     + ")");
    bench::check(res.violations == 0,
                 "zero durability violations fleet-wide");

    // The headline: Stop-and-Go survives every intensity rung at
    // strictly less provisioned storage than every checkpointing
    // baseline under the same outage schedules.
    for (const std::uint32_t intensity : cfg.intensities) {
        const std::string where =
            "storm=" + std::to_string(intensity);
        const fault::EnergyProvision *sng =
            provisionOf(res, net::PersistMode::SnG, intensity);
        const fault::EnergyProvision *oplog =
            provisionOf(res, net::PersistMode::OpLog, intensity);
        bench::check(sng && sng->met && oplog && oplog->met,
                     where + ": SnG and SnG-OpLog met the sweep");
        if (!sng || !sng->met || !oplog || !oplog->met)
            continue;
        for (const net::PersistMode mode : cfg.modes) {
            if (!net::isCheckpointBaseline(mode))
                continue;
            const fault::EnergyProvision *base =
                provisionOf(res, mode, intensity);
            const std::string name = net::persistModeName(mode);
            if (base && base->met) {
                bench::check(sng->scale < base->scale,
                             where + ": SnG provisions less storage"
                                 " than " + name);
                bench::check(oplog->scale < base->scale,
                             where + ": SnG-OpLog provisions less"
                                 " storage than " + name);
            } else {
                bench::check(true,
                             where + ": " + name + " never met the"
                                 " sweep (SnG did at scale "
                                 + std::to_string(sng->scale) + ")");
            }
        }
    }

    bench::check(res.stopsDeferred > 0,
                 "the guard deferred voluntary Stops on weak planes");
    bench::check(res.deferredStopsAdmitted > 0,
                 "deferred Stops were admitted once recharged");
    bench::check(res.proactiveStops > 0,
                 "low-charge warnings fired proactive EP-cuts");
    bench::check(res.proactiveSaves > 0,
                 "proactive EP-cuts saved machines the"
                 " counterfactual would have lost");

    // --- JSON -----------------------------------------------------

    bench::JsonWriter json;
    json.put("bench", "energy_provisioning")
        .put("seed", cfg.seed)
        .put("seeds_per_cell", cfg.seedsPerCell)
        .put("trials", res.trials)
        .put("aging_spread_cycles", cfg.agingSpreadCycles, "%.1f")
        .put("threads", cfg.threads)
        .fields(res, fault::energyCampaignFields, "stops_deferred",
                "violations")
        .objects("provisioning", res.provisioning,
                 fault::energyProvisionFields)
        .objects("cells", res.cells, fault::energyCellFields)
        .fields(res, fault::energyCampaignFields, "digest");
    if (!json.save(cli.out))
        return 1;

    return bench::result();
}
