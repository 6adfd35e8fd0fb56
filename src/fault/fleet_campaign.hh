/**
 * @file
 * The campaign body the cluster and partition sweeps share.
 *
 * Both sweeps run one cluster::runCluster per trial and fold trial i
 * into cell i / seedsPerCell. They differ only in how a trial index
 * maps to a ClusterConfig, in the keys of a cell, and in their field
 * tables; everything else lives here once.
 */

#ifndef LIGHTPC_FAULT_FLEET_CAMPAIGN_HH
#define LIGHTPC_FAULT_FLEET_CAMPAIGN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster.hh"
#include "sim/fields.hh"
#include "sim/logging.hh"
#include "sim/parallel.hh"

namespace lightpc::fault
{

/**
 * Reject a degenerate sweep shape, naming campaign @p what. The
 * stream-column packing gives the seed index 32 bits and the
 * intensity index at most @p maxIntensities values; overflow would
 * alias storm and arrival streams across cells and void the paired
 * comparison.
 */
template <class Config>
void
validateFleetSweep(const char *what, const Config &config,
                   std::size_t maxIntensities)
{
    if (config.seedsPerCell == 0)
        fatal(what, ": seedsPerCell must be nonzero");
    if (config.intensities.empty())
        fatal(what, ": no intensities to sweep");
    if (config.modes.empty())
        fatal(what, ": no persistence modes to sweep");
    for (const std::uint32_t intensity : config.intensities)
        if (intensity < 1 || intensity > 3)
            fatal(what, ": intensity ", intensity,
                  " is not on the 1..3 ladder");
    if (config.seedsPerCell > (std::uint64_t(1) << 32))
        fatal(what, ": seedsPerCell ", config.seedsPerCell,
              " overflows the 32-bit seed field of the stream column");
    if (config.intensities.size() > maxIntensities)
        fatal(what, ": ", config.intensities.size(),
              " intensities overflow the stream column");
    if (config.runFor == 0)
        fatal(what, ": runFor must be nonzero");
    if (config.clients == 0)
        fatal(what, ": zero clients");
    if (config.arrivalsPerSec <= 0.0)
        fatal(what, ": arrival rate must be positive");
}

/** Cap on the tagged violation notes a fleet campaign keeps. */
inline constexpr std::size_t fleetNoteCap = 64;

/**
 * Run @p trials cluster trials on @p threads workers and fold them.
 *
 *  - @p trialConfig(i) is the ClusterConfig of trial i;
 *  - @p keyCell(cell, c) stamps the keys of cell c;
 *  - @p label(run, cell) names a trial in its violation notes.
 *
 * Each cell folds its runs through @p cellFields, the campaign-wide
 * totals through @p totalFields, and the availability means are then
 * divided by the cell's trial count. The digest mixes the trial
 * count, every run's own digest, and every cell's digested rows, all
 * in canonical order, so it is identical at any thread count.
 */
template <class Result, class TrialConfig, class KeyCell, class Label,
          class CellTable, class TotalTable>
Result
runFleetCampaign(std::uint64_t trials, std::uint64_t seedsPerCell,
                 std::size_t cellCount, unsigned threads,
                 TrialConfig &&trialConfig, KeyCell &&keyCell,
                 Label &&label, const CellTable &cellFields,
                 const TotalTable &totalFields)
{
    sim::ParallelExecutor pool(threads);
    const std::vector<cluster::ClusterResult> runs =
        pool.map<cluster::ClusterResult>(
            trials, [&trialConfig](std::uint64_t index) {
                return cluster::runCluster(trialConfig(index));
            });

    Result result;
    result.threads = threads;
    result.trials = trials;
    result.cells.resize(cellCount);
    for (std::size_t c = 0; c < cellCount; ++c)
        keyCell(result.cells[c], c);

    for (std::uint64_t i = 0; i < trials; ++i) {
        const cluster::ClusterResult &r = runs[i];
        auto &cell = result.cells[i / seedsPerCell];
        ++cell.trials;
        sim::foldFrom(cell, r, cellFields);
        sim::foldFrom(result, r, totalFields);
        for (const std::string &note : r.violations) {
            if (result.violationNotes.size() >= fleetNoteCap)
                break;
            result.violationNotes.push_back(
                "trial " + std::to_string(i) + " [" + label(r, cell)
                + "]: " + note);
        }
    }

    for (auto &cell : result.cells) {
        cell.writeAvailMean /= double(cell.trials);
        cell.readAvailMean /= double(cell.trials);
    }

    sim::Fnv64 fnv;
    fnv.mix(result.trials);
    for (const cluster::ClusterResult &r : runs)
        fnv.mix(r.digest);
    for (const auto &cell : result.cells)
        sim::digest(fnv, cell, cellFields);
    result.digest = fnv.h;
    return result;
}

} // namespace lightpc::fault

#endif // LIGHTPC_FAULT_FLEET_CAMPAIGN_HH
