/**
 * @file
 * The benchmark's four workloads.
 *
 * Each workload is prepared once from the seed (its set-up: every
 * input the trials need is generated and validated) and then run any
 * number of times; every run of one prepared workload must reproduce
 * the same digest and simulated results.
 *
 *   fleet_nemesis  fault::runPartitionCampaign, 3 intensities x 5
 *                  modes x 7 seeds, on every host thread
 *   kv_service     net::runService for each of 5 modes (the suite at
 *                  1 thread), update-heavy mix, power cuts
 *   machine_sng    17 Table II workloads x {LightPC, LegacyPC} via
 *                  platform::System::run, each with Stop and Go
 *   ras_media      fault::runRasCampaign, 1 thread
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "fault/partition_campaign.hh"
#include "trace.hh"

namespace perfbench
{

/** What one run of a workload produced. */
struct Outcome
{
    std::uint64_t trials = 0;
    /** Trials that failed an invariant check (never above trials). */
    std::uint64_t failedTrials = 0;
    std::uint64_t digest = 0;
    /** Simulated headline results this workload owns (exact). */
    std::map<std::string, double> sims;
    /** Per-layer counts taken from the public result structs. */
    std::map<std::string, double> layers;
    /** Why trials failed (first few). */
    std::vector<std::string> notes;
};

/** A prepared workload: run it, optionally recording spans. */
using Runner = std::function<Outcome(Tracer *tracer, std::uint32_t track)>;

struct WorkloadDef
{
    std::string name;
    Runner (*prepare)(std::uint64_t seed);
};

/** The four workloads in canonical order. */
const std::vector<WorkloadDef> &workloads();

/** nullptr when @p name is not a workload. */
const WorkloadDef *findWorkload(const std::string &name);

/** The fleet_nemesis grid, which the traced run replays trial by trial. */
lightpc::fault::PartitionCampaignConfig fleetConfig(std::uint64_t seed);

/** Failed trials implied by a campaign's violation notes. */
std::uint64_t failedFromNotes(const std::vector<std::string> &notes,
                              std::uint64_t violations,
                              std::uint64_t trials);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
