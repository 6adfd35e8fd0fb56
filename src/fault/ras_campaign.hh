/**
 * @file
 * Media-error RAS campaigns.
 *
 * The power-cut campaigns (campaign.hh) attack the durability
 * invariant from the outside — AC loss at every instant. This
 * campaign attacks it from the inside: the media itself corrupts
 * data, at raw bit-error rates and wear levels swept per cell, and
 * the RAS pipeline must turn every corruption into one of exactly
 * three outcomes — a counted correction, a counted retirement, or a
 * contained machine check. The invariant is *zero silent data
 * corruption*: every decode runs the real codecs against ground
 * truth, and any mismatch that was not flagged is an sdcEvent.
 *
 * Each cell additionally exercises the MCE escalation arms: under
 * Contain the owning task is killed, the faulty line retired, and
 * the system must survive a subsequent SnG stop/resume; under
 * ResetColdBoot the machine check takes the OC-PMEM reset path. A
 * configurable fraction of trials also arms a power cut during the
 * SnG stop, composing the media-fault and power-fault models in one
 * trial.
 */

#ifndef LIGHTPC_FAULT_RAS_CAMPAIGN_HH
#define LIGHTPC_FAULT_RAS_CAMPAIGN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "pecos/mce.hh"
#include "psm/psm.hh"
#include "sim/fields.hh"

namespace lightpc::fault
{

/** The RAS sweep's knobs. */
struct RasCampaignConfig
{
    /** Transient raw symbol-error rates swept. */
    std::vector<double> bers{0.0, 1e-5, 1e-4, 1e-3};

    /** Pre-conditioning wear levels swept (fraction of endurance). */
    std::vector<double> wearLevels{0.0, 0.95};

    /** Seeded trials per (ber, wear, policy) cell. */
    std::uint64_t seedsPerCell = 32;

    std::uint64_t seed = 1;

    /** Demand accesses per trial. */
    std::uint64_t opsPerTrial = 1200;

    /** Fraction of demand accesses that are writes. */
    double writeFraction = 0.3;

    /** Patrol-scrub step every this many demand accesses. */
    std::uint64_t scrubEveryOps = 64;

    /** Scrub budget per step (lines). */
    std::uint64_t scrubLinesPerStep = 32;

    /** Every Nth trial also arms a power cut during the SnG stop. */
    std::uint64_t powerCutEvery = 4;

    /** Stuck-at creation rate at full wear (see MediaFaultParams). */
    double wearStuckRate = 0.02;

    /** Retirement spare pool (physical line slots). */
    std::uint64_t spareLines = 2048;

    /** Hot working set: lines the demand traffic hammers. */
    std::uint64_t regionLines = 4096;

    /** User processes registered as owners of the working set. */
    std::uint32_t victims = 8;

    /**
     * Host threads fanning the trials out (0 = hardware
     * concurrency). Trial randomness is a pure function of the
     * flattened trial index, and per-trial partials merge in
     * canonical index order, so the sweep aggregate — including its
     * digest — is bit-identical at every thread count.
     */
    unsigned threads = 1;
};

/** Aggregates of one (ber, wear, policy) cell. */
struct RasCell
{
    double ber = 0.0;
    double wear = 0.0;
    std::string policy;

    std::uint64_t trials = 0;
    std::uint64_t checkedReads = 0;
    std::uint64_t corrected = 0;
    std::uint64_t symbolCorrections = 0;
    std::uint64_t parityRewrites = 0;
    std::uint64_t uncorrectable = 0;
    std::uint64_t retired = 0;
    std::uint64_t sdc = 0;
    std::uint64_t mceContained = 0;
    std::uint64_t mceColdBoots = 0;
};

/**
 * Fold, digest and JSON rows of RasCell (sim/fields.hh). Media
 * counters also fold from the PSM's statistics, machine-check counters
 * from the MCE handler's.
 */
inline constexpr auto rasCellFields = [] {
    using C = RasCell;
    using P = psm::PsmStats;
    using M = pecos::MceStats;
    return std::make_tuple(
        sim::key("ber", &C::ber).fixed("%g"),
        sim::key("wear", &C::wear).fixed("%g"),
        sim::key("policy", &C::policy),
        sim::sum("trials", &C::trials, 0),
        sim::sum("checked_reads", &C::checkedReads, 1, &P::rasCheckedReads),
        sim::sum("xcc_corrections", &C::corrected, 2, &P::correctedReads),
        sim::sum("rs_corrections", &C::symbolCorrections, 3,
                 &P::symbolCorrections),
        sim::sum("parity_rewrites", &C::parityRewrites, 4, &P::parityRewrites),
        sim::sum("uncorrectable", &C::uncorrectable, 5,
                 &P::uncorrectableReads),
        sim::sum("retired", &C::retired, 6, &P::retiredLines),
        sim::sum("mce_contained", &C::mceContained, 8, &M::contained),
        sim::sum("mce_cold_boots", &C::mceColdBoots, 9, &M::coldBoots),
        sim::sum("sdc", &C::sdc, 7).source(&P::sdcEvents));
}();

/** Aggregated outcome of the whole sweep. */
struct RasCampaignResult
{
    std::uint64_t trials = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;

    /** The invariant: must be zero. */
    std::uint64_t sdcEvents = 0;

    std::uint64_t checkedReads = 0;
    std::uint64_t correctedReads = 0;
    std::uint64_t symbolCorrections = 0;
    std::uint64_t parityRewrites = 0;
    std::uint64_t uncorrectableReads = 0;

    std::uint64_t mceContained = 0;
    std::uint64_t mceColdBoots = 0;
    std::uint64_t tasksKilled = 0;
    std::uint64_t kernelEscalations = 0;

    std::uint64_t linesRetired = 0;
    std::uint64_t spareExhausted = 0;

    std::uint64_t scrubbedLines = 0;
    std::uint64_t scrubRepairs = 0;
    std::uint64_t scrubDeferrals = 0;

    /** Contain-arm trials that took >=1 contained MCE with the
     *  faulty line retired and then resumed cleanly from SnG. */
    std::uint64_t containSurvivedSng = 0;

    /** SnG outcomes across all trials. */
    std::uint64_t resumes = 0;
    std::uint64_t coldBootResumes = 0;

    /** Combined power-cut + media-fault trials. */
    std::uint64_t cutTrials = 0;
    std::uint64_t droppedWrites = 0;
    std::uint64_t tornWrites = 0;

    /** Invariant violations (must be zero). */
    std::uint64_t violations = 0;
    std::vector<std::string> violationNotes;

    std::vector<RasCell> cells;

    /**
     * FNV digest over the counters above and every cell, computed
     * after the canonical-order reduction (determinism anchor:
     * equal at every thread count).
     */
    std::uint64_t digest = 0;
};

/**
 * Fold, digest and JSON rows of RasCampaignResult's counters; the
 * cells digest after them, each by rasCellFields.
 */
inline constexpr auto rasCampaignFields = [] {
    using C = RasCampaignResult;
    using P = psm::PsmStats;
    using M = pecos::MceStats;
    return std::make_tuple(
        sim::derived("digest", &C::digest).text("0x%016llx"),
        sim::sum("trials", &C::trials, 0),
        sim::sum(nullptr, &C::reads, 1),
        sim::sum(nullptr, &C::writes, 2),
        sim::sum("sdc_events", &C::sdcEvents, 3, &P::sdcEvents),
        sim::sum("violations", &C::violations, 24),
        sim::sum("checked_reads", &C::checkedReads, 4, &P::rasCheckedReads),
        sim::sum("xcc_corrections", &C::correctedReads, 5, &P::correctedReads),
        sim::sum("rs_corrections", &C::symbolCorrections, 6,
                 &P::symbolCorrections),
        sim::sum("parity_rewrites", &C::parityRewrites, 7, &P::parityRewrites),
        sim::sum("uncorrectable_reads", &C::uncorrectableReads, 8,
                 &P::uncorrectableReads),
        sim::sum("mce_contained", &C::mceContained, 9, &M::contained),
        sim::sum("mce_cold_boots", &C::mceColdBoots, 10, &M::coldBoots),
        sim::sum("tasks_killed", &C::tasksKilled, 11, &M::tasksKilled),
        sim::sum("kernel_escalations", &C::kernelEscalations, 12,
                 &M::kernelEscalations),
        sim::sum("lines_retired", &C::linesRetired, 13, &P::retiredLines),
        sim::sum(nullptr, &C::spareExhausted, 14, &P::spareExhausted),
        sim::sum("scrubbed_lines", &C::scrubbedLines, 15, &P::scrubbedLines),
        sim::sum("scrub_repairs", &C::scrubRepairs, 16, &P::scrubRepairs),
        sim::sum("scrub_deferrals", &C::scrubDeferrals, 17,
                 &P::scrubDeferrals),
        sim::sum("sng_resumes", &C::resumes, 19),
        sim::sum("sng_cold_boots", &C::coldBootResumes, 20),
        sim::sum("power_cut_trials", &C::cutTrials, 21),
        sim::sum("dropped_writes", &C::droppedWrites, 22),
        sim::sum("torn_writes", &C::tornWrites, 23),
        sim::sum("contain_survived_sng", &C::containSurvivedSng, 18),
        sim::notes(nullptr, &C::violationNotes));
}();

/** Run the full (ber x wear x policy x seed) sweep. */
RasCampaignResult runRasCampaign(const RasCampaignConfig &config);

} // namespace lightpc::fault

#endif // LIGHTPC_FAULT_RAS_CAMPAIGN_HH
