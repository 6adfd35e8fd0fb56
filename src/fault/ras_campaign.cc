#include "fault/ras_campaign.hh"

#include <algorithm>
#include <sstream>

#include "fault/fault_injector.hh"
#include "kernel/kernel.hh"
#include "mem/backing_store.hh"
#include "pecos/mce.hh"
#include "pecos/sng.hh"
#include "psm/scrub.hh"
#include "sim/parallel.hh"
#include "sim/rng.hh"

namespace lightpc::fault
{

namespace
{

/** Small-geometry PSM so trials stay fast: 2 DIMMs x 4 groups x
 *  16 MB = 128 MB OC-PMEM (still clears the 16 MB reserved region
 *  SnG's control blocks live in). */
psm::PsmParams
trialPsmParams(const RasCampaignConfig &config, double ber,
               psm::McePolicy policy, std::uint64_t fault_seed,
               bool rs_fallback)
{
    psm::PsmParams pp;
    pp.symbolEccFallback = rs_fallback;
    pp.dimms = 2;
    pp.dimm.device.capacityBytes = 16 << 20;
    pp.dimm.device.wearRegionBytes = 64 << 10;
    pp.dimm.device.faults.enabled = true;
    pp.dimm.device.faults.transientBer = ber;
    pp.dimm.device.faults.wearStuckRate = config.wearStuckRate;
    pp.dimm.device.faults.seed = fault_seed;
    pp.spareLines = config.spareLines;
    pp.mcePolicy = policy;
    return pp;
}

/** Small kernel population: enough structure for SnG, fast to build. */
kernel::KernelParams
trialKernelParams()
{
    kernel::KernelParams kp;
    kp.cores = 4;
    kp.userProcesses = 16;
    kp.kernelThreads = 8;
    return kp;
}

/** One trial's partial: the campaign counters it contributed plus
 *  its share of one sweep cell, tagged with the cell's index so the
 *  canonical-order fold can reassemble the cell list. */
struct RasTrialPartial
{
    std::uint64_t cellIdx = 0;
    RasCampaignResult agg;
    RasCell cell;
};

} // namespace

RasCampaignResult
runRasCampaign(const RasCampaignConfig &config)
{
    // One dry SnG stop on the trial geometry for the power-cut
    // window (construction is deterministic, so every trial's Stop
    // timeline is close to this one; the sweep jitter covers the
    // spread from mid-trial kills).
    Tick dry_stop_ticks = 0;
    {
        kernel::Kernel kern(trialKernelParams());
        psm::Psm psm(trialPsmParams(config, 0.0,
                                    psm::McePolicy::ResetColdBoot, 1,
                                    false));
        mem::BackingStore store;
        pecos::Sng sng(kern, psm, store, {});
        dry_stop_ticks = sng.stop(0).totalTicks();
    }

    const psm::McePolicy policies[] = {psm::McePolicy::Contain,
                                       psm::McePolicy::ResetColdBoot};

    // Flatten the (ber x wear x policy x seed) nest into one trial
    // index so the pool can fan the whole sweep out: cell-major in
    // the sequential nest's order, seeds innermost.
    const std::uint64_t n_cells = config.bers.size()
        * config.wearLevels.size() * std::size(policies);
    const std::uint64_t total = n_cells * config.seedsPerCell;
    const std::uint64_t sweep_seed =
        config.seed ^ 0x726173736e67ULL;  // "rassng"

    auto trial = [&config, &policies, dry_stop_ticks,
                  sweep_seed](std::uint64_t trial_idx) {
        RasTrialPartial partial;
        RasCampaignResult &result = partial.agg;
        RasCell &cell = partial.cell;

        const std::uint64_t s = trial_idx % config.seedsPerCell;
        partial.cellIdx = trial_idx / config.seedsPerCell;
        const std::uint64_t policy_idx =
            partial.cellIdx % std::size(policies);
        const std::uint64_t wear_idx = partial.cellIdx
            / std::size(policies) % config.wearLevels.size();
        const std::uint64_t ber_idx = partial.cellIdx
            / std::size(policies) / config.wearLevels.size();

        const double ber = config.bers[ber_idx];
        const double wear = config.wearLevels[wear_idx];
        const psm::McePolicy policy = policies[policy_idx];
        cell.ber = ber;
        cell.wear = wear;
        cell.policy = policy == psm::McePolicy::Contain
            ? "contain" : "reset-cold-boot";

        const std::uint64_t trial_seed =
            Rng::streamSeed(sweep_seed, trial_idx);
        Rng rng(trial_seed);

        // Odd seeds run the Section VIII symbol-erasure
        // fallback: double-erasures become counted RS
        // corrections instead of machine checks, so both
        // ECC tiers see traffic in every cell.
        const bool rs_fallback = s % 2 == 1;

        kernel::Kernel kern(trialKernelParams());
        psm::Psm psm(trialPsmParams(config, ber, policy,
                                    trial_seed,
                                    rs_fallback));
        mem::BackingStore store;
        pecos::Sng sng(kern, psm, store, {});
        pecos::MceHandler mce(kern, psm);
        psm::ScrubParams sp;
        sp.linesPerStep = config.scrubLinesPerStep;
        psm::PatrolScrubber scrubber(psm, sp);
        FaultInjector injector(store);

        // Pre-condition the media to the cell's wear
        // level (campaign aging, not simulated writes).
        const std::uint64_t wear_cycles =
            static_cast<std::uint64_t>(
                wear
                * static_cast<double>(
                    psm.params()
                        .dimm.device.enduranceCycles));
        for (std::uint32_t d = 0;
             d < psm.params().dimms; ++d)
            for (std::uint32_t g = 0;
                 g < psm.dimm(d).groupCount(); ++g)
                psm.dimm(d).group(g).preWear(wear_cycles);

        // Register the hot region's ownership: a few
        // user processes, each owning one slice, so
        // successive contained MCEs blame (and kill)
        // different tasks.
        const std::uint64_t region_bytes =
            config.regionLines * mem::cacheLineBytes;
        std::vector<std::uint32_t> victim_pids;
        for (const auto &proc : kern.processes()) {
            if (proc->pid() == 1
                || proc->isKernelThread())
                continue;
            victim_pids.push_back(proc->pid());
            if (victim_pids.size() >= config.victims)
                break;
        }
        const std::uint64_t slice =
            region_bytes
            / std::max<std::size_t>(victim_pids.size(),
                                    1);
        for (std::size_t v = 0; v < victim_pids.size();
             ++v)
            mce.registerOwner(v * slice, slice,
                              victim_pids[v]);

        // --- demand phase -----------------------------
        // PSM counters fold as growth since the last snapshot, so a
        // mid-trial OC-PMEM reset (the ResetColdBoot arm wipes the
        // stats) cannot lose the counts from before the reset.
        psm::PsmStats psm_seen;
        auto fold_psm = [&] {
            sim::foldFrom(result, psm.stats(), rasCampaignFields,
                          &psm_seen);
            sim::foldFrom(cell, psm.stats(), rasCellFields, &psm_seen);
            psm_seen = psm.stats();
        };
        bool contained_this_trial = false;
        bool retired_on_contain = false;
        Tick t = 0;
        for (std::uint64_t op = 0;
             op < config.opsPerTrial; ++op) {
            mem::MemRequest req;
            req.addr =
                rng.below(config.regionLines)
                * mem::cacheLineBytes;
            req.op = rng.chance(config.writeFraction)
                ? mem::MemOp::Write : mem::MemOp::Read;
            const mem::AccessResult res =
                psm.access(req, t);
            t = res.completeAt + 5 * tickNs;
            req.op == mem::MemOp::Read ? ++result.reads
                                       : ++result.writes;

            if (res.containment) {
                // Escalate: the host machine check. The
                // ColdBoot arm wipes the PSM stats, so
                // fold the epoch first.
                fold_psm();
                const pecos::MceOutcome out =
                    mce.handle(req.addr, t);
                psm_seen = psm.stats();
                if (out.action
                    == pecos::MceAction::Contained) {
                    contained_this_trial = true;
                    if (out.lineRetired)
                        retired_on_contain = true;
                }
            }
            if (config.scrubEveryOps
                && op % config.scrubEveryOps == 0)
                scrubber.step(t);
        }

        // --- SnG phase: stop, lose power, resume ------
        const bool cut_armed = config.powerCutEvery
            && trial_idx % config.powerCutEvery == 0;
        Tick cut = maxTick;
        if (cut_armed) {
            cut = t
                + rng.below(dry_stop_ticks
                            + dry_stop_ticks / 4 + 1);
            injector.armCut(cut, rng.next());
            ++result.cutTrials;
        }

        const kernel::SystemSnapshot before =
            kern.snapshot();
        const pecos::StopReport stop = sng.stop(t);
        result.droppedWrites += stop.writesDropped;
        result.tornWrites += stop.writesTorn;

        // Power loss: volatile state is gone either way
        // (the stop was for a shutdown); scramble so a
        // resume reading stale volatile copies cannot
        // pass the register check.
        kern.scramble(rng);
        if (cut_armed)
            injector.powerRestored();

        const bool expect_resume = stop.commitAt < cut;
        if (sng.hasCommit() != expect_resume) {
            std::ostringstream note;
            note << "ras trial " << trial_idx << " cut@"
                 << cut << ": commit durable="
                 << sng.hasCommit() << " expected="
                 << expect_resume;
            sim::flagViolation(result, note.str());
        }

        const pecos::GoReport go =
            sng.resume((cut_armed ? cut : stop.offlineDone)
                       + 100 * tickMs);
        if (go.coldBoot == expect_resume) {
            std::ostringstream note;
            note << "ras trial " << trial_idx
                 << ": coldBoot=" << go.coldBoot
                 << " but commit durable="
                 << expect_resume;
            sim::flagViolation(result, note.str());
        }

        if (!go.coldBoot) {
            // Byte-exact register + device-cookie
            // round-trip through OC-PMEM (scramble above
            // guarantees stale volatile copies cannot
            // pass). Task state is excluded: resume
            // legitimately transitions it.
            const kernel::SystemSnapshot after =
                kern.snapshot();
            bool regs_ok =
                after.entries.size()
                    == before.entries.size()
                && after.deviceCookies
                    == before.deviceCookies;
            for (std::size_t p = 0; regs_ok
                 && p < after.entries.size(); ++p) {
                regs_ok = after.entries[p].pid
                        == before.entries[p].pid
                    && after.entries[p].regs
                        == before.entries[p].regs;
            }
            if (!regs_ok) {
                std::ostringstream note;
                note << "ras trial " << trial_idx
                     << ": resumed with corrupt state";
                sim::flagViolation(result, note.str());
            }
            ++result.resumes;
            if (policy == psm::McePolicy::Contain
                && contained_this_trial
                && retired_on_contain)
                ++result.containSurvivedSng;
        } else {
            ++result.coldBootResumes;
        }

        fold_psm();
        sim::foldFrom(cell, mce.stats(), rasCellFields);
        sim::foldFrom(result, mce.stats(), rasCampaignFields);
        ++cell.trials;
        ++result.trials;
        return partial;
    };

    // Fan the trials out, then fold in ascending trial index: cell
    // partials land cell-major, so appending on each cell boundary
    // reconstructs the sequential sweep's cell list exactly.
    sim::ParallelExecutor pool(config.threads);
    const std::vector<RasTrialPartial> partials =
        pool.map<RasTrialPartial>(total, trial);

    RasCampaignResult result;
    for (const RasTrialPartial &partial : partials) {
        sim::fold(result, partial.agg, rasCampaignFields);
        if (result.cells.size() <= partial.cellIdx)
            result.cells.emplace_back();
        sim::fold(result.cells[partial.cellIdx], partial.cell,
                  rasCellFields);
    }

    sim::Fnv64 digest;
    sim::digest(digest, result, rasCampaignFields);
    for (const RasCell &cell : result.cells)
        sim::digest(digest, cell, rasCellFields);
    result.digest = digest.h;
    return result;
}

} // namespace lightpc::fault
