#include "fault/campaign.hh"

#include <algorithm>
#include <functional>
#include <sstream>

#include "fault/fault_injector.hh"
#include "fault/power_rail.hh"
#include "fault/trial_rig.hh"
#include "kernel/kernel.hh"
#include "mem/backing_store.hh"
#include "mem/timed_mem.hh"
#include "net/kv_service.hh"
#include "power/power_model.hh"
#include "psm/psm.hh"
#include "sim/parallel.hh"
#include "sim/rng.hh"

namespace lightpc::fault
{

const char *
cutPhaseName(CutPhase phase)
{
    switch (phase) {
      case CutPhase::ProcessStop: return "process-stop";
      case CutPhase::DeviceStop: return "device-stop";
      case CutPhase::EpCut: return "ep-cut";
      case CutPhase::PostCommit: return "post-commit";
      case CutPhase::MidDump: return "mid-dump";
      case CutPhase::CommitWindow: return "commit-window";
      case CutPhase::Count: break;
    }
    return "?";
}

namespace
{

void
countPhase(CampaignResult &result, CutPhase phase)
{
    ++result.phaseCuts[static_cast<std::size_t>(phase)];
}

/**
 * The per-trial cut tick: drain a stored-energy budget that is
 * @p frac of what the load profile consumes over the window of
 * interest, capped by what the PSU can physically store.
 */
Tick
cutFromEnergyFraction(const CampaignConfig &config,
                      const PowerRail &profile, Tick ac_loss,
                      Tick window_end, double frac)
{
    const double budget = std::min(
        frac * profile.energyUsedBy(ac_loss, window_end),
        config.psu.spec().storedJoules);

    power::PsuSpec spec = config.psu.spec();
    spec.storedJoules = budget;
    PowerRail scaled(power::PsuModel(spec), profile.loadAt(0));
    for (const LoadStep &step : profile.profile()) {
        if (step.at != 0)
            scaled.addStep(step.at, step.watts);
    }
    return scaled.failTick(ac_loss);
}

/**
 * Campaign RNG seed: user seed + mode salt + PSU name, so the two
 * PSUs probe different cut ticks instead of replaying each other.
 * Trial i draws from the independent stream
 * Rng(Rng::streamSeed(campaignSeed(...), i)) — a pure function of
 * (config, i), which is what lets the trial pool run seeds in any
 * order and still reproduce the sequential campaign bit-for-bit.
 */
std::uint64_t
campaignSeed(const CampaignConfig &config, std::uint64_t salt)
{
    std::uint64_t h = 0xcbf29ce484222325ULL ^ config.seed ^ salt;
    for (const char c : config.psu.spec().name)
        h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
    return h;
}

/** Sweep position of trial @p i, jittered inside its stratum. */
double
sweepFraction(std::uint64_t i, std::uint64_t cuts, Rng &rng)
{
    const double lo = 0.02;
    const double hi = 1.25;
    return lo
        + (hi - lo) * (static_cast<double>(i) + rng.uniform())
              / static_cast<double>(std::max<std::uint64_t>(cuts, 1));
}

/**
 * The deterministic reduction driver every mode shares: fan
 * config.cuts isolated trials across the pool, merge the per-trial
 * results in ascending seed order, stamp mode/PSU, and digest the
 * merged counters. @p trial must be a pure function of its index —
 * it is invoked concurrently from multiple workers.
 */
CampaignResult
runSeededTrials(const CampaignConfig &config, const char *mode,
                const std::function<CampaignResult(std::uint64_t)>
                    &trial)
{
    sim::ParallelExecutor pool(config.threads);
    CampaignResult result = pool.reduce<CampaignResult>(
        config.cuts, CampaignResult{}, trial,
        [](CampaignResult &acc, const CampaignResult &partial) {
            sim::fold(acc, partial, campaignResultFields);
        });
    result.mode = mode;
    result.psu = config.psu.spec().name;
    result.digest = sim::digestOf(result, campaignResultFields);
    return result;
}

} // namespace

CampaignResult
runSngCampaign(const CampaignConfig &config)
{
    const power::PowerModel power_model;

    // Dry run: phase boundaries (construction is deterministic, so
    // every trial's Stop timeline is identical to this one).
    const pecos::StopReport dry = SngRig().sng.stop(0);
    const std::uint32_t cores = kernel::KernelParams().cores;
    const std::uint32_t dimms = psm::PsmParams().dimms;

    // Load profile over the Stop phases: Drive-to-Idle runs every
    // core hot, Auto-Stop leaves the master active, the EP-cut runs
    // with the workers offlined.
    PowerRail profile(config.psu,
                      phaseWatts(power_model, cores, 0, dimms));
    profile.addStep(dry.processStopDone,
                    phaseWatts(power_model, 1, cores - 1, dimms));
    profile.addStep(dry.deviceStopDone,
                    phaseWatts(power_model, 1, 0, dimms));
    const Tick window_end =
        dry.offlineDone + (dry.offlineDone - dry.start) / 4;

    const std::uint64_t seed = campaignSeed(config, 0x536e47ULL);

    return runSeededTrials(config, "SnG", [&config, profile,
                                           window_end, seed](
                                              std::uint64_t i) {
        CampaignResult result;
        Rng rng(Rng::streamSeed(seed, i));

        const Tick cut = cutFromEnergyFraction(
            config, profile, 0, window_end,
            sweepFraction(i, config.cuts, rng));
        const SngRace race = raceSngStop(cut, rng);
        result.droppedWrites += race.stop.writesDropped;
        result.tornWrites += race.stop.writesTorn;

        const CutPhase phase = cut <= race.stop.processStopDone
            ? CutPhase::ProcessStop
            : cut <= race.stop.deviceStopDone ? CutPhase::DeviceStop
            : cut <= race.stop.commitAt ? CutPhase::EpCut
                                        : CutPhase::PostCommit;
        countPhase(result, phase);

        for (const std::string &fault : race.faults()) {
            std::ostringstream note;
            note << "SnG cut@" << cut << " " << cutPhaseName(phase)
                 << ": " << fault;
            sim::flagViolation(result, note.str());
        }
        race.go.coldBoot ? ++result.coldBoots : ++result.resumes;
        ++result.cuts;
        return result;
    });
}

namespace
{

constexpr std::uint64_t sysPcBaseBytes = 4 << 20;
constexpr std::uint64_t sysPcDumpBytes = 8 << 20;

/**
 * Energy-sweep cut of trial @p i against a dump that starts at
 * @p ac and, in the dry run, commits @p len later. Hibernate and
 * BLCR dumps run every core flat out until the rails die.
 */
Tick
dumpCut(const CampaignConfig &config, std::uint64_t i, Tick ac,
        Tick len, Rng &rng)
{
    const PowerRail profile(
        config.psu, phaseWatts(power::PowerModel(),
                               kernel::KernelParams().cores, 0,
                               psm::PsmParams().dimms));
    return cutFromEnergyFraction(config, profile, ac, ac + len + len / 4,
                                 sweepFraction(i, config.cuts, rng));
}

/** Counters of one image-baseline trial from its race. */
CampaignResult
judgeRace(const char *mode, const PersistRace &race)
{
    CampaignResult result;
    result.droppedWrites += race.cutStats.droppedWrites;
    result.tornWrites += race.cutStats.tornWrites;
    countPhase(result, race.cut <= race.window.bodyDone
                           ? CutPhase::MidDump
                       : race.cut <= race.window.commitAt
                           ? CutPhase::CommitWindow
                           : CutPhase::PostCommit);
    if (!race.ok)
        sim::flagViolation(result, raceNote(mode, race));
    race.got != 0 ? ++result.resumes : ++result.coldBoots;
    ++result.cuts;
    return result;
}

} // namespace

CampaignResult
runSysPcCampaign(const CampaignConfig &config)
{
    // Dry run (with a base image) for the dump/commit windows used
    // by the forced commit-window trials.
    const PersistRace dry = raceImageDump(
        net::PersistMode::SysPc,
        {1, sysPcBaseBytes, sysPcDumpBytes, tickMs});
    const std::uint64_t seed = campaignSeed(config, 0x537973ULL);

    return runSeededTrials(config, "SysPC", [&config, dry,
                                             seed](std::uint64_t i) {
        Rng rng(Rng::streamSeed(seed, i));
        const Tick body_done = dry.window.bodyDone;
        const Tick commit_at = dry.window.commitAt;

        // Every 8th trial aims inside the commit record's own write
        // — a window far too narrow for the energy sweep to hit.
        const bool force_commit_window =
            i % 8 == 7 && commit_at > body_done;
        const bool have_base = force_commit_window || rng.chance(0.5);

        auto cut_at = [&](Tick ac) {
            return force_commit_window
                ? body_done + 1 + rng.below(commit_at - body_done)
                : dumpCut(config, i, ac, commit_at - dry.ac, rng);
        };
        return judgeRace(
            "SysPC",
            raceImageDump(net::PersistMode::SysPc,
                          {have_base ? 1u : 0u, sysPcBaseBytes,
                           sysPcDumpBytes, tickMs},
                          cut_at, &rng));
    });
}

CampaignResult
runSCheckPcCampaign(const CampaignConfig &config)
{
    constexpr std::uint64_t vm_bytes = 6 << 20;
    constexpr Tick period = 50 * tickMs;

    const PersistRace dry = raceImageDump(
        net::PersistMode::SCheckPc, {2, vm_bytes, vm_bytes, period});
    const Tick dry_window = dry.window.commitAt - dry.ac;
    const std::uint64_t seed = campaignSeed(config, 0x5343506bULL);

    return runSeededTrials(config, "S-CheckPC", [&config, dry_window,
                                                 seed](std::uint64_t i) {
        Rng rng(Rng::streamSeed(seed, i));

        // With history, two periodic dumps committed before the one
        // AC loss races; without, the race is the process's first.
        const bool have_history = rng.chance(0.7);
        return judgeRace(
            "S-CheckPC",
            raceImageDump(net::PersistMode::SCheckPc,
                          {have_history ? 2u : 0u, vm_bytes, vm_bytes,
                           have_history ? period : 0},
                          [&](Tick ac) {
                              return dumpCut(config, i, ac, dry_window,
                                             rng);
                          },
                          &rng));
    });
}

CampaignResult
runACheckPcCampaign(const CampaignConfig &config)
{
    // Per-function checkpoints: a run of small committed captures,
    // each after 200 us of function body.
    constexpr std::uint64_t checkpoints = 6;
    constexpr Tick think = 200 * tickUs;

    const Tick dry_total =
        raceACheckPcSweep(checkpoints, think).window.commitAt;
    const std::uint64_t seed = campaignSeed(config, 0x414350ULL);

    return runSeededTrials(config, "A-CheckPC", [dry_total, seed](
                                                    std::uint64_t i) {
        Rng rng(Rng::streamSeed(seed, i));

        // A-CheckPC checkpoints continuously; the cut is uniform
        // over the run (plus a post-run margin), no rail profile
        // needed to reach every window.
        const Tick cut = 1 + rng.below(dry_total + dry_total / 8);
        return judgeRace("A-CheckPC", raceACheckPcSweep(
                                          checkpoints, think, cut, &rng));
    });
}

namespace
{

// The op-log campaign workload: enough PUTs to wrap a deliberately
// tiny ring several times (forcing stall drains), spread over few
// enough keys that every key sees multiple versions.
constexpr std::uint64_t oplogPuts = 32;
constexpr std::uint64_t oplogKeys = 8;

} // namespace

CampaignResult
runOpLogCampaign(const CampaignConfig &config)
{
    // Dry run for the timeline length. Service times are independent
    // of payload seeds and of the cut (the media drops writes without
    // changing their timing), so every trial ends at this same tick.
    Tick dry_total = 0;
    std::vector<std::pair<Tick, Tick>> dry_commits;
    {
        ImageRig rig;
        net::KvService svc(rig.store, rig.pmem,
                           oplogCampaignParams());
        Tick t = 0;
        for (std::uint64_t p = 1; p <= oplogPuts; ++p) {
            svc.execute(t, oplogPutReq(p, 1 + (p - 1) % oplogKeys, p));
            if (p % 4 == 0) {
                const Tick start = t;
                svc.logCommit(t);
                dry_commits.emplace_back(start, t);
            }
            if (p % 8 == 0)
                svc.logDrain(t, 2);
        }
        const Tick start = t;
        svc.logCommit(t);
        dry_commits.emplace_back(start, t);
        dry_total = t;
    }

    const std::uint64_t seed = campaignSeed(config, 0x4f704c6fULL);

    return runSeededTrials(config, "SnG-OpLog", [dry_total,
                                                 dry_commits, seed](
                                                    std::uint64_t i) {
        CampaignResult result;
        Rng rng(Rng::streamSeed(seed, i));

        // The PUT stream checkpoints durability continuously (every
        // group commit, plus stall drains inside appends), so a
        // uniform cut reaches every window without a rail profile.
        // Every 8th trial aims inside a group commit's own tail
        // store + fence — a window far too narrow for the uniform
        // sweep to hit reliably.
        Tick cut = 1 + rng.below(dry_total + dry_total / 8);
        if (i % 8 == 7) {
            const auto &w = dry_commits[rng.below(dry_commits.size())];
            if (w.second > w.first + 1)
                cut = w.first + 1 + rng.below(w.second - w.first);
        }

        ImageRig rig;
        net::KvService svc(rig.store, rig.pmem,
                           oplogCampaignParams());
        FaultInjector injector(rig.store);
        injector.armCut(cut, rng.next());

        // Oracle bookkeeping (1-based by request ID).
        std::vector<std::uint64_t> keys(oplogPuts + 1, 0);
        std::vector<std::uint64_t> seeds(oplogPuts + 1, 0);
        std::vector<std::pair<Tick, Tick>> commit_windows;

        // Records guaranteed durable: covered by any commit (explicit
        // group commit or a stall drain's inline one) whose stores all
        // completed before the cut.
        std::uint64_t committed_min = 0;
        // Records that can possibly survive: append started pre-cut.
        std::uint64_t append_bound = 0;

        Tick t = 0;
        auto noteDurable = [&](Tick done) {
            if (done >= cut)
                return;
            committed_min = std::max(
                committed_min, svc.stats().logAppends
                                   - svc.logUncommittedRecords());
        };
        for (std::uint64_t p = 1; p <= oplogPuts; ++p) {
            keys[p] = 1 + (p - 1) % oplogKeys;
            seeds[p] = rng.next();
            if (t < cut)
                ++append_bound;
            svc.execute(t, oplogPutReq(p, keys[p], seeds[p]));
            noteDurable(t);
            if (p % 4 == 0) {
                const Tick start = t;
                svc.logCommit(t);
                commit_windows.emplace_back(start, t);
                noteDurable(t);
            }
            if (p % 8 == 0)
                svc.logDrain(t, 2);
        }
        {
            const Tick start = t;
            svc.logCommit(t);
            commit_windows.emplace_back(start, t);
            noteDurable(t);
        }

        result.droppedWrites += rig.store.cutStats().droppedWrites;
        result.tornWrites += rig.store.cutStats().tornWrites;

        CutPhase phase = CutPhase::PostCommit;
        if (cut <= commit_windows.back().second) {
            phase = CutPhase::MidDump;
            for (const auto &w : commit_windows) {
                if (cut > w.first && cut <= w.second) {
                    phase = CutPhase::CommitWindow;
                    break;
                }
            }
        }
        countPhase(result, phase);

        injector.powerRestored();

        // Crash recovery on the same store: reopen the pool (rolling
        // back a torn apply transaction), scan the log from the
        // durable head, replay, then drain whatever the scan rebuilt.
        Tick rt = cut + 100 * tickMs;
        svc.recover(rt);
        svc.logDrainAll(rt);

        // The applied set must be an exact prefix of the append
        // sequence, bracketed by the durable-commit floor and the
        // appends-started ceiling.
        const std::uint64_t got = svc.appliedCount();
        bool ok = got >= committed_min && got <= append_bound
            && svc.compactedCount() == 0;
        if (ok) {
            std::vector<std::uint64_t> ids = svc.appliedIds();
            ok = ids.size() == got;
            if (ok) {
                std::sort(ids.begin(), ids.end());
                for (std::uint64_t p = 0; ok && p < got; ++p)
                    ok = ids[p] == p + 1;
            }
        }
        // Key table == the prefix's oracle, byte for byte.
        for (std::uint64_t k = 1; ok && k <= oplogKeys; ++k) {
            std::uint64_t version = 0;
            std::uint64_t last = 0;
            for (std::uint64_t p = 1; p <= got; ++p) {
                if (keys[p] == k) {
                    ++version;
                    last = p;
                }
            }
            const std::optional<net::KvKeyState> state = svc.lookup(k);
            if (version == 0)
                ok = !state.has_value();
            else
                ok = state && state->version == version
                    && state->lastReqId == last
                    && state->valueSeed == seeds[last];
        }

        if (!ok) {
            std::ostringstream note;
            note << "SnG-OpLog cut@" << cut << " "
                 << cutPhaseName(phase) << ": applied " << got
                 << " records (floor " << committed_min << ", ceiling "
                 << append_bound << ") or key table off-oracle";
            sim::flagViolation(result, note.str());
        }
        got != 0 ? ++result.resumes : ++result.coldBoots;
        ++result.cuts;
        return result;
    });
}

} // namespace lightpc::fault
