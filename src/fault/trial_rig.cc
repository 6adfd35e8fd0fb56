#include "fault/trial_rig.hh"

#include <algorithm>
#include <sstream>
#include <type_traits>

#include "fault/fault_injector.hh"
#include "persist/checkpoint.hh"
#include "sim/logging.hh"

namespace lightpc::fault
{

std::vector<std::string>
SngRace::faults() const
{
    std::vector<std::string> out;
    if (!commitMatches)
        out.push_back("commit on media disagrees with durable="
                      + std::to_string(durable));
    if (go.coldBoot == durable)
        out.push_back("coldBoot=" + std::to_string(go.coldBoot)
                      + " but commit durable="
                      + std::to_string(durable));
    if (!go.coldBoot && !regsRoundTrip)
        out.push_back("resumed with corrupt register state");
    return out;
}

SngRace
stopUnderCut(SngRig &rig, Tick when, Tick cut, Rng &rng)
{
    SngRace race;
    FaultInjector injector(rig.store);
    race.before = rig.kern.snapshot();
    injector.armCut(cut, rng.next());
    race.stop = rig.sng.stop(when);
    race.durable = race.stop.commitAt < cut;

    // Power loss: everything volatile is gone. The PCBs get scrambled
    // so a resume that "works" by reading stale DRAM instead of
    // OC-PMEM cannot pass the register check.
    rig.kern.scramble(rng);
    injector.powerRestored();
    race.commitMatches = rig.sng.hasCommit() == race.durable;
    return race;
}

SngRace
raceSngStop(Tick cut, Rng &rng)
{
    SngRig rig;
    SngRace race = stopUnderCut(rig, 0, cut, rng);
    race.go = rig.sng.resume(cut + 100 * tickMs);
    race.regsRoundTrip = !race.go.coldBoot
        && stateRoundTrips(race.before, rig.kern.snapshot());
    return race;
}

bool
recoveryVerdict(const RaceWindow &window, Tick cut, std::uint64_t got,
                bool intact)
{
    bool ok;
    if (window.commitAt < cut)
        ok = got == window.finalSeq;
    else if (cut <= window.bodyDone)
        ok = got == window.baseSeq;
    else
        ok = got == window.baseSeq || got == window.finalSeq;
    return ok && (got == 0 || intact);
}

RaceWindow
sweepWindow(const std::vector<Tick> &body_done,
            const std::vector<Tick> &commit_at, Tick cut)
{
    if (commit_at.empty())
        return {};
    std::size_t k = 0;
    while (k + 1 < commit_at.size() && commit_at[k] < cut)
        ++k;
    return {k, k + 1, body_done[k], commit_at[k]};
}

std::string
raceNote(const std::string &mode, const PersistRace &race)
{
    std::ostringstream note;
    note << mode << " cut@" << race.cut << " recovered seq "
         << race.got << " (base " << race.window.baseSeq << ", final "
         << race.window.finalSeq << ", commit@"
         << race.window.commitAt << ")";
    return note.str();
}

namespace
{

/** Both campaigns model BLCR's dump period as 50 ms. */
constexpr Tick sCheckPeriod = 50 * tickMs;

/** The dump race over either image baseline (same protocol). */
template <class Image>
PersistRace
dumpRace(Image &image, ImageRig &rig, const DumpSpec &spec,
         const CutAt &cut_at, Rng *rng)
{
    constexpr bool sys = std::is_same_v<Image, persist::SysPc>;
    std::uint64_t dry_seed = 7;
    auto dump = [&](Tick when, std::uint64_t bytes) {
        const std::uint64_t seed = rng ? rng->next() : dry_seed++;
        if constexpr (sys)
            return image.dumpImageCommitted(when, bytes, seed);
        else
            return image.dumpCommitted(when, bytes, seed);
    };

    PersistRace race;
    Tick t = 0;
    for (std::uint64_t b = 0; b < spec.bases; ++b)
        t = dump(b == 0 ? t : t + spec.acOffset, spec.baseBytes);
    race.ac = t + spec.acOffset;

    FaultInjector injector(rig.store);
    if (rng) {
        race.cut = cut_at(race.ac);
        injector.armCut(race.cut, rng->next());
    }
    dump(race.ac, spec.dumpBytes);
    race.window = {spec.bases, spec.bases + 1, image.lastBodyDoneAt(),
                   image.lastCommitAt()};
    if (!rng)
        return race;
    race.cutStats = rig.store.cutStats();

    injector.powerRestored();
    const Tick restart = race.cut + 100 * tickMs;
    bool intact;
    if constexpr (sys) {
        image.recover(restart);
        intact = image.committedImageIntact(image.committedImage());
    } else {
        image.recoverAfterLoss(restart);
        intact = image.commitIntact(image.latestCommit());
    }
    race.got = image.recoveredSeq();
    race.ok = recoveryVerdict(race.window, race.cut, race.got, intact);
    return race;
}

// A-CheckPC captures: body + fence + ledger record each, sized like
// the decorator's stack/heap captures (4-32 KB), alternating between
// two body slots above the ledger.
std::uint64_t
acheckBodyBytes(std::uint64_t k)
{
    return 4096 + (k * 2654435761ULL) % (28 << 10);
}

mem::Addr
acheckSlotAddr(std::uint64_t seq)
{
    const mem::Addr slot_base =
        persist::ACheckPcParams().pmemBase + (1 << 20);
    return slot_base + (seq & 1) * (1 << 20);
}

} // namespace

PersistRace
raceACheckPcSweep(std::uint64_t checkpoints, Tick think, Tick cut,
                  Rng *rng)
{
    ImageRig rig;
    persist::CheckpointLedger ledger(
        rig.pmem, persist::ACheckPcParams().pmemBase);
    FaultInjector injector(rig.store);
    PersistRace race;
    if (rng) {
        race.cut = cut;
        injector.armCut(cut, rng->next());
    }

    std::vector<std::uint64_t> seeds(checkpoints + 1, 0);
    std::vector<Tick> body_done(checkpoints, 0);
    std::vector<Tick> commit_at(checkpoints, 0);
    Tick t = 0;
    for (std::uint64_t k = 1; k <= checkpoints; ++k) {
        seeds[k] = rng ? rng->next() : k;
        t += think;  // the function body between captures
        t = persist::writeBodyPattern(rig.pmem, t, acheckSlotAddr(k),
                                      acheckBodyBytes(k), seeds[k]);
        t = rig.pmem.fence(t);
        body_done[k - 1] = t;
        t = ledger.commit(t, k, k & 1, acheckBodyBytes(k), seeds[k]);
        commit_at[k - 1] = ledger.lastCommitAt();
    }
    race.window = sweepWindow(body_done, commit_at, race.cut);
    if (!rng)
        return race;
    race.cutStats = rig.store.cutStats();

    injector.powerRestored();
    const persist::CheckpointLedger::Record rec = ledger.latest();
    race.got = rec.seq;
    const bool intact = rec.valid() && rec.seq <= checkpoints
        && persist::verifyBodyPattern(
            rig.store, acheckSlotAddr(rec.seq),
            std::min<std::uint64_t>(rec.bytes, acheckBodyBytes(rec.seq)),
            seeds[rec.seq]);
    race.ok = recoveryVerdict(race.window, race.cut, race.got, intact);
    return race;
}

PersistRace
raceImageDump(net::PersistMode mode, const DumpSpec &spec,
              const CutAt &cut_at, Rng *rng)
{
    ImageRig rig;
    if (mode == net::PersistMode::SysPc) {
        persist::SysPc syspc(rig.pmem);
        return dumpRace(syspc, rig, spec, cut_at, rng);
    }
    if (mode == net::PersistMode::SCheckPc) {
        persist::SCheckPc scheck(rig.pmem, sCheckPeriod);
        return dumpRace(scheck, rig, spec, cut_at, rng);
    }
    fatal("image dump race: ", net::persistModeName(mode),
          " is not an image baseline");
}

} // namespace lightpc::fault
