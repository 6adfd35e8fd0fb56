/**
 * @file
 * Trial fabric the power-cut (campaign.cc), compound (compound.cc)
 * and energy (energy_campaign.cc) campaigns share: the rigs, each
 * persistence mode's race of one persist against a power cut (build
 * the rig, arm the cut, persist, restore AC, recover, judge), the one
 * recovery verdict, the static platform load of a Stop phase, the
 * register round-trip check, and the small op-log workload whose tail
 * a cut tears. Callers keep how the cut is chosen and which counters
 * an outcome bumps.
 */

#ifndef LIGHTPC_FAULT_TRIAL_RIG_HH
#define LIGHTPC_FAULT_TRIAL_RIG_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "kernel/kernel.hh"
#include "mem/backing_store.hh"
#include "mem/timed_mem.hh"
#include "net/kv_service.hh"
#include "net/service_plane.hh"
#include "pecos/sng.hh"
#include "power/power_model.hh"
#include "psm/psm.hh"
#include "sim/rng.hh"

namespace lightpc::fault
{

/** Shared fabric of one image-baseline trial. */
struct ImageRig
{
    mem::BackingStore store;
    psm::Psm psm;
    psm::PsmMemPort port{psm};
    mem::TimedMem pmem{port, &store};
};

/** One fresh SnG platform (identical construction every trial). */
struct SngRig
{
    kernel::Kernel kern;
    psm::Psm psm;
    mem::BackingStore store;
    pecos::Sng sng{kern, psm, store, {}};
};

/**
 * Static platform load while @p active cores compute and @p idle
 * cores idle, with the OC-PMEM DIMMs always powered.
 */
inline double
phaseWatts(const power::PowerModel &model, std::uint32_t active,
           std::uint32_t idle, std::uint32_t pram_dimms)
{
    power::ActivitySample sample;
    sample.coresActive = active;
    sample.coresIdle = idle;
    sample.coreUtilization = 1.0;
    sample.pramDimms = pram_dimms;
    return model.staticWattsOf(sample);
}

/** Register/cookie round-trip check against a pre-stop snapshot. */
inline bool
stateRoundTrips(const kernel::SystemSnapshot &before,
                const kernel::SystemSnapshot &after)
{
    if (after.entries.size() != before.entries.size()
        || after.deviceCookies != before.deviceCookies)
        return false;
    for (std::size_t p = 0; p < after.entries.size(); ++p) {
        if (after.entries[p].pid != before.entries[p].pid
            || !(after.entries[p].regs == before.entries[p].regs))
            return false;
    }
    return true;
}

/** One SnG Stop raced against a power cut, then the Go. */
struct SngRace
{
    kernel::SystemSnapshot before;  ///< what a warm Go must restore
    pecos::StopReport stop;
    pecos::GoReport go;
    bool durable = false;        ///< the EP-cut commit beat the cut
    bool commitMatches = false;  ///< the BCB on media agrees with that
    bool regsRoundTrip = false;  ///< a warm Go restored every register

    /** One short note per broken invariant; empty when clean. */
    std::vector<std::string> faults() const;
};

/**
 * The Stop half of a race on @p rig: snapshot, arm the cut, stop at
 * @p when, scramble, restore AC; the Go fields stay unset. Draws the
 * torn-line seed, then the scramble, from @p rng.
 */
SngRace stopUnderCut(SngRig &rig, Tick when, Tick cut, Rng &rng);

/**
 * Race a fresh SngRig's Stop against a cut at @p cut: stopUnderCut()
 * from tick 0, then resume 100 ms after the cut.
 */
SngRace raceSngStop(Tick cut, Rng &rng);

/**
 * The commit a cut races: @c baseSeq was durable before (0 = none),
 * @c finalSeq is in flight, its body fenced at @c bodyDone and its
 * record landed at @c commitAt.
 */
struct RaceWindow
{
    std::uint64_t baseSeq = 0;
    std::uint64_t finalSeq = 0;
    Tick bodyDone = 0;
    Tick commitAt = 0;
};

/**
 * The one recovery verdict of the image baselines. A commit record
 * that beat the rails must be recovered; a cut on or before the
 * body fence must leave the base; a cut inside the record's own
 * write may land it whole or tear it, so either is legal. A
 * recovered image (@p got != 0) must also be @p intact.
 */
bool recoveryVerdict(const RaceWindow &window, Tick cut,
                     std::uint64_t got, bool intact);

/**
 * The window a cut straddles in a sweep of commits (entry k - 1
 * belongs to sequence k): the first whose record had not landed by
 * @p cut, or the last when every record beat it.
 */
RaceWindow sweepWindow(const std::vector<Tick> &body_done,
                       const std::vector<Tick> &commit_at, Tick cut);

/** One image-baseline persist raced against a power cut. */
struct PersistRace
{
    Tick ac = 0;         ///< AC loss: the raced persist starts here
    Tick cut = maxTick;  ///< rail fail tick (maxTick on a dry run)
    RaceWindow window;
    std::uint64_t got = 0;  ///< recovered sequence; 0 = cold boot
    mem::DurabilityCutStats cutStats;
    bool ok = true;  ///< recoveryVerdict() of the recovery

    /** The whole persist landed before the rails died. */
    bool durable() const { return window.commitAt < cut; }
};

/** "<mode> cut@<tick> recovered seq <n> (...)" for @p race. */
std::string raceNote(const std::string &mode, const PersistRace &race);

/**
 * A SysPC or S-CheckPC dump: @c bases dumps of @c baseBytes commit
 * from tick 0, @c acOffset apart; AC drops @c acOffset after the
 * last (or at tick @c acOffset) and starts a dump of @c dumpBytes.
 */
struct DumpSpec
{
    std::uint64_t bases = 0;
    std::uint64_t baseBytes = 0;
    std::uint64_t dumpBytes = 0;
    Tick acOffset = 0;
};

/** The rail fail tick, as a function of the AC-loss tick. */
using CutAt = std::function<Tick(Tick ac)>;

/**
 * Race a SysPC or S-CheckPC (@p mode) dump shaped by @p spec against
 * the cut @p cut_at returns, then recover 100 ms after the cut and
 * judge. Draws from @p rng in this order: one body seed per base
 * dump, whatever @p cut_at draws, the torn-line seed, the raced
 * dump's body seed. Without @p rng it is the dry run: no cut, no
 * recovery, bodies seeded 7, 8, ...
 */
PersistRace raceImageDump(net::PersistMode mode, const DumpSpec &spec,
                          const CutAt &cut_at = {},
                          Rng *rng = nullptr);

/**
 * Race an A-CheckPC sweep of @p checkpoints per-function captures,
 * each @p think after the last, against a cut at @p cut; recovery
 * reads the ledger. Draws the torn-line seed, then one body seed
 * per capture, from @p rng. Without @p rng it is the dry run: no
 * cut, no recovery, capture k seeded k.
 */
PersistRace raceACheckPcSweep(std::uint64_t checkpoints, Tick think,
                              Tick cut = maxTick, Rng *rng = nullptr);

/**
 * The op-log trial service: a deliberately tiny ring (eight records)
 * so a short PUT stream wraps it and forces stall drains.
 */
inline net::KvParams
oplogCampaignParams()
{
    net::KvParams params;
    params.writePath = net::WritePath::OpLog;
    params.keyCapacity = 64;
    params.dedupCapacity = 256;
    params.oplog.capacity = 8 * net::OpLog::recordBytes;
    return params;
}

/** PUT @p id of an op-log trial's workload. */
inline net::RpcRequest
oplogPutReq(std::uint64_t id, std::uint64_t key, std::uint64_t seed)
{
    net::RpcRequest req;
    req.reqId = id;
    req.client = static_cast<std::uint32_t>(id % 5);
    req.op = workload::KvOp::Put;
    req.key = key;
    req.valueSeed = seed;
    req.deadline = maxTick;
    return req;
}

} // namespace lightpc::fault

#endif // LIGHTPC_FAULT_TRIAL_RIG_HH
