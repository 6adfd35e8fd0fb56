/**
 * @file
 * Trial fabric and helpers the power-cut (campaign.cc), compound
 * (compound.cc) and energy (energy_campaign.cc) campaigns share: the
 * PSM-backed PMEM rig an image-baseline trial writes through, the
 * static platform load of a Stop phase, the register round-trip
 * check a resume must pass, and the small op-log workload whose
 * tail a cut tears.
 */

#ifndef LIGHTPC_FAULT_TRIAL_RIG_HH
#define LIGHTPC_FAULT_TRIAL_RIG_HH

#include <cstdint>

#include "kernel/kernel.hh"
#include "mem/backing_store.hh"
#include "mem/timed_mem.hh"
#include "net/kv_service.hh"
#include "power/power_model.hh"
#include "psm/psm.hh"

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
