/**
 * @file
 * One LightPC machine serving the KV service: the unit the
 * single-machine service plane (net/service_plane.hh) runs once and
 * the replicated cluster (cluster/cluster.hh) runs once per replica.
 *
 * A ServiceNode owns the machine — platform::System, NIC, timed PMEM
 * port, KvService, PSU fault injector, the SysPC / S-CheckPC image
 * writers, availability recorder and rngs — and runs its serving path
 * on the plane's event queue: RX admission, serve, TX drain, the
 * op-log group commit and background drain, the per-mode power-down
 * (SnG Stop, OpLog emergency commit, SysPC dump, baselines), the
 * per-mode restore (Go or cold boot) and cold-boot recovery.
 *
 * Machine-side events carry the generation guard `gen`, bumped at
 * every power event, so work scheduled before a cut dies with it.
 * Policy that differs between planes stays with the plane: when cuts
 * land and what follows them, when S-CheckPC dumps and how a dump
 * ends, supervisor backoff, and the whole client side. The plane
 * reaches into the serving path only through NodeHost.
 */

#ifndef LIGHTPC_NET_SERVICE_NODE_HH
#define LIGHTPC_NET_SERVICE_NODE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "fault/fault_injector.hh"
#include "mem/timed_mem.hh"
#include "net/availability.hh"
#include "net/kv_service.hh"
#include "net/nic.hh"
#include "net/service_plane.hh"
#include "persist/checkpoint.hh"
#include "platform/system.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"

namespace lightpc::net
{

class ServiceNode;

/** The plane a node serves in, as the node's serving path sees it. */
class NodeHost
{
  public:
    /** Where a PUT goes once it leaves the service queue. */
    enum class PutRoute
    {
        Local,        ///< execute on the node's own KvService
        Answered,     ///< the host filled in the response
        Replicating,  ///< the ack waits on a replication commit
    };

    /** A response frame reached the client end of the wire. */
    virtual void deliver(const RpcResponse &resp) = 0;

    /**
     * Route a PUT popped from @p node's service queue. The host may
     * answer it in @p resp or take it into replication, advancing
     * @p t by the service time it charges.
     */
    virtual PutRoute
    routePut(ServiceNode &, const RpcRequest &, Tick &, RpcResponse &)
    {
        return PutRoute::Local;
    }

    /** Stamp a response the node answers itself (rejects, local ops). */
    virtual void stamp(const ServiceNode &, RpcResponse &) {}

    /**
     * The op log's tail just became durable at @p t; anything that
     * may only persist after it (the cluster's replication
     * watermark) persists now, advancing @p t.
     */
    virtual void logCommitted(ServiceNode &, Tick &) {}
};

/** One machine's configuration, as both planes derive it. */
struct NodeParams
{
    std::uint32_t id = 0;  ///< replica index (0 on a single machine)
    PersistMode mode = PersistMode::SnG;

    std::uint64_t seed = 0;          ///< platform and kernel seed
    std::uint64_t rngSeed = 0;       ///< torn seeds, dump bodies
    std::uint64_t scrambleSeed = 0;  ///< volatile-loss corruption

    /** Kernel population behind the service. */
    std::uint32_t userProcesses = 0;
    std::uint32_t kernelThreads = 0;
    std::size_t deviceCount = 0;

    KvParams kv;
    NicParams nic;

    Tick holdup = 0;  ///< this machine's PSU hold-up
    Tick wireLatency = 0;
    Tick txDrainInterval = 0;
    Tick goodputWindow = 0;

    Tick scheckPeriod = 0;
    std::uint64_t scheckVmBytes = 0;

    Tick oplogCommitInterval = 0;
    std::uint32_t oplogCommitRecords = 0;
    Tick oplogDrainInterval = 0;
    std::uint32_t oplogDrainBatch = 0;
};

/**
 * The machine knobs ServiceConfig and ClusterConfig share by name.
 * Seeds, id and any per-machine derating are the caller's to set.
 */
template <class Config>
NodeParams
nodeParamsOf(const Config &cfg)
{
    NodeParams p;
    p.mode = cfg.mode;
    p.seed = cfg.seed;
    p.userProcesses = cfg.userProcesses;
    p.kernelThreads = cfg.kernelThreads;
    p.deviceCount = cfg.deviceCount;
    p.kv = cfg.kv;
    if (cfg.mode == PersistMode::ACheckPc)
        p.kv.checkpointBytesPerOp = cfg.acheckBytesPerOp;
    if (cfg.mode == PersistMode::OpLog)
        p.kv.writePath = WritePath::OpLog;
    // Dedup retention: an ID may only be compacted away once no
    // conforming client can still retry it — the fleet's worst-case
    // retry span, plus the server-side deadline a queued retry can
    // still execute under, wire delays, and one full outage.
    p.kv.dedupRetention = cfg.fleet.maxRetrySpan() + cfg.requestDeadline
        + 2 * cfg.wireLatency + cfg.offDwell + cfg.holdup;
    p.nic = cfg.nic;
    p.holdup = cfg.holdup;
    p.wireLatency = cfg.wireLatency;
    p.txDrainInterval = cfg.txDrainInterval;
    p.goodputWindow = cfg.goodputWindow;
    p.scheckPeriod = cfg.scheckPeriod;
    p.scheckVmBytes = cfg.scheckVmBytes;
    p.oplogCommitInterval = cfg.oplogCommitInterval;
    p.oplogCommitRecords = cfg.oplogCommitRecords;
    p.oplogDrainInterval = cfg.oplogDrainInterval;
    p.oplogDrainBatch = cfg.oplogDrainBatch;
    return p;
}

/** One LightPC machine and its serving path. */
class ServiceNode
{
  public:
    /**
     * Build the machine. Events go to @p queue, or to the machine's
     * own System queue when it is null (a single-machine plane).
     */
    ServiceNode(const NodeParams &params, NodeHost &host,
                EventQueue *queue = nullptr);

    ServiceNode(const ServiceNode &) = delete;
    ServiceNode &operator=(const ServiceNode &) = delete;

    const NodeParams params;
    NodeHost &host;

    platform::System sys;
    EventQueue &eq;
    NicDevice nic;
    mem::TimedMem timed;
    KvService kv;
    fault::FaultInjector injector;
    persist::SysPc sysPc;
    persist::SCheckPc sCheck;
    persist::ImageCosts imageCosts;
    AvailabilityRecorder recorder;
    Rng rng;          ///< torn seeds, dump body seeds
    Rng scrambleRng;  ///< volatile-loss corruption

    bool powerOn = true;
    bool serviceUp = true;
    bool dumpStall = false;  ///< S-CheckPC stop-the-world dump

    /**
     * The next restore must cold-boot: the last EP-cut failed, the
     * mode keeps no warm image, or the caller invalidated the image.
     * After restore() it tells whether the machine cold-booted.
     */
    bool pendingColdBoot = false;

    /** Machine-side event guard; bumped at every power event. */
    std::uint64_t gen = 0;

    /**
     * @p fn as an event that dies with the current power generation:
     * the closure captures gen and drops the call once a power event
     * has bumped it.
     */
    template <class Fn>
    auto
    guarded(Fn fn)
    {
        auto call = [this, g = gen, fn] {
            if (g == gen)
                fn();
        };
        static_assert(sizeof(call) <= SmallCallback::inlineBytes,
                      "a guarded event must stay inside the event slot");
        return call;
    }

    NodeStats stats;

    bool canServe() const { return powerOn && serviceUp && !dumpStall; }

    /** Serving a request or holding frames in a NIC ring. */
    bool
    midFlight() const
    {
        return serverBusy || nic.rxOccupancy() > 0
            || nic.txOccupancy() > 0;
    }

    /** A request frame arrives from the wire. */
    void rxArrive(const RpcRequest &req);

    /** Admit from the RX ring and start the next request if idle. */
    void kickService();

    /** Keep the TX drain running while frames are queued. */
    void kickTx();

    /** OpLog mode: run or arm the group commit. */
    void maybeScheduleCommit();

    /** Hold @p acks for the next group commit. */
    void deferAcks(const std::vector<RpcResponse> &acks);

    /** Push @p batch to the TX ring at @p at, stamped at release. */
    void releaseAcks(Tick at,
                     std::shared_ptr<std::vector<RpcResponse>> batch);

    /**
     * Start an S-CheckPC stop-the-world dump. @return the tick it
     * commits; the caller ends the stall then.
     */
    Tick scheckDump(Tick now);

    /**
     * The power event: cut the rails a hold-up out and run the
     * mode's emergency persist (SnG Stop, OpLog emergency commit +
     * Stop, SysPC dump, nothing for the checkpoint baselines).
     * Sets pendingColdBoot when the restore cannot resume warm.
     */
    void powerDown(Tick now);

    /** A cut inside the recovery window kills the resume under way. */
    void killRecovery(Tick now);

    /** AC is back: the rails come up. */
    void powerRestored();

    /**
     * Rebuild the machine after powerRestored(): Go from the EP-cut
     * image, or a cold boot with pool recovery. @return the tick the
     * service can come back up.
     */
    Tick restore(Tick now);

    /** The service is back up: restart the pumps and cadences. */
    void resumeService();

  private:
    /** Bump gen and clear the armed flags of the events it kills. */
    void endGeneration();
    void serviceDone();
    void txDrainFire();
    void commitFire();
    void scheduleDrain();
    void drainFire();
    Tick coldBootRecover(Tick from);

    bool serverBusy = false;
    RpcResponse pendingResp{};
    bool havePendingResp = false;
    bool pendingDeferred = false;
    bool txDraining = false;

    /** OpLog mode: acks waiting on the next group commit. */
    std::vector<RpcResponse> deferredAcks;
    bool commitScheduled = false;
    bool drainScheduled = false;
};

} // namespace lightpc::net

#endif // LIGHTPC_NET_SERVICE_NODE_HH
