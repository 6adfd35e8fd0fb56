#include "net/service_node.hh"

#include <utility>

namespace lightpc::net
{

namespace
{

platform::SystemConfig
sysConfigFor(const NodeParams &params)
{
    platform::SystemConfig sc;
    sc.kind = platform::PlatformKind::LightPC;
    sc.seed = params.seed;
    sc.kernel.cores = sc.cores;
    sc.kernel.userProcesses = params.userProcesses;
    sc.kernel.kernelThreads = params.kernelThreads;
    sc.kernel.deviceCount = params.deviceCount;
    sc.kernel.busy = true;
    sc.kernel.seed = params.seed ^ 0x6b65726eULL;  // "kern"
    return sc;
}

} // namespace

ServiceNode::ServiceNode(const NodeParams &params_in, NodeHost &host_in,
                         EventQueue *queue)
    : params(params_in),
      host(host_in),
      sys(sysConfigFor(params_in)),
      eq(queue ? *queue : sys.eventQueue()),
      nic(sys.kernel().devices(), "eth0", params_in.nic),
      timed(sys.memoryPort(), &sys.pmemStore()),
      kv(sys.pmemStore(), timed, params_in.kv),
      injector(sys.pmemStore()),
      sysPc(timed),
      sCheck(timed, params_in.scheckPeriod),
      recorder(params_in.goodputWindow),
      rng(params_in.rngSeed),
      scrambleRng(params_in.scrambleSeed)
{}

// --- serving path -------------------------------------------------

void
ServiceNode::rxArrive(const RpcRequest &req)
{
    if (!powerOn)
        return;  // lost on the wire to a dark machine
    nic.rxPush(req);  // counts its own full/link-down drops
    kickService();
}

void
ServiceNode::kickService()
{
    if (!canServe() || serverBusy)
        return;
    const Tick now = eq.now();
    RpcRequest r;
    // Admission from the RX ring; backpressure answers at once.
    while (nic.rxPop(r)) {
        if (!kv.admit(r)) {
            RpcResponse rej = answerTo(r);
            rej.status = RpcStatus::Rejected;
            rej.servedAt = now;
            host.stamp(*this, rej);
            nic.txPush(rej);
        }
    }
    RpcRequest head;
    if (!kv.queuePop(head)) {
        kickTx();
        return;
    }
    serverBusy = true;
    Tick t = now;
    pendingDeferred = false;
    const NodeHost::PutRoute route = head.op == workload::KvOp::Put
        ? host.routePut(*this, head, t, pendingResp)
        : NodeHost::PutRoute::Local;
    if (route == NodeHost::PutRoute::Local) {
        pendingResp = kv.execute(t, head, &pendingDeferred);
        host.stamp(*this, pendingResp);
    }
    havePendingResp = route != NodeHost::PutRoute::Replicating;
    eq.schedule(t, guarded([this] { serviceDone(); }));
    kickTx();
}

void
ServiceNode::serviceDone()
{
    serverBusy = false;
    if (havePendingResp) {
        if (pendingDeferred) {
            // The ack waits for the group commit that makes its
            // record durable; commitFire() releases it.
            deferredAcks.push_back(pendingResp);
            maybeScheduleCommit();
        } else {
            nic.txPush(pendingResp);
        }
        havePendingResp = false;
        pendingDeferred = false;
    }
    kickTx();
    kickService();
}

void
ServiceNode::kickTx()
{
    if (!powerOn || txDraining || nic.txOccupancy() == 0)
        return;
    txDraining = true;
    eq.scheduleIn(params.txDrainInterval,
                  guarded([this] { txDrainFire(); }));
}

void
ServiceNode::txDrainFire()
{
    txDraining = false;
    RpcResponse resp;
    if (!nic.txPop(resp))
        return;
    // On the wire: delivery happens even if the machine dies now.
    eq.scheduleIn(params.wireLatency,
                  [this, resp] { host.deliver(resp); });
    kickTx();
}

void
ServiceNode::releaseAcks(Tick at,
                         std::shared_ptr<std::vector<RpcResponse>> batch)
{
    // servedAt is the release tick — strictly after the durability
    // point of what the acks cover, so the outage close predicate
    // stays sound. (shared_ptr keeps the closure inside the queue's
    // inline-storage bound.)
    eq.schedule(at, guarded([this, batch] {
        const Tick now = eq.now();
        for (RpcResponse resp : *batch) {
            resp.servedAt = now;
            nic.txPush(resp);
        }
        kickTx();
    }));
}

// --- op-log group commit / background drain -----------------------

void
ServiceNode::deferAcks(const std::vector<RpcResponse> &acks)
{
    deferredAcks.insert(deferredAcks.end(), acks.begin(), acks.end());
    maybeScheduleCommit();
}

void
ServiceNode::maybeScheduleCommit()
{
    if (params.mode != PersistMode::OpLog)
        return;
    if (kv.logUncommittedRecords() >= params.oplogCommitRecords) {
        commitFire();
        return;
    }
    if (commitScheduled)
        return;
    commitScheduled = true;
    eq.scheduleIn(params.oplogCommitInterval, guarded([this] {
        commitScheduled = false;
        commitFire();
    }));
}

void
ServiceNode::commitFire()
{
    if (!canServe())
        return;
    Tick t = eq.now();
    kv.logCommit(t);
    host.logCommitted(*this, t);
    if (!deferredAcks.empty()) {
        // Release the batch's acks once the tail persist completed.
        auto batch = std::make_shared<std::vector<RpcResponse>>(
            std::move(deferredAcks));
        deferredAcks.clear();
        releaseAcks(t, std::move(batch));
    }
    scheduleDrain();
}

void
ServiceNode::scheduleDrain()
{
    if (params.mode != PersistMode::OpLog || drainScheduled
        || kv.logBacklogRecords() == 0)
        return;
    drainScheduled = true;
    eq.scheduleIn(params.oplogDrainInterval, guarded([this] {
        drainScheduled = false;
        drainFire();
    }));
}

void
ServiceNode::drainFire()
{
    if (!canServe())
        return;
    // The drain runs on a spare core: it charges the memory system
    // through its own timeline without blocking the serving path.
    Tick t = eq.now();
    kv.logDrain(t, params.oplogDrainBatch);
    scheduleDrain();
}

// --- S-CheckPC dump -------------------------------------------------

Tick
ServiceNode::scheckDump(Tick now)
{
    dumpStall = true;
    return sCheck.dumpCommitted(now, params.scheckVmBytes, rng.next());
}

// --- power cycle ----------------------------------------------------

void
ServiceNode::powerDown(Tick now)
{
    powerOn = false;
    serviceUp = false;
    endGeneration();
    pendingColdBoot = false;
    injector.armCut(now + params.holdup, rng.next());

    switch (params.mode) {
    case PersistMode::SnG:
    case PersistMode::OpLog: {
        if (params.mode == PersistMode::OpLog) {
            // Emergency group commit inside the hold-up: the cut is
            // armed a full hold-up out and the tail persist takes
            // microseconds, so every appended record becomes
            // durable.
            Tick t = now;
            kv.logCommit(t);
            host.logCommitted(*this, t);
        }
        // The in-flight request already committed its writes;
        // Drive-to-Idle drains its handler, and the unsent ack rides
        // the TX ring into the DCB. Group-commit acks flush to the
        // ring stamped at the event tick — they can narrow the
        // outage but never close it (strictly-after predicate); on a
        // cold boot the ring is lost and clients retry into the
        // dedup set instead.
        if (serverBusy && havePendingResp) {
            if (pendingDeferred)
                deferredAcks.push_back(pendingResp);
            else
                nic.txPush(pendingResp);
        }
        for (RpcResponse resp : deferredAcks) {
            resp.servedAt = now;
            nic.txPush(resp);
        }
        deferredAcks.clear();
        const auto stop = sys.sng().stop(now, params.holdup);
        stats.stopTicks += stop.totalTicks();
        stats.contextImagesSaved += stop.contextImagesSaved;
        pendingColdBoot = stop.commitFailed;
        break;
    }
    case PersistMode::SysPc:
        // Hibernate dump against a 16 ms hold-up: the image takes
        // seconds, so the commit record lands past the cut and the
        // durability cursor drops it.
        sysPc.dumpImageCommitted(now, sys.kernel().systemImageBytes(),
                                 rng.next());
        pendingColdBoot = true;
        break;
    case PersistMode::SCheckPc:
    case PersistMode::ACheckPc:
        pendingColdBoot = true;
        break;
    }
    serverBusy = false;
    havePendingResp = false;
    pendingDeferred = false;
}

void
ServiceNode::endGeneration()
{
    ++gen;
    // The guarded drain, commit and TX events die with the generation,
    // so the flags that say they are armed go with them.
    txDraining = false;
    commitScheduled = false;
    drainScheduled = false;
}

void
ServiceNode::killRecovery(Tick now)
{
    endGeneration();
    powerOn = false;
    injector.armCut(now, rng.next());
}

void
ServiceNode::powerRestored()
{
    injector.powerRestored();
    powerOn = true;
}

Tick
ServiceNode::restore(Tick now)
{
    switch (params.mode) {
    case PersistMode::SnG:
    case PersistMode::OpLog:
        if (!pendingColdBoot && sys.sng().hasCommit()) {
            // The rails ate the volatile side; Go must rebuild it
            // from the DCB images alone.
            sys.kernel().scramble(scrambleRng);
            nic.scrambleVolatile(scrambleRng);
            const auto go = sys.sng().resume(now);
            stats.goTicks += go.totalTicks();
            stats.contextImagesRestored += go.contextImagesRestored;
            stats.ringPreservedFrames +=
                nic.rxOccupancy() + nic.txOccupancy();
            ++stats.resumes;
            return go.done;
        }
        break;
    case PersistMode::SysPc:
        return coldBootRecover(sysPc.recover(now));
    case PersistMode::SCheckPc:
        return coldBootRecover(sCheck.recoverAfterLoss(now));
    case PersistMode::ACheckPc:
        break;
    }
    // No image to come back from: a plain cold reboot.
    pendingColdBoot = true;
    return coldBootRecover(now + imageCosts.coldReboot);
}

Tick
ServiceNode::coldBootRecover(Tick from)
{
    ++stats.coldBoots;
    // Reboot re-probes every driver; rings and queue are gone.
    auto &devices = sys.kernel().devices();
    for (std::size_t i = 0; i < devices.count(); ++i)
        devices.device(i).setSuspended(false);
    stats.ringFramesLost += nic.rxOccupancy() + nic.txOccupancy();
    nic.resetVolatile();
    kv.dropQueue();
    deferredAcks.clear();
    Tick t = from;
    kv.recover(t);
    return t;
}

void
ServiceNode::resumeService()
{
    serviceUp = true;
    kickService();
    kickTx();
    // A warm resume can come back with committed-but-undrained
    // records (and uncommitted appends the emergency flush covered);
    // restart the commit/drain cadence.
    maybeScheduleCommit();
    scheduleDrain();
}

} // namespace lightpc::net
