#include "net/service_plane.hh"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "mem/timed_mem.hh"
#include "net/service_node.hh"
#include "sim/digest.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/parallel.hh"

namespace lightpc::net
{

const char *
persistModeName(PersistMode mode)
{
    switch (mode) {
    case PersistMode::SnG: return "LightPC-SnG";
    case PersistMode::SysPc: return "SysPC";
    case PersistMode::SCheckPc: return "S-CheckPC";
    case PersistMode::ACheckPc: return "A-CheckPC";
    case PersistMode::OpLog: return "SnG-OpLog";
    }
    return "?";
}

void
ServiceOutage::measure(const OutageRecord &rec, Tick off_dwell)
{
    lastSuccessBefore = rec.lastSuccessBefore;
    firstSuccessAfter = rec.closed ? rec.firstSuccessAfter : maxTick;
    downtime = rec.downtime();
    attributable = downtime == maxTick ? maxTick
        : downtime > off_dwell        ? downtime - off_dwell
                                      : 0;
}

void
noteViolation(std::vector<std::string> &violations,
              const std::string &msg)
{
    if (std::find(violations.begin(), violations.end(), msg)
        == violations.end())
        violations.push_back(msg);
}

namespace
{

/**
 * Fixed-latency port for the scratch-copy durability audit: the
 * audit replays recovery against a *copy* of the PMEM store, and
 * must not perturb the live PSM pipeline's timing state.
 */
struct OraclePort : mem::MemoryPort
{
    mem::AccessResult
    access(const mem::MemRequest &, Tick when) override
    {
        mem::AccessResult r;
        r.completeAt = when + 50 * tickNs;
        r.mediaFreeAt = r.completeAt;
        return r;
    }
};

NodeParams
nodeParamsFor(const ServiceConfig &cfg)
{
    NodeParams np = nodeParamsOf(cfg);
    np.rngSeed = cfg.seed ^ 0x5eedf00dULL;
    np.scrambleSeed = cfg.seed ^ 0x7a57eULL;
    return np;
}

FleetParams
fleetParamsFor(const ServiceConfig &cfg)
{
    FleetParams fp = cfg.fleet;
    fp.seed = fp.seed ^ (cfg.seed * 0x9e3779b97f4a7c15ULL);
    return fp;
}

/**
 * One live run: one ServiceNode on its own System's event queue, the
 * client fleet, and the cut schedule. Event closures capture only
 * `this`.
 */
struct Plane final : NodeHost
{
    const ServiceConfig &cfg;
    ServiceNode node;
    EventQueue &eq;
    ClientFleet fleet;
    ClientLoop clients;

    ServiceResult res;

    explicit Plane(const ServiceConfig &config)
        : cfg(config),
          node(nodeParamsFor(config), *this),
          eq(node.eq),
          fleet(fleetParamsFor(config)),
          clients(config, eq, fleet,
                  [this](const RpcRequest &) -> ServiceNode & {
                      return node;
                  })
    {
        res.mode = cfg.mode;
        res.modeName = persistModeName(cfg.mode);
    }

    // --- client side ----------------------------------------------

    void
    deliver(const RpcResponse &resp) override
    {
        const Tick now = eq.now();
        const Tick first = fleet.firstIssuedAt(resp.reqId);
        const auto outcome = fleet.onResponse(resp, now);
        if (outcome == ClientFleet::AckOutcome::Completed)
            node.recorder.onSuccess(now, first, resp.servedAt);
    }

    // --- stats ----------------------------------------------------

    void
    samplerFire()
    {
        node.recorder.sample(eq.now());
        if (eq.now() + cfg.goodputWindow <= cfg.runFor + cfg.drainGrace)
            eq.scheduleIn(cfg.goodputWindow, [this] { samplerFire(); },
                          EventPriority::Stats);
    }

    // --- S-CheckPC periodic dump ----------------------------------

    /**
     * The dump timer runs through outages, and a dump cut short by
     * one still ends on its own schedule.
     */
    void
    scheckDumpFire()
    {
        const Tick now = eq.now();
        if (node.canServe()) {
            const Tick done = node.scheckDump(now);
            eq.schedule(done, [this] {
                node.dumpStall = false;
                node.kickService();
            });
        }
        eq.schedule(now + cfg.scheckPeriod,
                    [this] { scheckDumpFire(); });
    }

    // --- power events ---------------------------------------------

    void
    powerFailFire(Tick probe_deadline, std::uint32_t follow_ups_left = 0,
                  bool is_follow_up = false)
    {
        const Tick now = eq.now();
        // Never cut into an outage still in progress; and (when
        // configured) hold the cut until the service is mid-flight.
        // Follow-up storm cuts carry an already-expired probe
        // deadline, so they fire the instant the service is back up.
        if (!node.powerOn || !node.serviceUp
            || (cfg.cutUnderLoad && !node.midFlight()
                && now < probe_deadline)) {
            eq.scheduleIn(
                cfg.cutProbeInterval,
                [this, probe_deadline, follow_ups_left, is_follow_up] {
                    powerFailFire(probe_deadline, follow_ups_left,
                                  is_follow_up);
                },
                EventPriority::PowerEvent);
            return;
        }
        if (is_follow_up)
            ++res.stormFollowUpCuts;
        node.recorder.outageBegin(now);
        node.powerDown(now);

        ServiceOutage o;
        o.eventAt = now;
        o.coldBoot = node.pendingColdBoot;
        res.outages.push_back(o);
        eq.schedule(now + cfg.offDwell, [this] { powerRestoreFire(); },
                    EventPriority::PowerEvent);

        if (follow_ups_left > 0) {
            // The next storm cut lands just past this restoration;
            // the up-front guard then holds it until the recovery
            // actually completes.
            const Tick next_at = now + cfg.offDwell + cfg.stormSpacing;
            eq.schedule(
                next_at,
                [this, next_at, follow_ups_left] {
                    powerFailFire(next_at, follow_ups_left - 1, true);
                },
                EventPriority::PowerEvent);
        }
    }

    void
    powerRestoreFire()
    {
        const Tick now = eq.now();
        node.powerRestored();
        const Tick upAt = node.restore(now);
        res.outages.back().coldBoot = node.pendingColdBoot;
        eq.schedule(upAt, [this] { serviceUpFire(); });
    }

    void
    serviceUpFire()
    {
        node.resumeService();
        // Audit acked-write durability right after every recovery.
        verifyInvariants();
    }

    // --- verification ---------------------------------------------

    void
    violation(const std::string &msg)
    {
        noteViolation(res.violations, msg);
    }

    void
    verifyInvariants()
    {
        if (cfg.mode == PersistMode::OpLog) {
            // Audit what a crash *right now* would recover to: copy
            // the PMEM store, reopen the pool and replay the op log
            // over the copy, and check the ledger against that. A
            // fixed-latency port keeps the audit off the live PSM
            // pipeline's timing state.
            OraclePort port;
            mem::BackingStore scratch;
            scratch.copyContentsFrom(node.sys.pmemStore());
            mem::TimedMem stm(port, &scratch);
            KvService audit(scratch, stm, node.kv.params());
            Tick t = 0;
            audit.recover(t);
            auditDurable(audit);
        } else {
            auditDurable(node.kv);
        }
    }

    void
    auditDurable(const KvService &svc)
    {
        const auto ids = svc.appliedIds();
        std::unordered_set<std::uint64_t> applied(ids.begin(),
                                                  ids.end());
        std::uint64_t duplicates = 0;
        if (applied.size() != ids.size()) {
            duplicates += ids.size() - applied.size();
            violation("duplicate request ID in persistent dedup set");
        }
        if (svc.appliedCount() != ids.size() + svc.compactedCount()) {
            ++duplicates;
            violation("applied counter disagrees with dedup set size "
                      "+ compacted count");
        }
        for (const std::uint64_t id : ids) {
            if (fleet.putKeyOf(id) == 0)
                violation("dedup set holds an unknown request ID");
        }

        // An acked PUT's ID may legally be gone only once compaction's
        // retention floor has passed it (no conforming client can
        // still retry); its version must survive regardless.
        const Tick floor = svc.dedupFloor();
        const Tick ackSlack =
            cfg.offDwell + cfg.holdup + cfg.requestDeadline;
        std::uint64_t lost = 0;
        for (const AckedPut &put : fleet.ackedPuts()) {
            if (!applied.count(put.reqId)
                && !(floor != 0 && put.ackedAt < floor + ackSlack))
                ++lost;
            const auto state = svc.lookup(put.key);
            if (!state || state->version < put.version)
                violation("acked PUT's key version regressed");
        }
        if (lost)
            violation("acknowledged PUT missing from dedup set "
                      "(acked-then-lost)");

        std::uint64_t versionSum = 0;
        const std::uint64_t key_space = fleet.params().mix.keySpace;
        for (std::uint64_t key = 1; key <= key_space; ++key) {
            if (const auto state = svc.lookup(key))
                versionSum += state->version;
        }
        if (versionSum != svc.appliedCount()) {
            ++duplicates;
            violation("key version sum != applied PUT count "
                      "(double apply)");
        }

        res.lostAckedPuts = lost;
        res.duplicateApplied = duplicates;
    }

    // --- assembly -------------------------------------------------

    void
    finish()
    {
        sim::foldFrom(res, fleet.stats(), serviceResultFields);
        sim::foldFrom(res, node.kv.stats(), serviceResultFields);
        sim::foldFrom(res, node.nic.stats(), serviceResultFields);
        sim::foldFrom(res, node.stats, serviceResultFields);
        res.appliedCount = node.kv.appliedCount();

        AvailabilityRecorder &recorder = node.recorder;
        auto &lat = recorder.latency();
        res.meanUs = recorder.latencySummaryUs().mean();
        res.p50Us = ticksToUs(lat.percentile(0.50));
        res.p99Us = ticksToUs(lat.percentile(0.99));
        res.p999Us = ticksToUs(lat.percentile(0.999));

        res.goodputMean = static_cast<double>(res.completed)
            / (static_cast<double>(cfg.runFor)
               / static_cast<double>(tickSec));
        for (const auto &s : recorder.goodputSeries().samples())
            res.goodput.emplace_back(s.when, s.value);

        const auto &outs = recorder.outageRecords();
        for (std::size_t i = 0;
             i < outs.size() && i < res.outages.size(); ++i) {
            ServiceOutage &o = res.outages[i];
            o.measure(outs[i], cfg.offDwell);
            res.worstDowntime =
                std::max(res.worstDowntime, o.downtime);
            res.worstAttributable =
                std::max(res.worstAttributable, o.attributable);
        }

        sim::Fnv64 d;
        sim::digest(d, res, serviceResultFields);
        d.mix(lat.percentile(0.99));
        d.mix(recorder.lastSuccessAt());
        for (const ServiceOutage &o : res.outages)
            d.mix(o.downtime);
        res.digest = d.h;
    }

    ServiceResult
    run()
    {
        clients.start();
        eq.schedule(cfg.goodputWindow, [this] { samplerFire(); },
                    EventPriority::Stats);
        const Tick spacing = cfg.runFor / (cfg.cuts + 1);
        for (std::uint32_t k = 0; k < cfg.cuts; ++k) {
            const Tick at = spacing * (k + 1);
            const Tick deadline = at + spacing / 2;
            eq.schedule(
                at,
                [this, deadline] {
                    powerFailFire(deadline, cfg.stormFollowUps);
                },
                EventPriority::PowerEvent);
        }
        if (cfg.mode == PersistMode::SCheckPc)
            eq.schedule(cfg.scheckPeriod,
                        [this] { scheckDumpFire(); });

        eq.run(cfg.runFor + cfg.drainGrace);

        verifyInvariants();
        finish();
        return res;
    }
};

} // namespace

void
validateServiceConfig(const ServiceConfig &config)
{
    validateServingKnobs(config, "ServiceConfig");
    if (config.stormFollowUps > 0 && config.cuts == 0)
        fatal("ServiceConfig: stormFollowUps = ",
              config.stormFollowUps,
              " without any cuts never fires; set cuts >= 1 or "
              "stormFollowUps = 0");
    if (config.cuts > 0 && config.runFor / (config.cuts + 1) == 0)
        fatal("ServiceConfig: runFor too short for ", config.cuts,
              " cuts");
}

ServiceResult
runService(const ServiceConfig &config)
{
    validateServiceConfig(config);
    Plane plane(config);
    return plane.run();
}

std::vector<ServiceResult>
runServiceSuite(const std::vector<ServiceConfig> &configs,
                unsigned threads)
{
    sim::ParallelExecutor pool(threads);
    return pool.map<ServiceResult>(
        configs.size(),
        [&configs](std::uint64_t i) { return runService(configs[i]); });
}

} // namespace lightpc::net
