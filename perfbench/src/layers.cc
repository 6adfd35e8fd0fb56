#include "layers.hh"

#include <optional>

#include "cluster/cluster.hh"
#include "mem/timed_mem.hh"
#include "net/kv_service.hh"
#include "platform/system.hh"
#include "sim/rng.hh"
#include "stats.hh"
#include "workload/service_mix.hh"

using namespace lightpc;

namespace perfbench
{

namespace
{

/** Operations per KvService probe path. */
constexpr std::uint32_t kvProbeOps = 3000;
constexpr std::uint32_t kvProbeMetaWrites = 200;

const net::PersistMode allModes[] = {
    net::PersistMode::SnG,      net::PersistMode::OpLog,
    net::PersistMode::SysPc,    net::PersistMode::SCheckPc,
    net::PersistMode::ACheckPc,
};

double
ms(std::int64_t ns)
{
    return static_cast<double>(ns) / 1e6;
}

void
put(Metrics &m, const std::string &name, double value,
    const std::string &unit)
{
    m[name] = Metric{value, unit};
}

/** The 1-thread replay of every fleet trial, one span per trial. */
void
replayFleet(std::uint64_t seed, Tracer &tracer, std::uint32_t track,
            double campaign_ms, Metrics &m, Outcome &replay)
{
    const fault::PartitionCampaignConfig cfg = fleetConfig(seed);
    const std::uint64_t trials = fault::partitionCampaignTrials(cfg);
    std::vector<double> trial_ms;
    std::map<std::string, double> mode_ms;
    // SnG write availability summed per grid cell, as the campaign does.
    std::map<std::uint64_t, std::pair<double, std::uint64_t>> sng_avail;
    cluster::ClusterResult sum;
    std::uint64_t audited = 0;
    {
        Scope all(&tracer, "replay", track);
        for (std::uint64_t i = 0; i < trials; ++i) {
            const cluster::ClusterConfig cc =
                fault::partitionTrialConfig(cfg, i);
            const std::int64_t t0 = nowNs();
            cluster::ClusterResult r;
            {
                Scope span(&tracer, "cluster::runCluster", track,
                           static_cast<std::int64_t>(i));
                r = cluster::runCluster(cc);
            }
            const double dt = ms(nowNs() - t0);
            trial_ms.push_back(dt);
            mode_ms[r.modeName] += dt;
            if (cc.mode == net::PersistMode::SnG) {
                // Canonical grid order: intensity, then mode, then seed.
                auto &[acc, n] = sng_avail[i / cfg.seedsPerCell];
                acc += r.writeAvailability;
                ++n;
            }
            sum.attempts += r.attempts;
            sum.commits += r.commits;
            sum.retransmits += r.retransmits;
            sum.syncBytes += r.syncBytes;
            sum.elections += r.elections;
            sum.msgsDropped += r.msgsDropped;
            sum.msgsReordered += r.msgsReordered;
            sum.coldBoots += r.coldBoots;
            audited += r.auditedWrites + r.auditedReads;
            ++replay.trials;
            if (!r.violations.empty() || r.lostAckedPuts
                || r.splitBrainEpochs || r.divergentCommits) {
                ++replay.failedTrials;
                replay.notes.push_back("replayed trial "
                                       + std::to_string(i) + " failed");
            }
        }
    }

    double avail = 0.0;
    for (const auto &[cell, acc] : sng_avail)
        avail += acc.first / double(acc.second);
    replay.sims["sim_sng_write_avail"] =
        sng_avail.empty() ? 0.0 : avail / double(sng_avail.size());

    double serial_ms = 0.0;
    for (const double t : trial_ms)
        serial_ms += t;
    put(m, "parallel.efficiency",
        serial_ms / (double(cfg.threads) * campaign_ms), "ratio");
    put(m, "cluster.trial_ms_p50", median(trial_ms), "ms");
    if (tailPercentile(trial_ms.size()) >= 90.0)
        put(m, "cluster.trial_ms_p90", percentile(trial_ms, 90.0), "ms");
    put(m, "cluster.trial_ms_max", percentile(trial_ms, 100.0), "ms");
    for (const net::PersistMode mode : allModes) {
        const std::string name = net::persistModeName(mode);
        put(m, "cluster.mode_ms." + name, mode_ms[name], "ms");
    }
    put(m, "cluster.attempts", double(sum.attempts), "count");
    put(m, "cluster.commits", double(sum.commits), "count");
    put(m, "cluster.retransmits", double(sum.retransmits), "count");
    put(m, "cluster.sync_bytes", double(sum.syncBytes), "bytes");
    put(m, "cluster.elections", double(sum.elections), "count");
    put(m, "nemesis.dropped", double(sum.msgsDropped), "count");
    put(m, "nemesis.reordered", double(sum.msgsReordered), "count");
    put(m, "power.cold_boots", double(sum.coldBoots), "count");
    put(m, "audit.ops", double(audited), "count");
    put(m, "cluster.host_us_per_attempt",
        sum.attempts ? serial_ms * 1e3 / double(sum.attempts) : 0.0, "us");
}

/**
 * A standalone KvService on a fresh LightPC store, driven with the
 * kv_service mix through one write path.
 */
void
probeKv(std::uint64_t seed, net::WritePath path, Tracer &tracer,
        std::uint32_t track, Metrics &m, Outcome &probe)
{
    const bool oplog = path == net::WritePath::OpLog;
    const std::string tag = oplog ? "OpLog" : "Undo";

    platform::SystemConfig sc;
    sc.kind = platform::PlatformKind::LightPC;
    sc.seed = seed;
    platform::System sys(sc);
    mem::TimedMem timed(sys.memoryPort(), &sys.pmemStore());
    net::KvParams params;
    params.writePath = path;

    Tick t = 0;
    std::optional<net::KvService> kv;
    {
        Scope span(&tracer, "net::KvService::KvService", track);
        kv.emplace(sys.pmemStore(), timed, params);
    }
    const double open_ms = ms(tracer.spans().back().durationNs());

    const workload::ServiceMix mix = workload::ServiceMix::updateHeavy();
    Rng rng(seed ^ 0x6b7670726f6265ULL);  // "kvprobe"
    std::vector<double> put_us, get_us;
    std::uint64_t failed_ops = 0;
    for (std::uint32_t i = 0; i < kvProbeOps; ++i) {
        net::RpcRequest req;
        req.reqId = i + 1;
        req.op = mix.pickOp(rng);
        req.key = mix.pickKey(rng);
        req.valueSeed = rng.next();
        req.scanLength = mix.scanLength;
        req.firstIssuedAt = t;
        const std::int64_t t0 = nowNs();
        net::RpcResponse resp;
        {
            Scope span(&tracer,
                       std::string("net::KvService::execute.")
                           + workload::kvOpName(req.op),
                       track, i);
            resp = kv->execute(t, req);
        }
        const double us = static_cast<double>(nowNs() - t0) / 1e3;
        if (req.op == workload::KvOp::Put)
            put_us.push_back(us);
        else if (req.op == workload::KvOp::Get)
            get_us.push_back(us);
        const bool ok = resp.status == net::RpcStatus::Ok
            || (req.op == workload::KvOp::Get
                && resp.status == net::RpcStatus::NotFound);
        failed_ops += ok ? 0 : 1;
        if (oplog && kv->logUncommittedRecords() >= 16) {
            Scope span(&tracer, "net::KvService::logCommit", track);
            kv->logCommit(t);
        }
        if (oplog && kv->logBacklogRecords() >= 32) {
            Scope span(&tracer, "net::KvService::logDrain", track);
            kv->logDrain(t, 32);
        }
    }
    if (oplog) {
        kv->logCommit(t);
        kv->logDrainAll(t);
    }

    std::vector<double> meta_us;
    net::ClusterMeta meta = kv->clusterMeta();
    for (std::uint32_t i = 0; i < kvProbeMetaWrites; ++i) {
        ++meta.seq;
        meta.commit = meta.seq;
        const std::int64_t t0 = nowNs();
        {
            Scope span(&tracer, "net::KvService::persistClusterMeta",
                       track);
            kv->persistClusterMeta(t, meta);
        }
        meta_us.push_back(static_cast<double>(nowNs() - t0) / 1e3);
    }

    const std::uint64_t applied = kv->appliedCount();
    kv->dropQueue();
    std::int64_t t0 = nowNs();
    {
        Scope span(&tracer, "net::KvService::recover", track);
        kv->recover(t);
    }
    const double recover_ms = ms(nowNs() - t0);
    ++probe.trials;
    if (failed_ops || kv->appliedCount() != applied
        || kv->clusterMeta().seq != meta.seq) {
        ++probe.failedTrials;
        probe.notes.push_back("KvService probe (" + tag + "): "
                              + std::to_string(failed_ops)
                              + " requests refused, or recovery lost"
                                " state");
    }

    put(m, "kv.open_ms." + tag, open_ms, "ms");
    put(m, "kv.put_us." + tag, median(put_us), "us");
    put(m, "kv.get_us." + tag, median(get_us), "us");
    put(m, "kv.recover_ms." + tag, recover_ms, "ms");
    put(m, "kv.persist_meta_us." + tag, median(meta_us), "us");
    put(m, "store.pages." + tag,
        double(sys.pmemStore().materializedPages()), "count");
    if (oplog) {
        put(m, "kv.log_appends", double(kv->stats().logAppends), "count");
        put(m, "kv.log_commits", double(kv->stats().logCommits), "count");
    }
}

/** A per-layer count of @p o, 0 when the workload has none. */
double
layer(const Outcome &o, const std::string &name)
{
    const auto it = o.layers.find(name);
    return it == o.layers.end() ? 0.0 : it->second;
}

/** Wall ms of one untraced run of a prepared workload. */
double
untracedMs(const Runner &run)
{
    const std::int64_t t0 = nowNs();
    run(nullptr, 0);
    return ms(nowNs() - t0);
}

} // namespace

void
runTraced(const std::map<std::string, std::uint64_t> &seeds,
          Tracer &tracer, Metrics &m,
          std::map<std::string, Outcome> &outcomes)
{
    std::map<std::string, Runner> runners;
    std::map<std::string, std::uint32_t> tracks;
    for (const WorkloadDef &w : workloads()) {
        runners[w.name] = w.prepare(seeds.at(w.name));
        tracks[w.name] = tracer.track(w.name);
    }
    std::map<std::string, double> before;
    auto traced = [&](const std::string &name) {
        if (name != "fleet_nemesis")
            before[name] = untracedMs(runners[name]);
        const std::int64_t t0 = nowNs();
        outcomes[name] = runners[name](&tracer, tracks[name]);
        return ms(nowNs() - t0);
    };

    // fleet_nemesis: the campaign on every host thread, then each
    // trial again on this thread for its own host time.
    const double campaign_ms = traced("fleet_nemesis");
    Outcome replay;
    replayFleet(seeds.at("fleet_nemesis"), tracer, tracks["fleet_nemesis"],
                campaign_ms, m, replay);
    outcomes["fleet_nemesis.replay"] = replay;

    // kv_service: one span per runService call, then the probe.
    const double kv_ms = traced("kv_service");
    const double attempts = layer(outcomes["kv_service"], "net.attempts");
    for (const net::PersistMode mode : allModes) {
        const std::string name = net::persistModeName(mode);
        put(m, "net.mode_ms." + name,
            ms(tracer.totalNs("net::runService." + name)), "ms");
    }
    put(m, "net.host_us_per_request",
        attempts ? kv_ms * 1e3 / attempts : 0.0, "us");
    Outcome probe;
    for (const net::WritePath path :
         {net::WritePath::Undo, net::WritePath::OpLog})
        probeKv(seeds.at("kv_service"), path, tracer, tracks["kv_service"],
                m, probe);
    outcomes["kv_service.probe"] = probe;

    // machine_sng: build / run / Stop / Go spans per trial.
    const double machine_ms = traced("machine_sng");
    const Outcome &mach = outcomes["machine_sng"];
    const double light_ms = ms(tracer.totalNs("platform::System::run.LightPC"));
    const double legacy_ms =
        ms(tracer.totalNs("platform::System::run.LegacyPC"));
    const double instrs = layer(mach, "cpu.instructions");
    const double psm_accesses = layer(mach, "psm.accesses");
    put(m, "platform.build_ms",
        median(tracer.durationsMs("platform::System::System")), "ms");
    put(m, "platform.run_ms.LightPC", light_ms, "ms");
    put(m, "platform.run_ms.LegacyPC", legacy_ms, "ms");
    put(m, "pecos.stop_ms", ms(tracer.totalNs("pecos::Sng::stop")), "ms");
    put(m, "pecos.resume_ms", ms(tracer.totalNs("pecos::Sng::resume")),
        "ms");
    put(m, "cpu.host_ns_per_instr",
        instrs ? (light_ms + legacy_ms) * 1e6 / instrs : 0.0, "ns");
    put(m, "psm.host_ns_per_access_est",
        psm_accesses ? (light_ms - legacy_ms) * 1e6 / psm_accesses : 0.0,
        "ns");
    put(m, "cpu.instructions", instrs, "count");
    put(m, "cache.load_hit_rate", layer(mach, "cache.load_hit_rate"),
        "ratio");
    put(m, "psm.accesses", psm_accesses, "count");
    put(m, "psm.row_hit_rate",
        psm_accesses ? layer(mach, "psm.row_hits") / psm_accesses : 0.0,
        "ratio");
    put(m, "psm.blocked_reads", layer(mach, "psm.blocked_reads"), "count");
    put(m, "pecos.dirty_lines_flushed",
        layer(mach, "pecos.dirty_lines_flushed"), "count");

    // ras_media: one span around the campaign.
    const double ras_ms = traced("ras_media");
    const Outcome &ras = outcomes["ras_media"];
    put(m, "ras.campaign_ms", ras_ms, "ms");
    for (const char *name :
         {"psm.checked_reads", "psm.corrected_reads",
          "psm.symbol_corrections", "psm.retired_lines",
          "psm.scrubbed_lines"})
        put(m, name, layer(ras, name), "count");
    const double checked = layer(ras, "psm.checked_reads");
    put(m, "psm.host_ns_per_checked_read",
        checked ? ras_ms * 1e6 / checked : 0.0, "ns");

    // Tracing overhead: each 1-thread workload ran untraced just before
    // its traced run and runs untraced once more here; the traced time
    // is compared with the mean of the two.
    double traced_ms = 0.0;
    double plain_ms = 0.0;
    for (const auto &[name, ms_traced] :
         {std::pair{"kv_service", kv_ms}, std::pair{"machine_sng", machine_ms},
          std::pair{"ras_media", ras_ms}}) {
        traced_ms += ms_traced;
        plain_ms += 0.5 * (before[name] + untracedMs(runners[name]));
    }
    put(m, "trace.overhead_ms", traced_ms - plain_ms, "ms");
    put(m, "trace.overhead_pct", 100.0 * (traced_ms - plain_ms) / plain_ms,
        "%");
}

} // namespace perfbench
