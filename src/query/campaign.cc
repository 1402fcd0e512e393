#include "query/campaign.h"

#include <atomic>
#include <utility>

#include "ldx/snapshot.h"
#include "support/diag.h"

namespace ldx::query {

namespace {

CacheKey
keyOf(const CampaignResult &res, const CampaignQuery &q)
{
    CacheKey key;
    key.programHash = res.programHash;
    key.worldHash = res.worldHash;
    key.sourceId = q.cacheSourceId();
    key.policy = core::mutationStrategyName(q.strategy);
    return key;
}

} // namespace

CampaignResult
runCampaign(const ir::Module &module, const os::WorldSpec &world,
            const CampaignConfig &cfg)
{
    if (cfg.jobs < 1)
        fatal("campaign requires jobs >= 1");
    if (cfg.queueCap < 1)
        fatal("campaign requires queue-cap >= 1");
    if (cfg.cacheCapacity < 1)
        fatal("campaign requires cache-cap >= 1");
    if (cfg.policies.empty())
        fatal("campaign requires at least one mutation policy");
    if (cfg.snapshot && cfg.siteProfile)
        fatal("campaign snapshot mode is incompatible with site "
              "profiling (a fork's site counters would miss the "
              "prefix's attribution)");

    obs::Registry fallback;
    obs::Registry *reg = cfg.registry ? cfg.registry : &fallback;
    obs::PhaseTimer timer(cfg.traceSink);

    CampaignResult res;

    // Predecode the module once and share the streams across the
    // baseline run and every query VM (master and slave alike), so a
    // campaign of N queries does not flatten the program 2N+1 times.
    // A caller-provided predecode (e.g. the one `ldx campaign
    // --site-profile-out` shares with its heat map) is reused as-is.
    vm::MachineConfig vm_config = cfg.vmConfig;
    if (vm_config.predecode && !vm_config.predecoded) {
        timer.begin("campaign.predecode");
        auto shared =
            std::make_shared<vm::PredecodedModule>(module);
        shared->decodeAll();
        vm_config.predecoded = std::move(shared);
        timer.end();
    }

    timer.begin("campaign.enumerate");
    EnumerateOptions eopts;
    eopts.sinks = cfg.sinks;
    eopts.eventCap = cfg.eventCap;
    eopts.vmConfig = vm_config;
    res.baseline = enumerateBaseline(module, world, eopts);
    timer.end();

    // Plan: queryable sources x policies, in enumeration order. The
    // query index is the aggregation order — everything downstream is
    // slot-addressed by it, which is what makes the campaign's output
    // independent of scheduling.
    timer.begin("campaign.plan");
    res.programHash = hashProgram(module);
    res.worldHash = hashWorld(world);
    for (const SourceCandidate *src : res.baseline.queryableSources()) {
        for (core::MutationStrategy policy : cfg.policies) {
            CampaignQuery q;
            q.index = res.queries.size();
            q.sourceId = src->id;
            q.sourceResource = src->resource;
            q.spec = src->spec;
            q.spec.offset = cfg.offset;
            q.strategy = policy;
            res.queries.push_back(std::move(q));
        }
    }
    timer.end();

    if (cfg.siteProfile)
        checkInvariant(vm_config.predecode,
                       "site profiling requires predecode");

    res.verdicts.assign(res.queries.size(), std::nullopt);
    res.outcomes.assign(res.queries.size(), RunOutcome{});
    res.fromCache.assign(res.queries.size(), false);
    res.queryProfiles.assign(res.queries.size(), {});

    // Live aggregates: the progress meter and exporter read the
    // planned total while the pool is still draining, so it must be
    // set up front (the campaign.queries.total counter only lands
    // after aggregation).
    reg->gauge("campaign.queries.planned")
        .set(static_cast<double>(res.queries.size()));

    // Probe the cache on this thread; only misses reach the pool.
    // Every query's probe is a span on the pipeline lane; a hit
    // additionally emits the query's terminal `query.cached` marker.
    timer.begin("campaign.probe-cache");
    // An offline campaign owns a one-shard cache (exactly one LRU);
    // `ldx serve` passes its process-wide sharded tier. Either way the
    // probe runs on this thread so only misses reach the pool.
    std::optional<ShardedResultCache> own_cache;
    ShardedResultCache *cache = cfg.sharedCache;
    if (!cache)
        cache = &own_cache.emplace(cfg.cacheCapacity, 1, cfg.cacheDir,
                                   nullptr);
    std::uint64_t probe_hits = 0, probe_misses = 0;
    std::vector<std::size_t> misses;
    for (const CampaignQuery &q : res.queries) {
        // Site profiling bypasses the cache: a cached verdict has no
        // counters, and the heat map must not depend on which queries
        // happened to be warm.
        if (cfg.siteProfile) {
            misses.push_back(q.index);
            continue;
        }
        std::int64_t probe_t0 = obs::nowUs();
        std::optional<QueryVerdict> v = cache->lookup(keyOf(res, q), reg);
        obs::emitSpan(cfg.traceSink, "query.probe", q.index,
                      obs::kPipelineLane, probe_t0,
                      obs::nowUs() - probe_t0);
        if (v) {
            ++probe_hits;
            res.verdicts[q.index] = std::move(*v);
            res.fromCache[q.index] = true;
            res.outcomes[q.index].status = RunStatus::Done;
            obs::emitSpan(cfg.traceSink, "query.cached", q.index,
                          obs::kPipelineLane, obs::nowUs(), -1);
            if (cfg.onVerdict)
                cfg.onVerdict(q, *res.verdicts[q.index], true);
        } else {
            ++probe_misses;
            misses.push_back(q.index);
        }
    }
    timer.end();

    timer.begin("campaign.execute");
    obs::Counter &dual_execs = reg->counter("campaign.dual.executions");
    std::atomic<std::uint64_t> ran{0};
    std::vector<std::optional<QueryVerdict>> miss_verdicts(misses.size());
    std::vector<std::vector<SiteHeatEntry>> miss_profiles(misses.size());
    // Snapshot tallies, accumulated by the workers and folded into the
    // registry after the pool drains (campaign.snapshot.*). The prefix
    // instruction count is measured in BOTH modes — per query by a
    // probe-only trigger when snapshot is off, per group by the
    // carrier's capture when on — so the two modes are comparable.
    std::atomic<std::uint64_t> snap_prefix_runs{0};
    std::atomic<std::uint64_t> snap_forks{0};
    std::atomic<std::uint64_t> snap_saved{0};
    std::atomic<std::uint64_t> prefix_instrs{0};
    auto runOne = [&](std::size_t j) {
        const CampaignQuery &q = res.queries[misses[j]];
        core::EngineConfig ecfg;
        ecfg.sinks = cfg.sinks;
        ecfg.driver = cfg.driver;
        ecfg.sources = {q.spec};
        ecfg.strategy = q.strategy;
        ecfg.threaded = cfg.threaded;
        ecfg.vmConfig = vm_config;
        // The per-query deadline is the engine's wall-clock cap; an
        // expired pair surfaces as deadlocked -> TimedOut verdict.
        ecfg.wallClockCap = cfg.deadlineSeconds;
        // Batch mode: skip the forensics ring; `ldx explain` is the
        // tool for digging into one pair.
        ecfg.flightRecorder = false;
        // Each query gets a private engine registry: DualResult's
        // legacy tallies are registry-backed and a shared one would
        // accumulate across queries.
        ecfg.registry = nullptr;
        // Probe (never pauses): measure this query's dual prefix —
        // instructions retired before the mutated source's first touch.
        core::SnapshotTrigger probe;
        probe.key = q.spec.resourceKey();
        probe.pauseOnHit = false;
        ecfg.trigger = &probe;
        obs::SiteCounters master_sites, slave_sites;
        if (cfg.siteProfile) {
            ecfg.masterSites = &master_sites;
            ecfg.slaveSites = &slave_sites;
        }
        dual_execs.inc();
        ran.fetch_add(1, std::memory_order_relaxed);
        core::DualEngine engine(module, world, ecfg);
        core::DualResult r = engine.run();
        if (probe.bothFired())
            prefix_instrs.fetch_add(
                probe.prefixInstrs[0].load(std::memory_order_relaxed) +
                    probe.prefixInstrs[1].load(std::memory_order_relaxed),
                std::memory_order_relaxed);
        miss_verdicts[j] = verdictFromResult(r);
        if (cfg.onVerdict)
            cfg.onVerdict(q, *miss_verdicts[j], false);
        if (cfg.siteProfile) {
            // Compact the dual counters into the hot (fn, idx) set:
            // master cost plus the retired delta against the slave.
            std::vector<SiteHeatEntry> prof;
            for (std::size_t f = 0; f < master_sites.numFns; ++f) {
                const auto &mr = master_sites.retired[f];
                const auto &sr = slave_sites.retired[f];
                for (std::size_t i = 0; i < mr.size(); ++i) {
                    if (!mr[i] && !sr[i])
                        continue;
                    SiteHeatEntry e;
                    e.fn = static_cast<std::uint32_t>(f);
                    e.idx = static_cast<std::uint32_t>(i);
                    e.retired = mr[i];
                    e.syscalls = master_sites.syscalls[f][i];
                    e.sysTicks = master_sites.sysTicks[f][i];
                    e.dRetired = mr[i] > sr[i] ? mr[i] - sr[i]
                                               : sr[i] - mr[i];
                    prof.push_back(e);
                }
            }
            miss_profiles[j] = std::move(prof);
        }
    };
    SchedulerConfig scfg;
    scfg.queueCap = cfg.queueCap;
    scfg.cancel = cfg.cancel;
    scfg.registry = reg;
    scfg.traceSink = cfg.traceSink;
    // An offline campaign is the only tenant of a pool of its own;
    // `ldx serve` runs every job as a tenant of one shared pool.
    std::optional<SharedPool> own_pool;
    SharedPool *workers = cfg.sharedPool;
    if (!workers)
        workers = &own_pool.emplace(SharedPool::Config{cfg.jobs, nullptr});
    std::vector<RunOutcome> pool;
    if (cfg.snapshot) {
        // Snapshot mode: the pool's unit of work is a *group* — the
        // missed policies of one planned source. The plan is
        // source-major, so query index / P identifies the group, and
        // `misses` (query-index order) keeps each group's slots
        // consecutive. The group's `query.exec` span carries its
        // first missed query's index.
        const std::size_t num_policies = cfg.policies.size();
        std::vector<std::vector<std::size_t>> groups;
        std::vector<std::size_t> group_spans;
        for (std::size_t j = 0; j < misses.size(); ++j) {
            std::size_t g = misses[j] / num_policies;
            if (groups.empty() ||
                misses[groups.back().front()] / num_policies != g) {
                groups.emplace_back();
                group_spans.push_back(misses[j]);
            }
            groups.back().push_back(j);
        }
        auto runGroup = [&](std::size_t k) {
            const std::vector<std::size_t> &slots = groups[k];
            const CampaignQuery &q0 = res.queries[misses[slots[0]]];
            core::EngineConfig ecfg;
            ecfg.sinks = cfg.sinks;
            ecfg.driver = cfg.driver;
            ecfg.sources = {q0.spec};
            ecfg.threaded = cfg.threaded;
            ecfg.vmConfig = vm_config;
            ecfg.wallClockCap = cfg.deadlineSeconds;
            ecfg.flightRecorder = false;
            ecfg.registry = nullptr;
            std::vector<core::MutationStrategy> policies;
            policies.reserve(slots.size());
            for (std::size_t j : slots)
                policies.push_back(res.queries[misses[j]].strategy);
            dual_execs.inc(slots.size());
            ran.fetch_add(slots.size(), std::memory_order_relaxed);
            core::SnapshotGroupStats gs;
            std::vector<core::DualResult> results =
                core::runSnapshotGroup(module, world, ecfg, policies,
                                       gs, cfg.chaosDropSnapshotPage);
            for (std::size_t i = 0; i < slots.size(); ++i) {
                miss_verdicts[slots[i]] = verdictFromResult(results[i]);
                if (cfg.onVerdict)
                    cfg.onVerdict(res.queries[misses[slots[i]]],
                                  *miss_verdicts[slots[i]], false);
            }
            snap_prefix_runs.fetch_add(gs.prefixRuns,
                                       std::memory_order_relaxed);
            snap_forks.fetch_add(gs.forks, std::memory_order_relaxed);
            snap_saved.fetch_add(gs.instrsSaved,
                                 std::memory_order_relaxed);
            prefix_instrs.fetch_add(gs.prefixInstrsExecuted,
                                    std::memory_order_relaxed);
        };
        scfg.spanIds = &group_spans;
        std::vector<RunOutcome> gpool =
            workers->runTenant(groups.size(), runGroup, scfg);
        // Fan each group's outcome back out to its per-query slots.
        pool.resize(misses.size());
        for (std::size_t k = 0; k < groups.size(); ++k)
            for (std::size_t j : groups[k])
                pool[j] = gpool[k];
    } else {
        scfg.spanIds = &misses;
        pool = workers->runTenant(misses.size(), runOne, scfg);
    }
    timer.end();

    // Fold pool results back into the per-query slots and populate
    // the cache — on this thread, in query-index order, so the cache
    // (and its disk tier) fills deterministically.
    timer.begin("campaign.aggregate");
    for (std::size_t j = 0; j < misses.size(); ++j) {
        std::size_t qi = misses[j];
        res.outcomes[qi] = pool[j];
        if (pool[j].status == RunStatus::Done && miss_verdicts[j]) {
            res.verdicts[qi] = std::move(miss_verdicts[j]);
            if (cache->store(keyOf(res, res.queries[qi]),
                             *res.verdicts[qi], reg))
                ++res.cacheEvictions;
            res.queryProfiles[qi] = std::move(miss_profiles[j]);
        }
    }
    // Disposition fold: exactly one campaign.queries.* bump per query
    // (mutually exclusive; they sum to campaign.queries.total), plus
    // the per-query engine tallies folded into campaign.dual.*
    // aggregates. Cancelled queries never reached a worker, so their
    // terminal span marker is emitted here, deterministically.
    obs::Counter &agg_completed =
        reg->counter("campaign.queries.completed");
    obs::Counter &agg_cached = reg->counter("campaign.queries.cached");
    obs::Counter &agg_timed_out =
        reg->counter("campaign.queries.timed_out");
    obs::Counter &agg_cancelled =
        reg->counter("campaign.queries.cancelled");
    obs::Counter &agg_failed = reg->counter("campaign.queries.failed");
    obs::Counter &agg_aligned =
        reg->counter("campaign.dual.aligned_syscalls");
    obs::Counter &agg_diffs =
        reg->counter("campaign.dual.syscall_diffs");
    obs::Counter &agg_findings = reg->counter("campaign.dual.findings");
    for (std::size_t i = 0; i < res.queries.size(); ++i) {
        switch (res.outcomes[i].status) {
          case RunStatus::Done: break;
          case RunStatus::Cancelled: ++res.cancelledQueries; break;
          case RunStatus::Failed: ++res.failedQueries; break;
        }
        if (res.verdicts[i] &&
            res.verdicts[i]->quality == VerdictQuality::TimedOut)
            ++res.timedOutQueries;

        if (res.fromCache[i]) {
            agg_cached.inc();
        } else if (res.outcomes[i].status == RunStatus::Cancelled) {
            agg_cancelled.inc();
            obs::emitSpan(cfg.traceSink, "query.cancelled", i,
                          obs::kPipelineLane, obs::nowUs(), -1);
        } else if (res.outcomes[i].status == RunStatus::Failed) {
            agg_failed.inc();
        } else if (res.verdicts[i] &&
                   res.verdicts[i]->quality ==
                       VerdictQuality::TimedOut) {
            agg_timed_out.inc();
        } else {
            agg_completed.inc();
        }
        if (!res.fromCache[i] && res.verdicts[i]) {
            agg_aligned.inc(res.verdicts[i]->alignedSyscalls);
            agg_diffs.inc(res.verdicts[i]->syscallDiffs);
            agg_findings.inc(res.verdicts[i]->findings);
        }
    }
    res.dualExecutions = ran.load(std::memory_order_relaxed);
    res.snapshotPrefixRuns =
        snap_prefix_runs.load(std::memory_order_relaxed);
    res.snapshotForks = snap_forks.load(std::memory_order_relaxed);
    res.snapshotInstrsSaved = snap_saved.load(std::memory_order_relaxed);
    res.prefixInstrs = prefix_instrs.load(std::memory_order_relaxed);
    reg->counter("campaign.snapshot.prefix_runs")
        .inc(res.snapshotPrefixRuns);
    reg->counter("campaign.snapshot.forks").inc(res.snapshotForks);
    reg->counter("campaign.snapshot.instrs_saved")
        .inc(res.snapshotInstrsSaved);
    reg->counter("campaign.dual.prefix_instrs").inc(res.prefixInstrs);
    res.cacheHits = probe_hits;
    res.cacheMisses = probe_misses;

    std::vector<const QueryVerdict *> slots(res.queries.size(), nullptr);
    for (std::size_t i = 0; i < res.queries.size(); ++i)
        if (res.verdicts[i])
            slots[i] = &*res.verdicts[i];
    std::vector<std::string> policy_names;
    policy_names.reserve(cfg.policies.size());
    for (core::MutationStrategy p : cfg.policies)
        policy_names.push_back(core::mutationStrategyName(p));
    res.graph = buildGraph(res.baseline, res.queries, slots,
                           policy_names, res.programHash, res.worldHash);
    timer.end();

    reg->counter("campaign.queries.total").inc(res.queries.size());
    reg->gauge("campaign.sources.total")
        .set(static_cast<double>(res.baseline.sources.size()));
    reg->gauge("campaign.sources.queryable")
        .set(static_cast<double>(res.baseline.queryableSources().size()));
    reg->gauge("campaign.sinks.total")
        .set(static_cast<double>(res.baseline.sinks.size()));
    reg->gauge("campaign.graph.edges")
        .set(static_cast<double>(res.graph.edges.size()));

    res.phases = timer.samples();
    return res;
}

} // namespace ldx::query
