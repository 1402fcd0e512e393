/**
 * @file
 * The batch causality-inference engine (`ldx campaign`).
 *
 * A campaign answers "which inputs influence which outputs of this
 * program?" in one shot. One native baseline run enumerates candidate
 * sources and sinks (query/enumerate.h); the planner crosses every
 * queryable source with every mutation policy into a query list; the
 * result cache is probed on the planning thread; cache misses run as
 * independent dual executions on the worker pool
 * (query/scheduler.h); and the aggregator folds the per-query
 * verdicts into a deterministic causality graph (query/graph.h).
 *
 * Determinism contract: for a fixed (module, world, sink config,
 * policy list, offset), the campaign's graph JSON/DOT are
 * byte-identical across worker counts, queue caps, completion orders,
 * cache states (cold vs warm), and drivers (lockstep vs threaded).
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ir/ir.h"
#include "ldx/engine.h"
#include "obs/phase.h"
#include "obs/registry.h"
#include "os/world.h"
#include "query/cache.h"
#include "query/enumerate.h"
#include "query/graph.h"
#include "query/scheduler.h"
#include "query/verdict.h"

namespace ldx::query {

/** Campaign configuration. */
struct CampaignConfig
{
    /** Mutation policies crossed with every queryable source. */
    std::vector<core::MutationStrategy> policies = {
        core::MutationStrategy::OffByOne,
        core::MutationStrategy::Zero,
        core::MutationStrategy::BitFlip,
    };

    /**
     * Byte offset mutated within each source value;
     * SourceSpec::kWholeValue (the default) perturbs every byte so an
     * enumerated source reliably disturbs behaviour without knowing
     * the workload's sensitive offset.
     */
    std::size_t offset = core::SourceSpec::kWholeValue;

    /** Sink channels considered (shared with the enumeration). */
    core::SinkConfig sinks;

    /** Run each pair with the threaded driver (default: lockstep). */
    bool threaded = false;
    core::DriverConfig driver;

    /** Worker threads of the campaign's own pool (>= 1). */
    int jobs = 1;

    /** Admission cap: max outstanding queries (>= 1). */
    std::size_t queueCap = 256;

    /**
     * Per-query deadline (seconds) enforced as the engine's
     * wall-clock cap; an expired query yields a TimedOut verdict.
     */
    double deadlineSeconds = 30.0;

    /** Capacity of the campaign's own result cache (entries, >= 1). */
    std::size_t cacheCapacity = 4096;

    /** The own cache's persistence directory ("" = memory only). */
    std::string cacheDir;

    /** Retained baseline events (enumeration cap). */
    std::uint64_t eventCap = 1 << 16;

    /** Cooperative cancellation flag (the CLI's SIGINT latch). */
    const std::atomic<bool> *cancel = nullptr;

    /**
     * Campaign-level metrics registry (scheduler, cache, planner
     * tallies). Each dual execution always runs with a *private*
     * engine registry — DualResult's legacy counters are
     * registry-backed and would otherwise accumulate across queries.
     */
    obs::Registry *registry = nullptr;

    /**
     * Structured trace sink (may be null). Receives the campaign
     * phase spans on the pipeline lane plus one span-correlated set
     * of per-query spans: every query emits `query.probe`, then
     * exactly one terminal marker — `query.cached`, `query.exec`
     * (with `query.queue-wait`, on the running worker's lane), or
     * `query.cancelled` — all carrying the query index as the
     * numeric "span" argument (docs/OBSERVABILITY.md "Campaign
     * telemetry").
     */
    obs::TraceSink *traceSink = nullptr;

    /** VM configuration common to every run. */
    vm::MachineConfig vmConfig;

    /**
     * Guest-level site profiling (`--site-profile-out`): every query
     * runs with master/slave SiteCounters and its compacted profile
     * lands in CampaignResult::queryProfiles. The cache is bypassed
     * (probing skipped) so the heat map covers every query no matter
     * the cache state — the artifact stays byte-identical across
     * cold and warm runs. Requires vmConfig.predecode.
     */
    bool siteProfile = false;

    /**
     * Snapshot/fork execution (`--snapshot`): group the plan's
     * queries by source, run each group's shared master/slave prefix
     * once (the carrier, paused at the source's first touch), and run
     * the remaining policies as forks resumed from the captured
     * snapshot — S·P full runs become S prefix runs plus S·P suffix
     * runs (ldx/snapshot.h). Verdicts and the graph are byte-identical
     * to the non-snapshot path, which remains the oracle
     * (tests/snapshot_test.cc). Incompatible with siteProfile: a
     * fork's site counters would miss the prefix's attribution.
     */
    bool snapshot = false;

    /**
     * Fault injection for the fuzz harness: every fork's slave-memory
     * restore skips the Nth dirty 4096-byte page — the planted
     * stale-snapshot bug that the snapshot-equality oracle must
     * catch (vm::Memory::restore). 0 = off.
     */
    std::uint64_t chaosDropSnapshotPage = 0;

    /**
     * Process-wide sharded verdict cache (`ldx serve`). When null the
     * campaign builds a one-shard cache of its own from
     * `cacheCapacity`/`cacheDir`; when set, those two are ignored (the
     * shared cache owns both). Either way the campaign's
     * campaign.cache.* counters land in `registry`.
     */
    ShardedResultCache *sharedCache = nullptr;

    /**
     * Process-wide worker pool (`ldx serve`). The campaign always runs
     * as one tenant of a pool: of this one when set (`jobs` is then
     * ignored), otherwise of a `jobs`-worker pool it builds itself.
     * `queueCap` is the per-tenant admission cap either way.
     */
    SharedPool *sharedPool = nullptr;

    /**
     * Streaming hook (`ldx serve`): called once per query that
     * produced a verdict — on the planning thread for cache hits
     * (query-index order), from a worker thread right after each
     * dual execution otherwise (completion order; may be called
     * concurrently). Cancelled/failed queries never fire it; read
     * their disposition from CampaignResult after the run.
     */
    std::function<void(const CampaignQuery &, const QueryVerdict &,
                       bool fromCache)>
        onVerdict;
};

/**
 * One guest site's cost within a single query, compacted from the
 * query's dual SiteCounters (master-side counts plus the absolute
 * master-vs-slave retired delta — the mutation's causal footprint).
 */
struct SiteHeatEntry
{
    std::uint32_t fn = 0;       ///< function id
    std::uint32_t idx = 0;      ///< flat decoded offset
    std::uint64_t retired = 0;  ///< master retired instructions
    std::uint64_t syscalls = 0; ///< master completed syscalls
    std::uint64_t sysTicks = 0; ///< master virtual syscall latency
    std::uint64_t dRetired = 0; ///< |master - slave| retired
};

/** Everything a campaign produced. */
struct CampaignResult
{
    BaselineEnumeration baseline;

    std::uint64_t programHash = 0;
    std::uint64_t worldHash = 0;

    /** Planned queries (queryable sources x policies). */
    std::vector<CampaignQuery> queries;

    /**
     * Verdict per query (slot i answers queries[i]); nullopt when the
     * query was cancelled or failed.
     */
    std::vector<std::optional<QueryVerdict>> verdicts;

    /** Scheduler outcome per query (cache hits report Done). */
    std::vector<RunOutcome> outcomes;

    /** Whether the verdict came from the cache. */
    std::vector<bool> fromCache;

    /**
     * Per-query compact site profiles (slot i answers queries[i]);
     * empty vectors unless CampaignConfig::siteProfile was set and
     * the query actually executed. Entries are (fn, idx)-ordered.
     */
    std::vector<std::vector<SiteHeatEntry>> queryProfiles;

    CausalityGraph graph;

    // Tallies (also in the metrics registry as campaign.*).
    std::uint64_t dualExecutions = 0; ///< engine runs actually made
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    /** Evictions caused by this campaign's own cache stores. */
    std::uint64_t cacheEvictions = 0;
    std::uint64_t cancelledQueries = 0;
    std::uint64_t failedQueries = 0;
    std::uint64_t timedOutQueries = 0;

    // Snapshot/fork tallies (campaign.snapshot.* in the registry;
    // zero when CampaignConfig::snapshot is off).
    std::uint64_t snapshotPrefixRuns = 0; ///< carrier prefixes captured
    std::uint64_t snapshotForks = 0;      ///< suffix-only runs
    std::uint64_t snapshotInstrsSaved = 0; ///< prefix instrs not re-run
    /**
     * Dual (master+slave) prefix instructions actually executed, as
     * measured by the probe trigger at each mutated source's first
     * touch. Reported in BOTH modes (campaign.dual.prefix_instrs) —
     * the snapshot speedup claim is this number's on-vs-off ratio.
     */
    std::uint64_t prefixInstrs = 0;

    /** Phase timing (enumerate / plan / probe-cache / execute /
     *  aggregate), completion order. */
    std::vector<obs::PhaseSample> phases;

    bool anyCausality() const { return graph.anyCausality(); }
};

/**
 * Run a full campaign over @p module (counter-instrumented; fatal
 * otherwise) in @p world.
 */
CampaignResult runCampaign(const ir::Module &module,
                           const os::WorldSpec &world,
                           const CampaignConfig &cfg);

} // namespace ldx::query
