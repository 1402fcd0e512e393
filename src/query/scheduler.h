/**
 * @file
 * The worker pool that runs campaign queries.
 *
 * One SharedPool owns a fixed set of worker threads. Each campaign
 * registers as a *tenant* with its own FIFO queue; an offline
 * campaign is the only tenant of a pool it builds for itself, while
 * `ldx serve` shares one pool across every concurrent job. Design
 * constraints (docs/CAMPAIGN.md "Scheduler semantics"):
 *
 *  - *Determinism*: results are collected into a slot array indexed
 *    by item and aggregated only after the tenant drains, so the
 *    campaign's output is byte-identical regardless of worker count,
 *    completion order, or what other tenants are doing.
 *  - *Admission control*: at most `queueCap` items of a tenant are
 *    outstanding (queued but unfinished) at once; the submitting
 *    thread blocks until workers drain the backlog. This bounds
 *    memory for campaigns with hundreds of thousands of queries.
 *  - *Fair dequeue*: workers visit tenants with a rotating cursor,
 *    one item per visit, so a huge job cannot starve small ones.
 *    Within a tenant, items run oldest-first.
 *  - *Cancellation / graceful drain*: when the cancel flag flips (the
 *    CLI's SIGINT handler), submission stops and unsubmitted items
 *    return Cancelled; queued and in-flight items run to completion
 *    so their verdicts are never torn.
 *  - *Deadline/watchdog*: the per-query deadline is enforced by the
 *    engine's wall-clock cap (the query fn maps expiry to a TimedOut
 *    verdict); the pool tracks per-item runtime into the
 *    campaign.query_seconds histogram.
 *  - *Telemetry*: per-item queue wait and execution latency land in
 *    the tenant's campaign.{queue_wait_seconds,query_seconds}
 *    histograms, a live campaign.sched.active_workers gauge plus
 *    post-drain per-worker busy/utilization gauges feed the progress
 *    meter and the exporter, and when a trace sink is configured every
 *    executed item emits span-correlated queue-wait and exec spans on
 *    its worker's lane (docs/OBSERVABILITY.md "Campaign telemetry").
 */
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/registry.h"
#include "obs/trace.h"

namespace ldx::query {

/** How one scheduled query ended. */
enum class RunStatus
{
    Done,       ///< the query fn returned a verdict
    Cancelled,  ///< drained before starting (SIGINT)
    Failed,     ///< the query fn threw; error holds the message
};

/** Stable slug of a run status ("done", "cancelled", "failed"). */
const char *runStatusName(RunStatus s);

/** Scheduler outcome of one query. */
struct RunOutcome
{
    RunStatus status = RunStatus::Cancelled;
    std::string error;     ///< Failed only
    double seconds = 0.0;  ///< wall time inside the query fn
    /** Time between submission and a worker picking the query up. */
    double queueWaitSeconds = 0.0;
    /** obs::nowUs() when the query fn started (0 if never run). */
    std::int64_t startUs = 0;
    int worker = -1;       ///< worker that ran it (observability only)
};

/** Per-tenant configuration. */
struct SchedulerConfig
{
    /** Max outstanding (submitted, unfinished) items (>= 1). */
    std::size_t queueCap = 256;

    /** Cooperative cancellation flag (may be null). */
    const std::atomic<bool> *cancel = nullptr;

    /** Campaign metrics registry (may be null). */
    obs::Registry *registry = nullptr;

    /**
     * Span-correlated trace sink (may be null). Each executed item
     * emits a `query.queue-wait` and a `query.exec` span on its
     * worker's lane (obs::kWorkerLaneBase + worker) carrying the
     * item's span id.
     */
    obs::TraceSink *traceSink = nullptr;

    /**
     * Optional map from item index to the stable span id on emitted
     * trace records — the campaign passes query indices here because
     * it only schedules cache misses. Item index itself when null.
     * Must outlive the run and have `count` entries.
     */
    const std::vector<std::size_t> *spanIds = nullptr;
};

/**
 * Worker pool shared by any number of concurrent tenants. Each
 * tenant's items land in its own slot array and each campaign
 * aggregates only after its own drain, so the bytes a tenant
 * produces are independent of pool size and of the other tenants.
 */
class SharedPool
{
  public:
    struct Config
    {
        /** Worker threads shared by all tenants (>= 1). */
        int jobs = 1;
        /** Server-wide metrics registry (may be null): feeds the
         *  serve.pool.* counters and serve.queries_inflight gauge. */
        obs::Registry *registry = nullptr;
    };

    explicit SharedPool(const Config &cfg);
    ~SharedPool();

    SharedPool(const SharedPool &) = delete;
    SharedPool &operator=(const SharedPool &) = delete;

    int jobs() const { return jobs_; }

    /**
     * Run @p fn(i) for every i in [0, count) as one tenant and return
     * one outcome per index. Blocks until every submitted item
     * finished (cancelled items are never started). @p fn must be
     * thread-safe across distinct indices; it is invoked at most once
     * per index.
     */
    std::vector<RunOutcome>
    runTenant(std::size_t count,
              const std::function<void(std::size_t)> &fn,
              const SchedulerConfig &cfg);

  private:
    struct Tenant;

    void workerLoop(int self);
    Tenant *pickTenant(); ///< fair rotating scan; mutex_ held

    int jobs_;
    obs::Registry *registry_;

    std::mutex mutex_;
    std::condition_variable workCv_;
    std::vector<Tenant *> tenants_; ///< registration order
    std::size_t cursor_ = 0;        ///< next tenant slot to serve
    std::size_t inflight_ = 0;      ///< submitted, unfinished (all tenants)
    int active_ = 0;                ///< items running (all tenants)
    bool shutdown_ = false;
    std::vector<std::thread> threads_;
};

} // namespace ldx::query
