#include "query/scheduler.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <exception>

#include "support/diag.h"

namespace ldx::query {

const char *
runStatusName(RunStatus s)
{
    switch (s) {
      case RunStatus::Done: return "done";
      case RunStatus::Cancelled: return "cancelled";
      case RunStatus::Failed: return "failed";
    }
    return "?";
}

/**
 * One registered campaign: its queue, its result plumbing, and its
 * telemetry instruments (resolved once when it registers; null when
 * the tenant has no registry).
 */
struct SharedPool::Tenant
{
    std::deque<std::size_t> items; ///< submitted, not yet started
    const std::function<void(std::size_t)> *fn = nullptr;
    std::vector<RunOutcome> outcomes;
    std::vector<std::int64_t> submitUs;
    const SchedulerConfig *cfg = nullptr;
    std::size_t outstanding = 0; ///< submitted, not yet finished
    int active = 0;              ///< items running right now
    bool closed = false;
    std::condition_variable roomCv; ///< submitter: backlog below cap
    std::condition_variable doneCv; ///< submitter: fully drained

    /** Busy seconds per pool worker; slot w is written by worker w
     *  only and read after the drain. */
    std::vector<double> busySeconds;

    obs::Histogram *queueWait = nullptr;
    obs::Histogram *latency = nullptr;
    obs::Counter *completed = nullptr;
    obs::Gauge *activeWorkers = nullptr;
};

SharedPool::SharedPool(const Config &cfg)
    : jobs_(cfg.jobs < 1 ? 1 : cfg.jobs), registry_(cfg.registry)
{
    if (registry_)
        registry_->gauge("serve.pool.workers")
            .set(static_cast<double>(jobs_));
    threads_.reserve(jobs_);
    for (int w = 0; w < jobs_; ++w)
        threads_.emplace_back(&SharedPool::workerLoop, this, w);
}

SharedPool::~SharedPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        shutdown_ = true;
    }
    workCv_.notify_all();
    for (std::thread &t : threads_)
        t.join();
}

SharedPool::Tenant *
SharedPool::pickTenant()
{
    std::size_t n = tenants_.size();
    for (std::size_t k = 0; k < n; ++k) {
        std::size_t idx = (cursor_ + k) % n;
        if (!tenants_[idx]->items.empty()) {
            // Advance past the served tenant so the next worker
            // visit starts at its neighbour: round-robin fairness.
            cursor_ = (idx + 1) % n;
            return tenants_[idx];
        }
    }
    return nullptr;
}

void
SharedPool::workerLoop(int self)
{
    obs::Gauge *active_gauge =
        registry_ ? &registry_->gauge("serve.pool.active_workers")
                  : nullptr;
    obs::Counter *completed =
        registry_ ? &registry_->counter("serve.pool.completed")
                  : nullptr;
    obs::Gauge *inflight_gauge =
        registry_ ? &registry_->gauge("serve.queries_inflight")
                  : nullptr;

    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        Tenant *t = nullptr;
        workCv_.wait(lock,
                     [&] { return (t = pickTenant()) || shutdown_; });
        if (!t)
            return;
        std::size_t item = t->items.front();
        t->items.pop_front();
        ++t->active;
        ++active_;
        if (t->activeWorkers)
            t->activeWorkers->set(t->active);
        if (active_gauge)
            active_gauge->set(active_);
        lock.unlock();

        const SchedulerConfig &tcfg = *t->cfg;
        RunOutcome &out = t->outcomes[item];
        std::int64_t submitted = t->submitUs[item];
        out.worker = self;
        out.startUs = obs::nowUs();
        out.queueWaitSeconds = (out.startUs - submitted) / 1e6;
        if (t->queueWait)
            t->queueWait->observe(out.queueWaitSeconds);
        std::uint64_t span =
            tcfg.spanIds ? (*tcfg.spanIds)[item] : item;
        obs::emitSpan(tcfg.traceSink, "query.queue-wait", span,
                      obs::kWorkerLaneBase + self, submitted,
                      out.startUs - submitted);
        auto t0 = std::chrono::steady_clock::now();
        try {
            (*t->fn)(item);
            out.status = RunStatus::Done;
        } catch (const std::exception &e) {
            out.status = RunStatus::Failed;
            out.error = e.what();
        } catch (...) {
            out.status = RunStatus::Failed;
            out.error = "unknown exception";
        }
        out.seconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
        t->busySeconds[self] += out.seconds;
        obs::emitSpan(tcfg.traceSink, "query.exec", span,
                      obs::kWorkerLaneBase + self, out.startUs,
                      static_cast<std::int64_t>(out.seconds * 1e6));
        if (t->latency)
            t->latency->observe(out.seconds);
        if (t->completed)
            t->completed->inc();
        if (completed)
            completed->inc();

        lock.lock();
        --t->active;
        --active_;
        if (t->activeWorkers)
            t->activeWorkers->set(t->active);
        if (active_gauge)
            active_gauge->set(active_);
        --t->outstanding;
        --inflight_;
        if (inflight_gauge)
            inflight_gauge->set(static_cast<double>(inflight_));
        t->roomCv.notify_one();
        if (t->closed && t->outstanding == 0)
            t->doneCv.notify_all();
    }
}

std::vector<RunOutcome>
SharedPool::runTenant(std::size_t count,
                      const std::function<void(std::size_t)> &fn,
                      const SchedulerConfig &cfg)
{
    if (cfg.queueCap < 1)
        fatal("scheduler requires queueCap >= 1");

    Tenant tenant;
    tenant.fn = &fn;
    tenant.outcomes.resize(count);
    tenant.submitUs.assign(count, 0);
    tenant.cfg = &cfg;
    tenant.busySeconds.assign(static_cast<std::size_t>(jobs_), 0.0);
    if (obs::Registry *reg = cfg.registry) {
        tenant.queueWait = &reg->histogram("campaign.queue_wait_seconds",
                                           obs::latencySecondsBounds());
        tenant.latency = &reg->histogram("campaign.query_seconds",
                                         obs::latencySecondsBounds());
        tenant.completed = &reg->counter("campaign.sched.completed");
        tenant.activeWorkers =
            &reg->gauge("campaign.sched.active_workers");
    }

    if (cfg.traceSink) {
        for (int w = 0; w < jobs_; ++w)
            cfg.traceSink->setLaneName(obs::kWorkerLaneBase + w,
                                       "worker-" + std::to_string(w));
    }

    obs::Gauge *inflight_gauge =
        registry_ ? &registry_->gauge("serve.queries_inflight")
                  : nullptr;

    auto t_start = std::chrono::steady_clock::now();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        tenants_.push_back(&tenant);
    }

    // Submission loop: block while this tenant's backlog is at its
    // queueCap; stop on cancel (queued items still run, unsubmitted
    // ones stay Cancelled).
    std::uint64_t cancelled = 0;
    for (std::size_t i = 0; i < count; ++i) {
        if (cfg.cancel && cfg.cancel->load(std::memory_order_relaxed)) {
            cancelled = count - i;
            break;
        }
        {
            std::unique_lock<std::mutex> lock(mutex_);
            tenant.roomCv.wait(lock, [&] {
                return tenant.outstanding < cfg.queueCap;
            });
            tenant.submitUs[i] = obs::nowUs();
            tenant.items.push_back(i);
            ++tenant.outstanding;
            ++inflight_;
            if (inflight_gauge)
                inflight_gauge->set(static_cast<double>(inflight_));
        }
        workCv_.notify_one();
    }

    {
        std::unique_lock<std::mutex> lock(mutex_);
        tenant.closed = true;
        tenant.doneCv.wait(lock,
                           [&] { return tenant.outstanding == 0; });
        auto it = std::find(tenants_.begin(), tenants_.end(), &tenant);
        if (it != tenants_.end())
            tenants_.erase(it);
        if (cursor_ >= tenants_.size())
            cursor_ = 0;
    }

    if (obs::Registry *reg = cfg.registry) {
        reg->counter("campaign.sched.submitted").inc(count - cancelled);
        reg->counter("campaign.sched.cancelled").inc(cancelled);
        reg->gauge("campaign.sched.jobs").set(static_cast<double>(jobs_));

        // Utilization: this tenant's busy seconds per worker over its
        // wall time (observability only — never in campaign output).
        double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t_start)
                          .count();
        double busy_total = 0.0;
        for (int w = 0; w < jobs_; ++w) {
            busy_total += tenant.busySeconds[w];
            reg->gauge("campaign.sched.worker." + std::to_string(w) +
                       ".busy_seconds")
                .set(tenant.busySeconds[w]);
        }
        reg->gauge("campaign.sched.utilization")
            .set(wall > 0.0 ? busy_total / (wall * jobs_) : 0.0);
    }
    return std::move(tenant.outcomes);
}

} // namespace ldx::query
