/**
 * @file
 * `ldx serve` — the multi-tenant causality-inference daemon
 * (docs/SERVE.md).
 *
 * A long-running server on a local Unix-domain socket. Each
 * connection is one client; each accepted `submit` frame runs a full
 * campaign as one *tenant* of the process-wide machinery:
 *
 *  - one shared worker pool (query::SharedPool) executes
 *    every tenant's dual executions with per-tenant fair dequeue,
 *  - one process-wide sharded verdict cache
 *    (query::ShardedResultCache) makes a repeat submission of any
 *    finished job — by any client — run zero dual executions,
 *  - admission control rejects jobs beyond `--max-tenants`
 *    concurrent campaigns or larger than `--max-job-queries`
 *    planned queries before any dual execution starts,
 *  - per-query verdicts stream back in query-index order while the
 *    campaign still runs, followed by the byte-exact graph that an
 *    offline `ldx campaign --graph-out` would have produced,
 *  - SIGINT drains gracefully: in-flight queries complete or are
 *    cancelled (never torn), every connected client receives a
 *    terminal `drained` frame, and the caller takes the exporter's
 *    final sample after serve() returns.
 */
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/registry.h"
#include "query/cache.h"
#include "query/scheduler.h"
#include "vm/machine.h"

namespace ldx::serve {

/** Daemon configuration (CLI flags of `ldx serve`). */
struct ServeConfig
{
    /** Unix-domain socket path (short: sun_path is ~107 bytes). */
    std::string socketPath;

    /** Shared pool worker threads (>= 1). */
    int jobs = 1;

    /** Max concurrent campaigns; further submits are rejected. */
    std::size_t maxTenants = 4;

    /** Verdict-cache shards (clamped to the cache capacity). */
    std::size_t shards = 8;

    /** Per-tenant admission cap (max outstanding queries). */
    std::size_t queueCap = 256;

    /** Shared in-memory verdict-cache capacity (entries). */
    std::size_t cacheCap = 4096;

    /** Shared disk verdict-cache directory ("" = memory only). */
    std::string cacheDir;

    /** Reject jobs planning more queries than this (0 = no cap). */
    std::size_t maxJobQueries = 0;

    /** Drain: wait this long for tenants before forcing sockets
     *  closed (in-flight queries still complete; ms). */
    std::uint64_t drainTimeoutMs = 30'000;

    /** Interpreter dispatch for every tenant VM. */
    vm::DispatchMode dispatch = vm::DispatchMode::Fused;

    /** Server version string echoed in the hello frame. */
    std::string version;

    /** Server-wide metrics registry (serve.*); the caller mounts
     *  the exporter over it. May be null. */
    obs::Registry *registry = nullptr;

    /** The SIGINT latch: when it flips, serve() drains and returns.
     *  Required. */
    const std::atomic<bool> *shutdown = nullptr;
};

/** The daemon. start() binds the socket; serve() blocks until the
 *  shutdown latch flips and the drain completes. */
class Server
{
  public:
    explicit Server(const ServeConfig &cfg);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind + listen. False (with @p error) on failure. */
    bool start(std::string *error);

    /** Accept/serve until the shutdown latch flips; returns 0 on a
     *  clean drain. */
    int serve();

    /** Jobs accepted over the server's lifetime (tests). */
    std::uint64_t jobsAccepted() const;
    /** Jobs rejected by admission control (tests). */
    std::uint64_t jobsRejected() const;

  private:
    struct Connection;

    void connectionLoop(std::shared_ptr<Connection> conn);
    void handleFrame(Connection &conn, const std::string &line);
    void handleSubmit(Connection &conn, const struct SubmitRequest &req);
    bool writeLine(Connection &conn, const std::string &frame);

    ServeConfig cfg_;
    int listenFd_ = -1;

    query::SharedPool pool_;
    query::ShardedResultCache cache_;

    /** Drain latch shared as every tenant campaign's cancel flag. */
    std::atomic<bool> drain_{false};

    mutable std::mutex mutex_;
    std::condition_variable idleCv_; ///< all connections closed
    std::vector<std::shared_ptr<Connection>> conns_;
    std::vector<std::thread> threads_;
    std::size_t openConns_ = 0;
    std::size_t activeJobs_ = 0;
    std::uint64_t connSeq_ = 0;
    std::atomic<std::uint64_t> jobsAccepted_{0};
    std::atomic<std::uint64_t> jobsRejected_{0};
};

} // namespace ldx::serve
