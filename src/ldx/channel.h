/**
 * @file
 * Shared coupling state between the master and slave controllers.
 *
 * Per paired thread (thread i of the master couples with thread i of
 * the slave, §7) the channel holds:
 *  - each side's published *position* — the counter value and site it
 *    is currently executing or waiting at. Positions make waits
 *    resolvable: the counter invariant guarantees a peer whose
 *    position counter exceeds mine has passed my alignment level for
 *    good (a post-loop syscall counter strictly exceeds every in-loop
 *    value), so I can stop waiting and decouple;
 *  - the master's outcome queue (Algorithm 2's Q), purged at every
 *    paired barrier so (cnt, site) keys stay unique per iteration
 *    window;
 *  - a sink rendezvous slot per side (Algorithm 2 lines 2-6 and its
 *    slave dual);
 *  - the barrier pairing record for the current backedge rendezvous.
 *
 * All fields of a ThreadChannel are guarded by its mutex; the
 * controllers use a poll-based protocol (the VM re-issues blocked
 * requests), so no condition variables are needed and the same code
 * drives both the deterministic lockstep driver and the two-OS-thread
 * driver.
 *
 * Two lock-free mirrors keep the poll fast path off that mutex:
 *  - each side's position (and counter stack) is also published
 *    through a seqlock PosCell, so a blocked peer re-evaluates its
 *    wait predicate against a consistent snapshot without locking;
 *  - every *structural* mutation (queue push, sink slot change,
 *    barrier pairing, thread-done flag) bumps stateVersion, so a
 *    waiter whose inputs are provably unchanged can return Blocked
 *    without touching the mutex at all (see Controller::fastPoll).
 */
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "ldx/report.h"
#include "obs/scope.h"
#include "os/kernel.h"
#include "os/taintmap.h"

namespace ldx::core {

/** What a published position refers to. */
enum class PosKind : std::uint8_t
{
    Idle,     ///< not yet at any sync point
    Running,  ///< between sync points (post-barrier / post-push)
    Input,    ///< at an input-class syscall
    Sink,     ///< waiting at a sink for comparison
    Barrier,  ///< waiting at a loop backedge
    Local,    ///< at a local-class syscall
};

/** One side's published position. */
struct Position
{
    PosKind kind = PosKind::Idle;
    std::int64_t cnt = 0;
    int site = -1;
    std::int64_t iter = 0; ///< barrier iteration (Barrier only)
};

/** A master syscall outcome awaiting reuse by the slave. */
struct QueueEntry
{
    std::int64_t cnt = 0;
    int site = -1;
    std::int64_t sysNo = 0;
    std::uint64_t argSig = 0; ///< FNV digest of significant arguments
    os::Outcome out;
    bool consumed = false;
};

/** A sink published by one side, awaiting the peer's comparison. */
struct SinkSlot
{
    bool valid = false;
    bool resolved = false; ///< peer compared; publisher may proceed
    bool divergent = false; ///< the comparison found a difference
    std::int64_t cnt = 0;
    int site = -1;
    std::int64_t sysNo = 0;
    std::string payload;
    ir::SourceLoc loc;
};

/** Pairing record for one backedge rendezvous. */
struct BarrierPair
{
    bool valid = false;
    std::int64_t site = -1;
    std::int64_t iter = 0;
    bool consumed[2] = {false, false};
};

/**
 * Hierarchical progress comparison. Counters inside an indirect or
 * recursive call restart from zero (§6), so raw counter values are
 * only comparable at the same counter-stack context. Positions are
 * therefore compared lexicographically over (saved counter stack +
 * current counter): the first differing level decides; a deeper or
 * shallower peer with an equal prefix is *incomparable* (the waiter
 * keeps polling until the peer publishes a decisive position).
 */
enum class Progress
{
    Behind,   ///< peer is provably behind this position
    Same,     ///< identical stack context and counter
    Passed,   ///< peer is provably past this position
    Unknown,  ///< different depth, equal prefix: cannot conclude
};

/** Compare the peer's published progress against (stack, cnt). */
Progress compareProgress(const std::vector<std::int64_t> &peer_stack,
                         std::int64_t peer_cnt,
                         const std::vector<std::int64_t> &my_stack,
                         std::int64_t my_cnt);

/**
 * A mutex that counts its acquisitions. The count is the contention
 * diagnostic the poll fast path is judged by: blocked re-polls that
 * resolve through the lock-free mirrors leave it untouched.
 */
class CountingMutex
{
  public:
    void
    lock()
    {
        mu_.lock();
        acquisitions_.fetch_add(1, std::memory_order_relaxed);
    }

    bool
    try_lock()
    {
        if (!mu_.try_lock())
            return false;
        acquisitions_.fetch_add(1, std::memory_order_relaxed);
        return true;
    }

    void unlock() { mu_.unlock(); }

    std::uint64_t
    acquisitions() const
    {
        return acquisitions_.load(std::memory_order_relaxed);
    }

  private:
    std::mutex mu_;
    std::atomic<std::uint64_t> acquisitions_{0};
};

/**
 * Seqlock-published position snapshot: one side's Position plus its
 * saved counter stack, readable by the peer without the channel
 * mutex. Writers are already serialized under ThreadChannel::mutex;
 * readers retry while a write is in flight (odd sequence).
 */
class PosCell
{
  public:
    /** Stack levels mirrored; deeper stacks force the locked path. */
    static constexpr std::size_t kMaxDepth = 48;

    /**
     * Publish @p p and @p stack (caller holds the channel mutex).
     * Ordering comes from the payload accesses themselves, not from
     * standalone fences (which ThreadSanitizer does not model): each
     * payload store is a release, so a reader whose acquire load sees
     * any new payload word also sees the odd sequence stored before
     * it, and its closing sequence check fails.
     */
    void
    publish(const Position &p, const std::vector<std::int64_t> &stack)
    {
        std::uint64_t s = seq_.load(std::memory_order_relaxed);
        seq_.store(s + 1, std::memory_order_relaxed);
        kind_.store(static_cast<std::uint8_t>(p.kind),
                    std::memory_order_release);
        cnt_.store(p.cnt, std::memory_order_release);
        site_.store(p.site, std::memory_order_release);
        iter_.store(p.iter, std::memory_order_release);
        std::size_t depth = std::min(stack.size(), kMaxDepth);
        depth_.store(static_cast<std::uint32_t>(stack.size()),
                     std::memory_order_release);
        for (std::size_t i = 0; i < depth; ++i)
            stack_[i].store(stack[i], std::memory_order_release);
        seq_.store(s + 2, std::memory_order_release);
    }

    /**
     * Read a consistent snapshot into @p p / @p stack without any
     * lock; returns the (even) sequence it observed. @p truncated is
     * set when the published stack exceeded kMaxDepth, in which case
     * the caller must fall back to the locked path. The payload loads
     * are acquires, so the closing sequence load cannot move above
     * them.
     */
    std::uint64_t
    read(Position &p, std::vector<std::int64_t> &stack,
         bool &truncated) const
    {
        for (;;) {
            std::uint64_t s1 = seq_.load(std::memory_order_acquire);
            if (s1 & 1)
                continue;
            p.kind = static_cast<PosKind>(
                kind_.load(std::memory_order_acquire));
            p.cnt = cnt_.load(std::memory_order_acquire);
            p.site = site_.load(std::memory_order_acquire);
            p.iter = iter_.load(std::memory_order_acquire);
            std::uint32_t depth =
                depth_.load(std::memory_order_acquire);
            truncated = depth > kMaxDepth;
            std::size_t n = std::min<std::size_t>(depth, kMaxDepth);
            stack.clear();
            for (std::size_t i = 0; i < n; ++i)
                stack.push_back(
                    stack_[i].load(std::memory_order_acquire));
            if (seq_.load(std::memory_order_relaxed) == s1)
                return s1;
        }
    }

    /** Current sequence (cheap change detector for pollers). */
    std::uint64_t
    seq() const
    {
        return seq_.load(std::memory_order_acquire);
    }

    /**
     * Restore an exact published state, sequence included (snapshot
     * forking). Poll gates remember the sequence they were recorded
     * at, so a forked execution must resume from the captured value —
     * a publish-from-scratch would make every gate read as "peer
     * moved". Caller must be the only thread touching the cell.
     */
    void
    restore(std::uint64_t seq, const Position &p,
            const std::vector<std::int64_t> &stack)
    {
        publish(p, stack);
        seq_.store(seq, std::memory_order_release);
    }

  private:
    std::atomic<std::uint64_t> seq_{0};
    std::atomic<std::uint8_t> kind_{0};
    std::atomic<std::int64_t> cnt_{0};
    std::atomic<int> site_{-1};
    std::atomic<std::int64_t> iter_{0};
    std::atomic<std::uint32_t> depth_{0};
    std::array<std::atomic<std::int64_t>, kMaxDepth> stack_{};
};

/** Coupling state for one thread pair. */
struct ThreadChannel
{
    CountingMutex mutex;
    Position pos[2];
    /** Saved counter stacks (§6) published at push/pop. */
    std::vector<std::int64_t> cntStack[2];
    bool threadDone[2] = {false, false};
    std::deque<QueueEntry> queue;
    SinkSlot sink[2];
    BarrierPair barrier;

    /** Lock-free mirrors of pos[]/cntStack[] (see file comment). */
    PosCell posCell[2];

    /**
     * Bumped under the mutex on every structural mutation a blocked
     * waiter's decision could depend on (queue, sinks, barrier
     * pairing, threadDone). Position-only moves go through posCell
     * instead, so a busy peer does not force waiters onto the mutex.
     */
    std::atomic<std::uint64_t> stateVersion{0};

    void
    bumpVersion()
    {
        stateVersion.fetch_add(1, std::memory_order_release);
    }

    /** Publish @p side's position (mutex held). */
    void
    publishPos(int side, const Position &p)
    {
        pos[side] = p;
        posCell[side].publish(p, cntStack[side]);
    }

    /** Drop unconsumed queue entries (window closed). */
    void
    purgeQueue()
    {
        queue.clear();
        bumpVersion();
    }
};

/**
 * Value image of one thread pair's coupling state (snapshot forking).
 * posSeq / stateVersion are captured exactly so restored poll gates
 * stay coherent (gates compare versions for equality only, but they
 * must observe the values they were recorded against).
 */
struct ThreadChannelImage
{
    int tid = 0;
    Position pos[2];
    std::vector<std::int64_t> cntStack[2];
    bool threadDone[2] = {false, false};
    std::deque<QueueEntry> queue;
    SinkSlot sink[2];
    BarrierPair barrier;
    std::uint64_t posSeq[2] = {0, 0};
    std::uint64_t stateVersion = 0;
};

/**
 * Registry-backed channel tallies by value. A forked execution owns a
 * fresh metrics registry, but its run-level totals (some of which are
 * verdict-visible, e.g. aligned syscalls) must cover the shared
 * prefix too — the image is re-applied as increments at fork setup.
 */
struct ChannelCounterImage
{
    std::uint64_t alignedSyscalls = 0;
    std::uint64_t syscallDiffs = 0;
    std::uint64_t slaveSyscalls = 0;
    std::uint64_t barrierPairings = 0;
    std::uint64_t barrierSkips = 0;
    std::uint64_t copies = 0;
    std::uint64_t executes = 0;
    std::uint64_t decouples = 0;
    std::uint64_t sinkAligned = 0;
    std::uint64_t sinkDiffs = 0;
    std::uint64_t sinkVanished = 0;
    std::uint64_t blockedPolls = 0;
    std::uint64_t watchdogPolls = 0;
    std::uint64_t watchdogExpired = 0;
    std::uint64_t lockShares = 0;
    std::uint64_t lockDiverged = 0;
};

/**
 * Everything a SyncChannel holds, by value: what a snapshot captures
 * at the fork point and what fork setup restores into a fresh
 * channel. The wait-polls histogram is deliberately absent — prefix
 * waits were resolved before the capture and the histogram is purely
 * diagnostic.
 */
struct ChannelImage
{
    std::vector<ThreadChannelImage> threads;
    std::map<std::int64_t, std::vector<int>> lockOrder;
    std::map<std::int64_t, std::size_t> slaveLockIdx;
    std::uint64_t lockVersion = 0;
    std::set<std::string> taintKeys;
    std::uint64_t taintVersion = 0;
    std::vector<Finding> findings;
    std::vector<TraceEvent> trace;
    std::uint64_t progress[2] = {0, 0};
    bool sideFinished[2] = {false, false};
    ChannelCounterImage counters;
};

/** Whole-engine shared state. */
class SyncChannel
{
  public:
    /** Maximum entries kept per thread queue. */
    static constexpr std::size_t kQueueCap = 8192;

    /** Maximum in-memory TraceEvents retained. */
    static constexpr std::size_t kTraceCap = 100000;

    /**
     * All channel tallies live in the scope's metrics registry; the
     * cached handles below are the single source of truth the engine
     * reads back into DualResult, so registry totals and the legacy
     * counters agree by construction.
     */
    explicit SyncChannel(obs::Scope &scope)
        : alignedSyscalls(&scope.registry().counter("dual.syscalls.aligned")),
          syscallDiffs(&scope.registry().counter("dual.syscalls.diff")),
          slaveSyscalls(&scope.registry().counter("dual.syscalls.slave_total")),
          barrierPairings(&scope.registry().counter("dual.barrier.pairings")),
          barrierSkips(&scope.registry().counter("dual.barrier.skips")),
          copies(&scope.registry().counter("dual.align.copies")),
          executes(&scope.registry().counter("dual.align.executes")),
          decouples(&scope.registry().counter("dual.align.decouples")),
          sinkAligned(&scope.registry().counter("dual.sink.aligned")),
          sinkDiffs(&scope.registry().counter("dual.sink.diffs")),
          sinkVanished(&scope.registry().counter("dual.sink.vanished")),
          blockedPolls(&scope.registry().counter("chan.blocked_polls")),
          watchdogPolls(&scope.registry().counter("watchdog.polls")),
          watchdogExpired(&scope.registry().counter("watchdog.expired")),
          lockShares(&scope.registry().counter("lock.order_shared")),
          lockDiverged(&scope.registry().counter("lock.order_diverged")),
          waitPolls(&scope.registry().histogram(
              "chan.wait_polls",
              {0, 1, 4, 16, 64, 256, 1024, 4096, 16384, 65536})),
          scope_(scope)
    {
    }

    obs::Scope &scope() { return scope_; }

    /** Channel for thread pair @p tid (created on first use). */
    ThreadChannel &
    thread(int tid)
    {
        std::lock_guard<std::mutex> lock(mapMutex_);
        auto &slot = channels_[tid];
        if (!slot)
            slot = std::make_unique<ThreadChannel>();
        return *slot;
    }

    /** Mark a whole side finished (program ended or trapped). */
    void
    finishSide(Side side)
    {
        sideFinished_[static_cast<int>(side)].store(
            true, std::memory_order_release);
    }

    bool
    sideFinished(Side side) const
    {
        return sideFinished_[static_cast<int>(side)].load(
            std::memory_order_acquire);
    }

    // ---- lock acquisition order sharing (§7) ----
    std::mutex lockMutex;
    std::map<std::int64_t, std::vector<int>> lockOrder;
    std::map<std::int64_t, std::size_t> slaveLockIdx;
    /** Bumped whenever lockOrder/slaveLockIdx change (fast gates). */
    std::atomic<std::uint64_t> lockVersion{0};

    /**
     * Visit every thread channel (post-run diagnostics: the engine
     * snapshots positions/queues into the divergence report). The
     * callback runs under the map mutex; it must not call thread().
     */
    template <typename Fn>
    void
    forEachChannel(Fn fn)
    {
        std::lock_guard<std::mutex> lock(mapMutex_);
        for (auto &[tid, ch] : channels_)
            fn(tid, *ch);
    }

    /** Sum of every ThreadChannel mutex acquisition so far. */
    std::uint64_t
    totalMutexAcquisitions()
    {
        std::lock_guard<std::mutex> lock(mapMutex_);
        std::uint64_t total = 0;
        for (auto &[tid, ch] : channels_)
            total += ch->mutex.acquisitions();
        return total;
    }

    // ---- resource tainting ----
    os::ResourceTaintMap taints;

    // ---- findings & metrics ----
    void
    addFinding(Finding finding)
    {
        std::lock_guard<std::mutex> lock(findingsMutex_);
        findings_.push_back(std::move(finding));
    }

    std::vector<Finding>
    takeFindings()
    {
        std::lock_guard<std::mutex> lock(findingsMutex_);
        return std::move(findings_);
    }

    // ---- alignment trace (in-memory and/or structured sink) ----
    bool traceEnabled = false;

    /** True when recordEvent() would do anything (cheap pre-check). */
    bool
    wantsEvents() const
    {
        return traceEnabled || scope_.tracing();
    }

    /**
     * Record one alignment action: appended to the capped in-memory
     * trace when EngineConfig::recordTrace is set, and mirrored to the
     * scope's structured trace sink (per-side lanes) when one is
     * attached.
     */
    void
    recordEvent(const TraceEvent &evt)
    {
        if (traceEnabled) {
            std::lock_guard<std::mutex> lock(traceMutex_);
            if (trace_.size() < kTraceCap)
                trace_.push_back(evt);
        }
        if (scope_.tracing()) {
            obs::TraceRecord rec;
            rec.name = traceKindName(evt.kind);
            rec.lane = evt.side == Side::Master ? obs::kMasterLane
                                                : obs::kSlaveLane;
            rec.tid = evt.tid;
            rec.numArgs = {{"sys", evt.sysNo},
                           {"cnt", evt.cnt},
                           {"site", evt.site}};
            scope_.emit(std::move(rec));
        }
    }

    std::vector<TraceEvent>
    takeTrace()
    {
        std::lock_guard<std::mutex> lock(traceMutex_);
        return std::move(trace_);
    }

    // Registry-backed tallies (see docs/OBSERVABILITY.md).
    obs::Counter *alignedSyscalls;
    obs::Counter *syscallDiffs;
    obs::Counter *slaveSyscalls;
    obs::Counter *barrierPairings;
    obs::Counter *barrierSkips;
    obs::Counter *copies;
    obs::Counter *executes;
    obs::Counter *decouples;
    obs::Counter *sinkAligned;
    obs::Counter *sinkDiffs;
    obs::Counter *sinkVanished;
    obs::Counter *blockedPolls;
    obs::Counter *watchdogPolls;
    obs::Counter *watchdogExpired;
    obs::Counter *lockShares;
    obs::Counter *lockDiverged;
    obs::Histogram *waitPolls;

    /**
     * Capture every coupling-state component by value. Call only
     * while both drivers are quiesced (the snapshot trigger pauses
     * both machines first), so the locks taken here are uncontended
     * formalities.
     */
    ChannelImage
    captureImage()
    {
        ChannelImage img;
        forEachChannel([&](int tid, ThreadChannel &ch) {
            ThreadChannelImage t;
            t.tid = tid;
            std::lock_guard<CountingMutex> lock(ch.mutex);
            for (int s = 0; s < 2; ++s) {
                t.pos[s] = ch.pos[s];
                t.cntStack[s] = ch.cntStack[s];
                t.threadDone[s] = ch.threadDone[s];
                t.sink[s] = ch.sink[s];
                t.posSeq[s] = ch.posCell[s].seq();
            }
            t.queue = ch.queue;
            t.barrier = ch.barrier;
            t.stateVersion =
                ch.stateVersion.load(std::memory_order_acquire);
            img.threads.push_back(std::move(t));
        });
        {
            std::lock_guard<std::mutex> lock(lockMutex);
            img.lockOrder = lockOrder;
            img.slaveLockIdx = slaveLockIdx;
            img.lockVersion =
                lockVersion.load(std::memory_order_acquire);
        }
        img.taintKeys = taints.snapshot();
        img.taintVersion = taints.version();
        {
            std::lock_guard<std::mutex> lock(findingsMutex_);
            img.findings = findings_;
        }
        {
            std::lock_guard<std::mutex> lock(traceMutex_);
            img.trace = trace_;
        }
        for (int s = 0; s < 2; ++s) {
            img.progress[s] =
                progress[s].load(std::memory_order_acquire);
            img.sideFinished[s] =
                sideFinished_[s].load(std::memory_order_acquire);
        }
        img.counters.alignedSyscalls = alignedSyscalls->value();
        img.counters.syscallDiffs = syscallDiffs->value();
        img.counters.slaveSyscalls = slaveSyscalls->value();
        img.counters.barrierPairings = barrierPairings->value();
        img.counters.barrierSkips = barrierSkips->value();
        img.counters.copies = copies->value();
        img.counters.executes = executes->value();
        img.counters.decouples = decouples->value();
        img.counters.sinkAligned = sinkAligned->value();
        img.counters.sinkDiffs = sinkDiffs->value();
        img.counters.sinkVanished = sinkVanished->value();
        img.counters.blockedPolls = blockedPolls->value();
        img.counters.watchdogPolls = watchdogPolls->value();
        img.counters.watchdogExpired = watchdogExpired->value();
        img.counters.lockShares = lockShares->value();
        img.counters.lockDiverged = lockDiverged->value();
        return img;
    }

    /**
     * Restore a captured image into this freshly constructed channel
     * (fork setup). Tallies are re-applied as increments into this
     * channel's own registry; version counters (posCell sequences,
     * stateVersion, taint/lock versions) are restored exactly so the
     * forked controllers' restored poll gates stay coherent.
     */
    void
    restoreImage(const ChannelImage &img)
    {
        for (const ThreadChannelImage &t : img.threads) {
            ThreadChannel &ch = thread(t.tid);
            std::lock_guard<CountingMutex> lock(ch.mutex);
            for (int s = 0; s < 2; ++s) {
                ch.pos[s] = t.pos[s];
                ch.cntStack[s] = t.cntStack[s];
                ch.threadDone[s] = t.threadDone[s];
                ch.sink[s] = t.sink[s];
                ch.posCell[s].restore(t.posSeq[s], t.pos[s],
                                      t.cntStack[s]);
            }
            ch.queue = t.queue;
            ch.barrier = t.barrier;
            ch.stateVersion.store(t.stateVersion,
                                  std::memory_order_release);
        }
        {
            std::lock_guard<std::mutex> lock(lockMutex);
            lockOrder = img.lockOrder;
            slaveLockIdx = img.slaveLockIdx;
            lockVersion.store(img.lockVersion,
                              std::memory_order_release);
        }
        taints.restore(img.taintKeys, img.taintVersion);
        {
            std::lock_guard<std::mutex> lock(findingsMutex_);
            findings_ = img.findings;
        }
        {
            std::lock_guard<std::mutex> lock(traceMutex_);
            trace_ = img.trace;
        }
        for (int s = 0; s < 2; ++s) {
            progress[s].store(img.progress[s],
                              std::memory_order_release);
            sideFinished_[s].store(img.sideFinished[s],
                                   std::memory_order_release);
        }
        alignedSyscalls->inc(img.counters.alignedSyscalls);
        syscallDiffs->inc(img.counters.syscallDiffs);
        slaveSyscalls->inc(img.counters.slaveSyscalls);
        barrierPairings->inc(img.counters.barrierPairings);
        barrierSkips->inc(img.counters.barrierSkips);
        copies->inc(img.counters.copies);
        executes->inc(img.counters.executes);
        decouples->inc(img.counters.decouples);
        sinkAligned->inc(img.counters.sinkAligned);
        sinkDiffs->inc(img.counters.sinkDiffs);
        sinkVanished->inc(img.counters.sinkVanished);
        blockedPolls->inc(img.counters.blockedPolls);
        watchdogPolls->inc(img.counters.watchdogPolls);
        watchdogExpired->inc(img.counters.watchdogExpired);
        lockShares->inc(img.counters.lockShares);
        lockDiverged->inc(img.counters.lockDiverged);
    }

    /** Progress heartbeat for the deadlock watchdog. */
    std::atomic<std::uint64_t> progress[2] = {0, 0};

    /** Engine-level abort: every wait gives up immediately. */
    std::atomic<bool> abort{false};

  private:
    obs::Scope &scope_;
    std::mutex traceMutex_;
    std::vector<TraceEvent> trace_;
    std::mutex mapMutex_;
    std::map<int, std::unique_ptr<ThreadChannel>> channels_;
    std::atomic<bool> sideFinished_[2] = {false, false};
    std::mutex findingsMutex_;
    std::vector<Finding> findings_;
};

} // namespace ldx::core
