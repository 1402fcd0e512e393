/**
 * @file
 * The per-execution syscall controllers (Algorithm 2 and its slave
 * dual, §4.2), implemented as vm::SyscallPort backends.
 *
 * Master, at a syscall:
 *  - sink: publish the sink and wait for the slave to reach the same
 *    counter level; classify the outcome into Algorithm 2's cases
 *    1-3; then perform the real output.
 *  - input/non-sink output: execute for real and enqueue the outcome
 *    for the slave.
 *
 * Slave, at a syscall:
 *  - sink: publish and wait symmetrically (the slave's external
 *    output is always suppressed);
 *  - input: look for the master's aligned outcome (same counter,
 *    same site, same argument signature) and copy it; if the master
 *    has demonstrably passed this alignment level (its position
 *    counter exceeds ours, or equals it at a different site), the
 *    syscall has no alignment — execute it independently (decoupled)
 *    and count a syscall difference; otherwise wait.
 *
 * Resource tainting (§7): once an operation on a resource misaligns,
 * its key is tainted and later syscalls touching it never couple.
 *
 * Every wait is guarded by a peer-progress watchdog: if the peer
 * retires no instructions across a large poll budget, the waiter
 * decouples instead of hanging (this also bounds the cost of threads
 * that exist in only one execution).
 *
 * Poll fast path: the VM re-issues a blocked request on every
 * scheduling round, so most controller invocations are re-polls whose
 * decision inputs have not changed. Each Blocked return records a
 * *gate* — the identity of the wait plus the versions of everything
 * the locked evaluation depended on (channel stateVersion, taint-map
 * version, lock-order version, the peer's position seqlock). A
 * re-poll whose gate still holds is answered Blocked without touching
 * the channel mutex; when only the peer's position moved, the wait
 * predicate is re-evaluated against the lock-free PosCell snapshot
 * and the mutex is taken only when the wait might actually resolve.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "ldx/channel.h"
#include "obs/profiler.h"
#include "vm/hooks.h"

namespace ldx::core {

/**
 * Shared snapshot trigger for campaign fork execution. Both
 * controllers point at one instance; each side fires once, at its
 * first Input/Output syscall whose resource key matches @p key,
 * *before* any coupling state or world state is touched — so the
 * paused machines still hold the exact pre-touch prefix state, which
 * is what makes the captured snapshot policy-independent (mutations
 * only change the values behind matching keys).
 *
 * With pauseOnHit the firing side pauses its machine and the syscall
 * is answered Blocked; the engine captures a fork point once both
 * sides are paused, then resumes (the hit flags stay set, so the
 * re-issued syscalls flow normally). Without pauseOnHit the trigger
 * is a pure probe: it records where the prefix ends (for the
 * snapshot-off measurement of campaign.dual.prefix_instrs) and lets
 * execution continue undisturbed.
 */
struct SnapshotTrigger
{
    std::string key;
    bool pauseOnHit = true;
    std::atomic<bool> hit[2] = {false, false};
    /** vm.stats().instructions at each side's first key touch. */
    std::atomic<std::uint64_t> prefixInstrs[2] = {0, 0};

    bool
    fired(int side) const
    {
        return hit[side].load(std::memory_order_acquire);
    }

    bool
    bothFired() const
    {
        return fired(0) && fired(1);
    }
};

/** Controller tuning knobs. */
struct ControllerOptions
{
    Side side = Side::Master;

    /** Predicate: is an output on this channel a sink? */
    std::function<bool(const std::string &channel)> isSinkChannel;

    /** Share lock-acquisition order master -> slave (§7). */
    bool shareLockOrder = true;

    /** Polls with no peer progress before a lock wait taints. */
    std::uint64_t lockPollTimeout = 50000;

    /** Polls with no peer progress before any wait decouples. */
    std::uint64_t stallTimeout = 100000;

    /**
     * Guest-level stall attribution (the profiler's coupling-cost
     * view): when non-null, every closed wait folds its episode,
     * poll count, and watchdog expiry into the entry keyed by the
     * instrumentation site that gated it. Single-threaded like the
     * controller itself.
     */
    obs::SiteStallMap *stalls = nullptr;

    /** Snapshot trigger/probe; nullptr for ordinary runs. */
    SnapshotTrigger *trigger = nullptr;
};

/** One side's syscall controller. */
class Controller : public vm::SyscallPort
{
  public:
    Controller(SyncChannel &chan, ControllerOptions opts);

    vm::PortReply onSyscall(const vm::SyscallRequest &req,
                            vm::Machine &vm, os::Outcome &out) override;
    vm::PortReply onBarrier(int tid, std::int64_t site, std::int64_t iter,
                            std::int64_t cnt, std::int64_t reset_delta,
                            vm::Machine &vm) override;
    void onCounterPush(int tid, std::int64_t saved,
                       vm::Machine &vm) override;
    void onCounterPop(int tid, std::int64_t restored,
                      vm::Machine &vm) override;
    void onThreadDone(int tid, vm::Machine &vm) override;
    void onFinished(vm::Machine &vm) override;

    /**
     * Lockstep idle fast-forward, remaining-budget query. Called by
     * the driver after a round in which neither side retired an
     * instruction. Marks every live wait — its gate, its poll budget,
     * and the sequence of this side's own published position for the
     * waiting thread (every locked re-evaluation republishes it, so
     * an unchanged sequence proves each poll since the last mark was
     * answered by the lock-free gate) — and compares the mark with
     * the previous call's. @p polled says whether this side's machine
     * was stepped in the round; if so, every gated wait was polled
     * exactly once. Returns 0 when @p fresh (only mark) or when the
     * round changed anything but the poll budgets by exactly one poll
     * each; otherwise the number of further such rounds up to and
     * including the one in which the first budget expires, or
     * UINT64_MAX when no wait has a budget (only SinkBehind waits).
     */
    std::uint64_t idleRoundsLeft(bool fresh, bool polled);

    /**
     * Book @p k further idle rounds at once: exactly the poll budgets
     * and the watchdog.polls / chan.blocked_polls tallies that @p k
     * more rounds of lock-free re-polls would leave. Valid only right
     * after idleRoundsLeft() returned more than @p k for the same
     * @p polled.
     */
    void skipIdleRounds(std::uint64_t k, bool polled);

  private:
    int self() const { return static_cast<int>(opts_.side); }
    int peer() const { return static_cast<int>(peerOf(opts_.side)); }

    /** Which handler a fast-poll gate belongs to. */
    enum class PollSite
    {
        Syscall, ///< shared input / sink waits
        Barrier,
        Lock,
    };

    /** Per-tid ThreadChannel lookup without SyncChannel's map mutex. */
    ThreadChannel &channel(int tid);

    /** Argument signature used to match syscalls across executions. */
    std::uint64_t argSignature(const vm::SyscallRequest &req,
                               vm::Machine &vm) const;

    /** Is this output-class request a sink under the configuration? */
    bool isSink(const vm::SyscallRequest &req, vm::Machine &vm,
                std::string *payload_out, std::string *channel_out) const;

    /** Watchdog bookkeeping; true when the wait should give up. */
    bool waitExpired(int tid, std::uint64_t budget);
    void clearWait(int tid);

    /**
     * True when the re-poll identified by (site of call, tid, cnt,
     * site, iter) provably still blocks, judged entirely from
     * lock-free state. On true the caller returns Blocked without
     * acquiring the channel mutex; on false it runs the full locked
     * evaluation (which re-records or clears the gate).
     */
    bool fastPollBlocked(PollSite where, int tid, std::int64_t cnt,
                         int site, std::int64_t iter);

    /** Drop any recorded gate for @p tid (slow path is running). */
    void invalidateGate(int tid);

    vm::PortReply handleSink(const vm::SyscallRequest &req,
                             vm::Machine &vm, os::Outcome &out,
                             const std::string &payload);
    vm::PortReply handleMasterShared(const vm::SyscallRequest &req,
                                     vm::Machine &vm, os::Outcome &out);
    vm::PortReply handleSlaveShared(const vm::SyscallRequest &req,
                                    vm::Machine &vm, os::Outcome &out);
    vm::PortReply handleLock(const vm::SyscallRequest &req,
                             vm::Machine &vm);

    void bumpProgress();

    /** Record a Fig. 3-style trace event when tracing is on. */
    void trace(TraceEvent::Kind kind, const vm::SyscallRequest &req);

    /** Append one event to this side's flight-recorder ring. */
    void recordEvt(obs::RecKind kind, int tid, std::int64_t cnt,
                   int site, std::int64_t sysNo, std::uint64_t arg = 0);

    SyncChannel &chan_;
    ControllerOptions opts_;
    obs::FlightRecorder *rec_;

    /** Per-thread watchdog + poll-gate state. */
    struct WaitState
    {
        std::uint64_t polls = 0;
        std::uint64_t peerProgressSnapshot = 0;
        /**
         * Sticky watchdog verdict: once a wait expires it stays
         * expired until the wait resolves (clearWait). The locked
         * path consults this first, so a fast-path expiry followed by
         * the locked re-evaluation cannot silently re-arm the budget.
         */
        bool expired = false;

        /** What kind of wait the recorded gate protects. */
        enum class Gate : std::uint8_t
        {
            None,
            Input,      ///< slave shared-input wait
            SinkWait,   ///< sink wait, peer sink absent/resolved
            SinkBehind, ///< sink wait, peer's sink is behind/unknown
            Barrier,
            Lock,
        };
        Gate gate = Gate::None;
        /** One Block event is recorded per wait (not per re-poll). */
        bool blockRecorded = false;
        std::int64_t gateSysNo = -1; ///< syscall waited at (-1 barrier)
        std::int64_t gateCnt = 0;
        int gateSite = -1;
        std::int64_t gateIter = 0;
        std::int64_t gateTheirsCnt = 0; ///< SinkBehind: peer sink cnt
        std::int64_t gateLockId = 0;    ///< Lock: mutex id
        std::uint64_t gateState = 0;    ///< ThreadChannel::stateVersion
        std::uint64_t gateTaint = 0;    ///< taint-map version
        std::uint64_t gateLockVer = 0;  ///< SyncChannel::lockVersion
        std::uint64_t gatePeerSeq = 0;  ///< peer PosCell sequence
        /** My counter stack at gate time (stable while blocked). */
        std::vector<std::int64_t> gateMyStack;
    };
    std::map<int, WaitState> waits_;

    /** Record @p w's Block event (first block of the wait only). */
    void recordBlock(WaitState &w, int tid, std::int64_t sysNo);

    /** Slave lock-follow poll budgets (was shared channel state). */
    std::map<std::pair<int, std::int64_t>, std::uint64_t> lockPolls_;

    /** Stable ThreadChannel pointers (channels are never removed). */
    std::map<int, ThreadChannel *> channelCache_;

    // Fast-poll scratch (avoids per-poll allocation).
    Position peerPosScratch_;
    std::vector<std::int64_t> peerStackScratch_;

    /** One live wait as idleRoundsLeft() marks it. */
    struct IdleWait
    {
        int tid = 0;
        WaitState::Gate gate = WaitState::Gate::None;
        bool expired = false;
        bool blockRecorded = false;
        std::int64_t gateSysNo = 0;
        std::int64_t gateCnt = 0;
        int gateSite = 0;
        std::int64_t gateIter = 0;
        std::int64_t gateTheirsCnt = 0;
        std::int64_t gateLockId = 0;
        std::uint64_t gateState = 0;
        std::uint64_t gateTaint = 0;
        std::uint64_t gateLockVer = 0;
        std::uint64_t gatePeerSeq = 0;
        std::uint64_t peerProgress = 0;
        std::uint64_t ownSeq = 0;
        std::uint64_t polls = 0;     ///< WaitState::polls
        std::uint64_t lockPolls = 0; ///< lockPolls_ entry (Lock gate)

        bool operator==(const IdleWait &) const = default;
    };
    /** The previous idle mark, and the one being taken. */
    std::vector<IdleWait> idleMark_, idleNext_;

  public:
    /**
     * Poll-gate / watchdog state by value (snapshot forking). A
     * forked controller must resume with the captured wait budgets —
     * a fresh map would re-arm every in-flight watchdog and the fork
     * could decouple later than the full run it must replicate. The
     * struct is opaque to callers: capture from the paused
     * controller, restore into the fork's.
     */
    struct Image
    {
        std::map<int, WaitState> waits;
        std::map<std::pair<int, std::int64_t>, std::uint64_t> lockPolls;
    };

    Image captureImage() const { return {waits_, lockPolls_}; }

    void
    restoreImage(const Image &image)
    {
        waits_ = image.waits;
        lockPolls_ = image.lockPolls;
    }
};

} // namespace ldx::core
