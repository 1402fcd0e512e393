/**
 * @file
 * The ldx virtual machine: a step-based interpreter for the IR with
 * green threads, guest-memory return tokens, the counter runtime
 * (cnt, counter stack, barrier iteration bookkeeping), and the
 * SyscallPort interception boundary the dual-execution engine plugs
 * into.
 *
 * step() advances at most one instruction; contexts blocked on the
 * port are re-polled when scheduled. This lets a driver interleave
 * two machines deterministically (LockstepDriver) or run them on two
 * OS threads (ThreadedDriver) without the machine knowing which.
 */
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ir/ir.h"
#include "obs/profiler.h"
#include "obs/scope.h"
#include "os/kernel.h"
#include "support/prng.h"
#include "vm/hooks.h"
#include "vm/memory.h"
#include "vm/predecode.h"

/**
 * Computed-goto (token-threaded) dispatch needs the GNU address-of-
 * label extension. Define LDX_FORCE_SWITCH_DISPATCH to build the
 * portable switch fallback everywhere (the CI matrix covers it).
 */
#if !defined(LDX_FORCE_SWITCH_DISPATCH) && \
    (defined(__GNUC__) || defined(__clang__))
#define LDX_HAS_COMPUTED_GOTO 1
#else
#define LDX_HAS_COMPUTED_GOTO 0
#endif

namespace ldx::vm {

/**
 * Fast-path dispatch strategy. All modes retire the identical
 * instruction stream — verdicts, stats, and recorder event order are
 * byte-identical — only the wall clock moves (docs/PERFORMANCE.md).
 */
enum class DispatchMode
{
    Switch,   ///< portable switch loop (the seed fast path)
    Threaded, ///< computed-goto token threading, run chaining (default)
};

/** True when this build can run computed-goto dispatch. */
inline constexpr bool
hasThreadedDispatch()
{
    return LDX_HAS_COMPUTED_GOTO != 0;
}

/** Stable mode name ("switch" | "threaded"). */
const char *dispatchModeName(DispatchMode mode);

/** Parse a --dispatch value; false on unknown names. */
bool parseDispatchMode(const std::string &name, DispatchMode &out);

/** Result of one step() call. */
enum class StepStatus
{
    Progress,  ///< one instruction executed
    Stalled,   ///< every pollable context is blocked on the port
    Finished,  ///< program completed (normally or via exit())
    Trapped,   ///< a guest fault terminated the program
};

/** Per-invocation activation record. */
struct Frame
{
    int fn = -1;
    int block = 0;
    int ip = 0;                      ///< next instruction index
    std::vector<std::int64_t> regs;
    std::uint64_t spAtEntry = 0;
    std::uint64_t tokenAddr = 0;     ///< 0 for the entry frame
    std::int64_t token = 0;          ///< expected return token
    int retReg = -1;                 ///< caller register for the result
};

/** One green thread. */
struct Context
{
    enum class State
    {
        Runnable,
        BlockedPort,   ///< syscall/barrier waiting on the port
        BlockedMutex,
        BlockedJoin,
        Done,
    };

    int tid = 0;
    State state = State::Runnable;
    std::vector<Frame> frames;
    std::uint64_t sp = 0;

    // Counter runtime (§4-§6).
    std::int64_t cnt = 0;
    std::vector<std::int64_t> cntStack;
    std::map<std::int64_t, std::int64_t> barrierIter;
    bool portApproved = false; ///< current syscall already aligned

    std::int64_t joinTarget = -1;
    std::int64_t mutexWait = -1;
    std::int64_t retVal = 0;

    // Dynamic counter statistics (Table 1 "dyn. cnt" columns).
    std::uint64_t instrCount = 0;
    std::int64_t maxCnt = 0;
    double cntSum = 0.0;
    std::uint64_t cntSamples = 0;
    std::size_t maxCntDepth = 0;

    /** Previous retired opcode (0xff none); pair-profile bookkeeping. */
    std::uint8_t lastOp = 0xff;
};

/** Trap report. */
struct TrapInfo
{
    TrapKind kind = TrapKind::MemoryFault;
    std::string message;
    int tid = 0;
    ir::SourceLoc loc;
};

/** Machine configuration. */
struct MachineConfig
{
    std::uint64_t stackSize = 1 << 16;
    int maxThreads = 16;
    int quantum = 50;              ///< instructions per scheduling slice
    std::uint64_t schedSeed = 1;   ///< preemption jitter seed
    bool schedJitter = false;      ///< vary slice lengths (Table 4 runs)
    std::uint64_t maxInstructions = 200'000'000;
    /**
     * Dispatch through the predecoded instruction stream (see
     * predecode.h). Retired state is bit-identical to the legacy
     * per-step path; disable to force the seed interpreter (the
     * differential-test oracle).
     */
    bool predecode = true;
    /**
     * Fast-path dispatch strategy (`--dispatch`). Threaded degrades
     * to Switch when the build lacks computed goto
     * (hasThreadedDispatch()); semantics never depend on the mode.
     */
    DispatchMode dispatch = DispatchMode::Threaded;
    /**
     * Optional shared predecoded module (engine and campaign reuse,
     * profiler metadata). Must be decodeAll()ed — the machine then
     * never mutates it, so one instance can back many VMs, including
     * the threaded driver's two sides. Null: the machine predecodes
     * privately (lazily) when `predecode` is set.
     */
    std::shared_ptr<PredecodedModule> predecoded;
    /**
     * Dynamic opcode-pair profile: when non-null, points at a
     * kNumOpcodes x kNumOpcodes row-major table and every retired
     * (previous, current) opcode pair per context increments one
     * cell. Forces the legacy per-step path so every instruction is
     * observed; used by bench/interp_throughput's dynamic pair
     * profile.
     */
    std::uint64_t *pairProfile = nullptr;
    /**
     * Guest-level site profiler (docs/OBSERVABILITY.md): when
     * non-null, the machine shapes the counters to the decoded
     * program at construction and attributes retired instructions,
     * syscall counts, virtual syscall latency, blocked re-polls, and
     * call edges to decoded instruction sites as it runs. Requires
     * predecode; the counting is a template parameter of the fast
     * paths, so a null pointer costs literally zero cycles
     * (docs/PERFORMANCE.md, "Zero-cost-when-off site counters").
     */
    obs::SiteCounters *siteProfile = nullptr;
    /**
     * Fault injection for the fuzzing oracle's self-test: when
     * nonzero, every Nth retired CntAdd is skipped (its compensation
     * delta is dropped), applied identically on both decode paths.
     * This simulates a missed compensating increment — the class of
     * instrumentation bug the final-counter invariant exists to
     * catch. Never set outside tests / `ldx fuzz --inject-skip-cnt`.
     */
    std::uint64_t chaosSkipCntAddPeriod = 0;
};

/** Aggregated runtime statistics. */
struct MachineStats
{
    std::uint64_t instructions = 0;
    std::uint64_t syscalls = 0;
    std::int64_t maxCnt = 0;
    double avgCnt = 0.0;
    std::size_t maxCntDepth = 0;
    std::uint64_t barriers = 0;

    // Retired instruction mix by opcode category.
    std::uint64_t mixData = 0;    ///< Const/Move
    std::uint64_t mixAlu = 0;     ///< arithmetic, compares, Neg/Not
    std::uint64_t mixMem = 0;     ///< Load/Store/Alloca/GlobalAddr
    std::uint64_t mixCall = 0;    ///< Call/ICall/FnAddr/LibCall/Ret
    std::uint64_t mixBranch = 0;  ///< Br/CondBr
    std::uint64_t mixSyscall = 0; ///< Syscall
    std::uint64_t mixCounter = 0; ///< CntAdd/SyncBarrier/CntPush/CntPop
};

/** Function-address token encoding used by FnAddr / ICall. */
constexpr std::int64_t kFnTokenBase = 0x7c00000000000000LL;

/**
 * A full machine checkpoint: every piece of interpreter state needed
 * to resume (or fork) an execution bit-identically — contexts with
 * their frames and counter runtime, the scheduler (current context,
 * remaining slice, jitter PRNG, poll bookkeeping), guest memory, the
 * mutex tables, and the retirement statistics. The memory arena is
 * shared by shared_ptr, so many forks of one snapshot alias a single
 * copy. Produced by Machine::captureImage(), consumed by
 * Machine::restoreImage() on a machine built from the same module
 * and an equivalent MachineConfig.
 */
struct MachineImage
{
    std::shared_ptr<const MemoryImage> memory;
    std::vector<Context> contexts;
    int curCtx = -1;
    int sliceLeft = 0;
    Prng schedPrng{1};
    std::vector<std::uint64_t> triedSeen;
    std::uint64_t triedGen = 0;
    std::map<std::int64_t, std::int64_t> mutexOwner;
    std::map<std::int64_t, std::vector<int>> mutexWaiters;
    bool started = false;
    bool finished = false;
    std::int64_t exitCode = 0;
    std::optional<TrapInfo> trap;
    std::uint64_t totalInstrs = 0;
    std::uint64_t totalSyscalls = 0;
    std::uint64_t chaosCntAdds = 0;
    std::uint64_t totalBarriers = 0;
    std::array<std::uint64_t,
               static_cast<std::size_t>(ir::kNumOpcodes)>
        opCounts{};
};

/** The interpreter. */
class Machine
{
  public:
    Machine(const ir::Module &module, os::Kernel &kernel,
            MachineConfig cfg = {});

    /** Create the main context; must be called once before step(). */
    void start();

    /** Advance at most one instruction. */
    StepStatus step();

    /**
     * Advance up to @p budget instructions, stopping early at the
     * first blocked poll round, trap, or completion — semantically
     * identical to calling step() until the first non-Progress
     * result. @p retired is set to the number of instructions that
     * actually retired. On the fast path (predecode enabled, no
     * ExecHook) this batches dispatch and accounting per run.
     */
    StepStatus stepMany(std::uint64_t budget, std::uint64_t &retired);

    /** Run to completion (native, non-dual executions). */
    StepStatus run();

    /**
     * Ask the machine to stall at the current boundary. Checked
     * before the blocked-poll bookkeeping mutates any scheduler state
     * (slice, poll generation), so a paused machine's state is
     * exactly the state an un-paused machine had going *into* the
     * blocked attempt: clearing the pause and stepping again replays
     * the attempt identically. Set by the snapshot trigger from
     * inside a SyscallPort; step()/stepMany() report Stalled while
     * pending.
     */
    void
    requestPause()
    {
        pausePending_.store(true, std::memory_order_release);
    }
    void
    clearPause()
    {
        pausePending_.store(false, std::memory_order_relaxed);
    }
    bool
    pauseRequested() const
    {
        return pausePending_.load(std::memory_order_relaxed);
    }

    /**
     * Checkpoint the complete interpreter state (contexts, scheduler,
     * memory arena, mutexes, statistics) into a MachineImage.
     */
    MachineImage captureImage() const;

    /**
     * Overwrite this machine's state from @p image. The machine must
     * wrap the same module with an equivalent MachineConfig (same
     * layout parameters); the kernel behind it is whatever this
     * machine was constructed with — forking swaps in a patched
     * kernel copy that way. @p chaos_drop_page forwards to
     * Memory::restore (stale-snapshot fault injection).
     */
    void restoreImage(const MachineImage &image,
                      std::uint64_t chaos_drop_page = 0);

    bool
    finished() const
    {
        return finished_.load(std::memory_order_relaxed);
    }

    /**
     * finished() || pauseRequested(), safe to poll from a thread other
     * than the one stepping this machine (the threaded driver's
     * completion check): the acquire loads pair with the release
     * stores that finish or pause it.
     */
    bool
    settled() const
    {
        return finished_.load(std::memory_order_acquire) ||
               pausePending_.load(std::memory_order_acquire);
    }

    /**
     * Scheduler position, for the lockstep driver's idle-round
     * fast-forward. Marks taken before and after a stepMany() call
     * that retired nothing are equal exactly when the round left the
     * scheduler where it found it, so the next such round polls the
     * same contexts in the same order. The poll generation is left
     * out: every blocked round advances it by one.
     */
    struct SchedMark
    {
        int curCtx = -1;
        int sliceLeft = 0;
        std::uint64_t prng = 0;
        bool settled = false;

        bool operator==(const SchedMark &) const = default;
    };

    SchedMark
    schedMark() const
    {
        return {curCtx_, sliceLeft_, schedPrng_.state(), settled()};
    }

    /**
     * Apply @p k more blocked rounds at once: the state @p k further
     * stepMany() calls would leave when every pollable context is
     * parked at the port and each poll answers Blocked — the poll
     * generation, the counter sample each syscall re-issue takes, and
     * each site's stall-poll count. A settled machine is not stepped,
     * so it is left as it is.
     */
    void skipIdleRounds(std::uint64_t k);

    std::int64_t exitCode() const { return exitCode_; }
    const std::optional<TrapInfo> &trap() const { return trap_; }

    void setSyscallPort(SyscallPort *port) { port_ = port; }
    void setExecHook(ExecHook *hook) { execHook_ = hook; }
    void setSinkHook(SinkHook *hook) { sinkHook_ = hook; }

    /** Attach observability: thread lifecycle / trap trace instants. */
    void
    setObs(obs::Scope *scope, int lane)
    {
        obs_ = scope;
        obsLane_ = lane;
    }

    Memory &memory() { return *memory_; }
    const Memory &memory() const { return *memory_; }
    os::Kernel &kernel() { return kernel_; }
    const ir::Module &module() const { return module_; }

    const Context &context(int tid) const { return *contexts_[tid]; }
    std::size_t numContexts() const { return contexts_.size(); }

    MachineStats stats() const;

    /** Address of global @p id in guest memory. */
    std::uint64_t globalAddr(int id) const { return globalAddrs_[id]; }

  private:
    /** Pick the next pollable context; -1 when none. */
    int pickContext();

    /** Execute one instruction of @p ctx; returns false if blocked. */
    bool executeOne(Context &ctx);

    /**
     * Execute one run of fast instructions of @p ctx (at most
     * @p limit of them) through the predecoded stream; returns the
     * number retired. Never blocks — the caller dispatches slow
     * (flagged) instructions through executeOne. This is the
     * portable switch dispatcher (DispatchMode::Switch).
     * @tparam Profiled compile per-site profile counting in/out.
     */
    template <bool Profiled>
    std::uint64_t fastRun(Context &ctx, std::uint64_t limit);

    /**
     * Token-threaded dispatcher: computed-goto dispatch that also
     * chains across branches, so one call retires up to @p limit
     * instructions without bouncing through stepMany at every block
     * boundary. Retired state is bit-identical to fastRun. Only
     * compiled when LDX_HAS_COMPUTED_GOTO.
     * @tparam Profiled compile per-site profile counting in/out.
     */
    template <bool Profiled>
    std::uint64_t fastRunThreaded(Context &ctx, std::uint64_t limit);

    /** True when the predecoded dispatch loop may be used. */
    bool
    useFastPath() const
    {
        return decoded_ != nullptr && execHook_ == nullptr &&
               cfg_.pairProfile == nullptr;
    }

    /** Count a retired opcode into cfg_.pairProfile (when set). */
    void
    profilePair(Context &ctx, ir::Opcode op)
    {
        if (!cfg_.pairProfile)
            return;
        std::uint8_t cur = static_cast<std::uint8_t>(op);
        if (ctx.lastOp != 0xff)
            ++cfg_.pairProfile[static_cast<std::size_t>(ctx.lastOp) *
                                   static_cast<std::size_t>(
                                       ir::kNumOpcodes) +
                               cur];
        ctx.lastOp = cur;
    }

    /** Shared completion/deadlock handling when no context is pollable. */
    StepStatus settleNoPollable();

    /** Handle the Syscall opcode; returns false if blocked. */
    bool doSyscall(Context &ctx, const ir::Instr &instr);

    /** Internal (thread/mutex) syscall semantics after port approval. */
    bool doLocalSyscall(Context &ctx, const ir::Instr &instr,
                        const SyscallRequest &req, os::Outcome &out);

    void doCall(Context &ctx, const ir::Instr &instr, int callee);
    void doRet(Context &ctx, const ir::Instr &instr);
    std::int64_t doLibCall(Context &ctx, const ir::Instr &instr,
                           std::uint64_t &eff_addr);

    std::int64_t eval(const Context &ctx, const ir::Operand &op) const;
    void setReg(Context &ctx, int reg, std::int64_t v);

    Context &newContext(int fn, std::vector<std::int64_t> args);
    void finishContext(Context &ctx, std::int64_t ret_val);
    void finishProgram(std::int64_t code);

    /** Publish completion to settled() (release; see finished_). */
    void
    markFinished()
    {
        finished_.store(true, std::memory_order_release);
    }

    std::int64_t makeToken(int fn, int block, int ip) const;

    /** Record + trace an instant on this machine's lane (null-safe). */
    void emitObsInstant(obs::RecKind kind, const char *name, int tid,
                        const std::string &detail = std::string());

    const ir::Module &module_;
    os::Kernel &kernel_;
    MachineConfig cfg_;
    std::unique_ptr<Memory> memory_;
    std::unique_ptr<PredecodedModule> decodedOwned_;
    std::shared_ptr<PredecodedModule> decodedShared_;
    PredecodedModule *decoded_ = nullptr;
    /** cfg_.dispatch == Threaded and the build has computed goto. */
    bool threaded_ = false;
    obs::SiteCounters *prof_ = nullptr; ///< cfg_.siteProfile, shaped
    std::vector<std::uint64_t> globalAddrs_;

    std::vector<std::unique_ptr<Context>> contexts_;
    int curCtx_ = -1;
    int sliceLeft_ = 0;
    Prng schedPrng_;

    // stepMany poll bookkeeping: a context whose generation equals
    // triedGen_ has already been polled without progress since the
    // last retired instruction (mirrors step()'s tried[] vector
    // without the per-call allocation).
    std::vector<std::uint64_t> triedSeen_;
    std::uint64_t triedGen_ = 0;

    // Mutexes: id -> owner tid (-1 free) and FIFO waiters.
    std::map<std::int64_t, std::int64_t> mutexOwner_;
    std::map<std::int64_t, std::vector<int>> mutexWaiters_;

    SyscallPort *port_ = nullptr;
    ExecHook *execHook_ = nullptr;
    SinkHook *sinkHook_ = nullptr;
    obs::Scope *obs_ = nullptr;
    int obsLane_ = 0;

    bool started_ = false;
    // Written only by the thread stepping this machine; read by the
    // driver thread through settled().
    std::atomic<bool> finished_{false};
    std::atomic<bool> pausePending_{false};
    std::int64_t exitCode_ = 0;
    std::optional<TrapInfo> trap_;
    std::uint64_t totalInstrs_ = 0;
    std::uint64_t totalSyscalls_ = 0;
    std::uint64_t chaosCntAdds_ = 0; ///< CntAdds seen (fault injection)
    std::uint64_t totalBarriers_ = 0;
    std::array<std::uint64_t,
               static_cast<std::size_t>(ir::kNumOpcodes)>
        opCounts_{};
};

} // namespace ldx::vm
