/**
 * @file
 * obs::FlightRecorder — an always-on, per-side ring buffer of compact
 * dual-execution events.
 *
 * The recorder is the forensic counterpart of the metrics registry:
 * counters say *how many* decouples/diffs/stalls a run had, the
 * flight recorder says *which* — each slow-path protocol action
 * (syscall alignment verdict, sink rendezvous outcome, barrier
 * pairing, counter push/pop, block/unblock, lock-order event,
 * mutation, trap, watchdog expiry) is appended as one fixed-size
 * record. The predecoded dispatch fast path records nothing, so the
 * recorder's cost is one timestamp + one relaxed fetch_add + one
 * 48-byte store per event that was already paying for a mutex or an
 * atomic — negligible next to the operation it describes.
 *
 * Each side's ring has a single effective writer (that side's driver
 * thread, which runs its VM, kernel, and controller), so slot stores
 * need no per-slot synchronization; the engine snapshots the rings
 * only after both drivers have joined. On overflow the oldest events
 * are overwritten and counted in dropped(), so the newest history —
 * the part that explains the divergence — is always retained.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <new>
#include <string>
#include <vector>

namespace ldx::obs {

/** What a recorded event describes. */
enum class RecKind : std::uint8_t
{
    SyscallExecute,  ///< master executed and enqueued (Alg. 2)
    SyscallCopy,     ///< slave copied the master's outcome
    SyscallDecouple, ///< slave executed independently (misaligned)
    SinkAligned,     ///< sink rendezvous compared equal
    SinkDiff,        ///< sink rendezvous found a difference
    SinkVanish,      ///< sink had no counterpart in the peer
    BarrierPair,     ///< loop backedge rendezvous paired
    BarrierSkip,     ///< backedge passed unpaired (divergence)
    CounterPush,     ///< counter saved (indirect/recursive call, §6)
    CounterPop,      ///< counter restored
    Block,           ///< a wait began (arg = wait gate kind)
    Unblock,         ///< the wait resolved (arg = polls spent)
    LockShare,       ///< slave followed the master's lock order (§7)
    LockDiverge,     ///< lock order diverged; mutex tainted
    Mutation,        ///< a source resource was mutated / pre-tainted
    Output,          ///< kernel journaled an output (arg = payload hash)
    ThreadStart,     ///< VM context created
    ThreadDone,      ///< VM context finished
    Trap,            ///< VM trapped (memory fault, ...)
    WatchdogExpire,  ///< a wait's progress watchdog gave up
};

/** Stable machine-readable slug of an event kind ("decouple", ...). */
const char *recKindName(RecKind kind);

/** True for kinds that mark the two executions as having diverged. */
bool recKindDivergent(RecKind kind);

/** One compact flight-recorder event (fixed size, no ownership). */
struct RecEvent
{
    std::int64_t tsUs = 0;    ///< obs::nowUs() shared timeline
    std::uint64_t seq = 0;    ///< per-side sequence (never wraps)
    RecKind kind = RecKind::SyscallExecute;
    std::uint8_t side = 0;    ///< 0 = master, 1 = slave
    std::uint16_t tid = 0;
    std::int32_t site = -1;   ///< syscall/barrier site (-1 none)
    std::int64_t cnt = 0;     ///< counter value at the event
    std::int64_t sysNo = -1;  ///< syscall number (-1 none)
    std::uint64_t arg = 0;    ///< kind-specific payload (see RecKind)
};

/** FNV-1a digest used for hashed payloads/keys in events. */
inline std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** Two fixed-capacity event rings, one per execution side. */
class FlightRecorder
{
  public:
    static constexpr std::size_t kDefaultCapacity = 8192;

    /**
     * The ring slots are allocated but not initialised: most runs
     * record a few dozen events, so a run pays for the slots it
     * writes, not for zero-filling two full rings. Only slots below
     * each head are ever read.
     */
    explicit FlightRecorder(std::size_t capacity = kDefaultCapacity)
        : cap_(capacity ? capacity : 1)
    {
        for (Ring &ring : rings_)
            ring.slots.reset(static_cast<RecEvent *>(
                ::operator new(cap_ * sizeof(RecEvent))));
    }

    std::size_t capacity() const { return cap_; }

    /**
     * Append @p evt to @p side's ring, stamping its timestamp and
     * sequence number. Oldest events are overwritten on overflow.
     */
    void record(int side, RecEvent evt);

    /** Events ever recorded on @p side (including overwritten). */
    std::uint64_t
    total(int side) const
    {
        return rings_[side & 1].head.load(std::memory_order_acquire);
    }

    /** Events lost to ring overwrite on @p side. */
    std::uint64_t
    dropped(int side) const
    {
        std::uint64_t t = total(side);
        return t > cap_ ? t - cap_ : 0;
    }

    /**
     * Copy @p side's surviving events, oldest first. Call only after
     * the side's driver has quiesced (the engine snapshots after
     * joining both drivers).
     */
    std::vector<RecEvent> snapshot(int side) const;

  private:
    /**
     * Cache-line aligned: the two sides' drivers append concurrently,
     * and heads sharing a line would bounce it on every event.
     */
    struct alignas(64) Ring
    {
        struct Release
        {
            void operator()(RecEvent *p) const { ::operator delete(p); }
        };

        std::atomic<std::uint64_t> head{0};
        /** cap_ slots of raw storage (RecEvent is implicit-lifetime). */
        std::unique_ptr<RecEvent, Release> slots;
    };

    std::size_t cap_;
    Ring rings_[2];
};

} // namespace ldx::obs
