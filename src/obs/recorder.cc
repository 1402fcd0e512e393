#include "obs/recorder.h"

#include "obs/registry.h"
#include "support/diag.h"

namespace ldx::obs {

const char *
recKindName(RecKind kind)
{
    switch (kind) {
      case RecKind::SyscallExecute: return "execute";
      case RecKind::SyscallCopy: return "copy";
      case RecKind::SyscallDecouple: return "decouple";
      case RecKind::SinkAligned: return "sink-aligned";
      case RecKind::SinkDiff: return "sink-diff";
      case RecKind::SinkVanish: return "sink-vanish";
      case RecKind::BarrierPair: return "barrier-pair";
      case RecKind::BarrierSkip: return "barrier-skip";
      case RecKind::CounterPush: return "cnt-push";
      case RecKind::CounterPop: return "cnt-pop";
      case RecKind::Block: return "block";
      case RecKind::Unblock: return "unblock";
      case RecKind::LockShare: return "lock-share";
      case RecKind::LockDiverge: return "lock-diverge";
      case RecKind::Mutation: return "mutation";
      case RecKind::Output: return "output";
      case RecKind::ThreadStart: return "thread-start";
      case RecKind::ThreadDone: return "thread-done";
      case RecKind::Trap: return "trap";
      case RecKind::WatchdogExpire: return "watchdog-expire";
    }
    panic("unknown RecKind");
}

bool
recKindDivergent(RecKind kind)
{
    switch (kind) {
      case RecKind::SyscallDecouple:
      case RecKind::SinkDiff:
      case RecKind::SinkVanish:
      case RecKind::BarrierSkip:
      case RecKind::LockDiverge:
      case RecKind::Trap:
      case RecKind::WatchdogExpire:
        return true;
      default:
        return false;
    }
}

void
FlightRecorder::record(int side, RecEvent evt)
{
    Ring &ring = rings_[side & 1];
    std::uint64_t seq =
        ring.head.fetch_add(1, std::memory_order_relaxed);
    evt.tsUs = nowUs();
    evt.seq = seq;
    evt.side = static_cast<std::uint8_t>(side & 1);
    ring.slots.get()[seq % cap_] = evt;
}

std::vector<RecEvent>
FlightRecorder::snapshot(int side) const
{
    const Ring &ring = rings_[side & 1];
    std::uint64_t t = ring.head.load(std::memory_order_acquire);
    std::uint64_t kept = t < cap_ ? t : cap_;
    std::uint64_t first = t - kept;
    std::vector<RecEvent> out;
    out.reserve(kept);
    for (std::uint64_t i = 0; i < kept; ++i)
        out.push_back(ring.slots.get()[(first + i) % cap_]);
    return out;
}

} // namespace ldx::obs
