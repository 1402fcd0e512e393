#include "ldx/controller.h"

#include <cstdio>
#include <cstdlib>

#include <algorithm>
#include <limits>

#include "os/sysno.h"
#include "support/diag.h"
#include "vm/machine.h"

namespace ldx::core {

namespace {
bool
traceEnabled()
{
    static bool on = std::getenv("LDX_TRACE") != nullptr;
    return on;
}
} // namespace

#define LDX_TRACE_EVT(...)                                              \
    do {                                                                \
        if (traceEnabled())                                             \
            std::fprintf(stderr, __VA_ARGS__);                          \
    } while (0)


Progress
compareProgress(const std::vector<std::int64_t> &peer_stack,
                std::int64_t peer_cnt,
                const std::vector<std::int64_t> &my_stack,
                std::int64_t my_cnt)
{
    std::size_t an = my_stack.size() + 1;
    std::size_t bn = peer_stack.size() + 1;
    auto a = [&](std::size_t i) {
        return i < my_stack.size() ? my_stack[i] : my_cnt;
    };
    auto b = [&](std::size_t i) {
        return i < peer_stack.size() ? peer_stack[i] : peer_cnt;
    };
    std::size_t n = std::min(an, bn);
    for (std::size_t i = 0; i < n; ++i) {
        if (b(i) != a(i))
            return b(i) > a(i) ? Progress::Passed : Progress::Behind;
    }
    if (an == bn)
        return Progress::Same;
    return Progress::Unknown;
}

Controller::Controller(SyncChannel &chan, ControllerOptions opts)
    : chan_(chan), opts_(std::move(opts)),
      rec_(chan.scope().recorder())
{
    if (!opts_.isSinkChannel)
        opts_.isSinkChannel = [](const std::string &) { return true; };
}

void
Controller::recordEvt(obs::RecKind kind, int tid, std::int64_t cnt,
                      int site, std::int64_t sysNo, std::uint64_t arg)
{
    if (!rec_)
        return;
    obs::RecEvent e;
    e.kind = kind;
    e.tid = static_cast<std::uint16_t>(tid);
    e.cnt = cnt;
    e.site = site;
    e.sysNo = sysNo;
    e.arg = arg;
    rec_->record(self(), e);
}

void
Controller::recordBlock(WaitState &w, int tid, std::int64_t sysNo)
{
    if (w.blockRecorded)
        return;
    w.blockRecorded = true;
    w.gateSysNo = sysNo;
    recordEvt(obs::RecKind::Block, tid, w.gateCnt, w.gateSite, sysNo,
              static_cast<std::uint64_t>(w.gate));
}

void
Controller::bumpProgress()
{
    // The drivers bump per-instruction progress; controller completions
    // count as progress too so pure syscall sequences keep watchdogs
    // fed.
    chan_.progress[self()].fetch_add(1, std::memory_order_relaxed);
}

bool
Controller::waitExpired(int tid, std::uint64_t budget)
{
    WaitState &w = waits_[tid];
    // Sticky: the budget cannot re-arm between the fast-path expiry
    // and the locked re-evaluation that acts on it.
    if (w.expired)
        return true;
    chan_.watchdogPolls->inc();
    if (chan_.abort.load(std::memory_order_acquire))
        return true;
    std::uint64_t p =
        chan_.progress[peer()].load(std::memory_order_relaxed);
    if (p != w.peerProgressSnapshot) {
        w.peerProgressSnapshot = p;
        w.polls = 0;
        return false;
    }
    if (++w.polls > budget) {
        w.expired = true;
        chan_.watchdogExpired->inc();
        recordEvt(obs::RecKind::WatchdogExpire, tid, w.gateCnt,
                  w.gateSite, w.gateSysNo, w.polls);
        return true;
    }
    return false;
}

void
Controller::clearWait(int tid)
{
    auto it = waits_.find(tid);
    if (it == waits_.end())
        return;
    WaitState &w = it->second;
    chan_.waitPolls->observe(static_cast<double>(w.polls));
    // The Unblock closing a recorded Block; a watchdog-expired wait
    // already ended with a WatchdogExpire event instead.
    if (w.blockRecorded && !w.expired)
        recordEvt(obs::RecKind::Unblock, tid, w.gateCnt, w.gateSite,
                  w.gateSysNo, w.polls);
    if (opts_.stalls && w.blockRecorded) {
        obs::SiteStall &s = (*opts_.stalls)[w.gateSite];
        ++s.episodes;
        s.polls += w.polls;
        if (w.expired)
            ++s.expirations;
    }
    waits_.erase(it);
}

ThreadChannel &
Controller::channel(int tid)
{
    auto it = channelCache_.find(tid);
    if (it != channelCache_.end())
        return *it->second;
    ThreadChannel &ch = chan_.thread(tid);
    channelCache_[tid] = &ch;
    return ch;
}

void
Controller::invalidateGate(int tid)
{
    auto it = waits_.find(tid);
    if (it != waits_.end())
        it->second.gate = WaitState::Gate::None;
}

bool
Controller::fastPollBlocked(PollSite where, int tid, std::int64_t cnt,
                            int site, std::int64_t iter)
{
    auto it = waits_.find(tid);
    if (it == waits_.end())
        return false;
    WaitState &w = it->second;
    if (w.gate == WaitState::Gate::None || w.gateCnt != cnt ||
        w.gateSite != site || w.gateIter != iter || w.expired)
        return false;
    switch (where) {
      case PollSite::Syscall:
        if (w.gate != WaitState::Gate::Input &&
            w.gate != WaitState::Gate::SinkWait &&
            w.gate != WaitState::Gate::SinkBehind)
            return false;
        break;
      case PollSite::Barrier:
        if (w.gate != WaitState::Gate::Barrier)
            return false;
        break;
      case PollSite::Lock:
        if (w.gate != WaitState::Gate::Lock)
            return false;
        break;
    }

    // Anything the gate's versions cannot prove unchanged forces the
    // locked evaluation: engine abort, a finished peer side, a
    // structural channel mutation, or a new taint.
    if (chan_.abort.load(std::memory_order_acquire) ||
        chan_.sideFinished(peerOf(opts_.side)))
        return false;
    ThreadChannel &ch = channel(tid);
    if (ch.stateVersion.load(std::memory_order_acquire) != w.gateState ||
        chan_.taints.version() != w.gateTaint)
        return false;

    if (w.gate == WaitState::Gate::Lock) {
        if (chan_.lockVersion.load(std::memory_order_acquire) !=
            w.gateLockVer)
            return false;
        // Same poll budget as the locked path; on overflow the locked
        // path performs the taint-and-decouple.
        std::uint64_t &polls = lockPolls_[{tid, w.gateLockId}];
        if (++polls > opts_.lockPollTimeout)
            return false;
        chan_.blockedPolls->inc();
        return true;
    }

    // Only the peer's position can have moved. Re-evaluate the wait
    // predicate against the seqlock snapshot; take the mutex only if
    // the wait might actually resolve.
    std::uint64_t seq = ch.posCell[peer()].seq();
    if (seq != w.gatePeerSeq) {
        bool truncated = false;
        seq = ch.posCell[peer()].read(peerPosScratch_,
                                      peerStackScratch_, truncated);
        if (truncated)
            return false;
        const Position &ppos = peerPosScratch_;
        switch (w.gate) {
          case WaitState::Gate::Input:
          case WaitState::Gate::SinkWait: {
            Progress pr = compareProgress(peerStackScratch_, ppos.cnt,
                                          w.gateMyStack, cnt);
            bool passed =
                pr == Progress::Passed ||
                (pr == Progress::Same &&
                 (ppos.site != site || ppos.kind == PosKind::Barrier));
            if (passed)
                return false;
            break;
          }
          case WaitState::Gate::SinkBehind: {
            Progress pr =
                compareProgress(peerStackScratch_, w.gateTheirsCnt,
                                w.gateMyStack, cnt);
            if (pr == Progress::Same || pr == Progress::Passed)
                return false;
            break;
          }
          case WaitState::Gate::Barrier: {
            Progress pr = compareProgress(peerStackScratch_, ppos.cnt,
                                          w.gateMyStack, cnt);
            if (pr == Progress::Passed)
                return false;
            if (ppos.kind == PosKind::Barrier && ppos.site == site &&
                ppos.iter >= iter)
                return false;
            if (ppos.kind == PosKind::Barrier &&
                pr == Progress::Same && ppos.site != site)
                return false;
            break;
          }
          default:
            return false;
        }
        w.gatePeerSeq = seq;
    }

    // Still blocked: run the same watchdog the locked path would.
    // SinkBehind waits carry no watchdog (the peer's parked sink can
    // only resolve through peer movement), matching the locked path.
    if (w.gate != WaitState::Gate::SinkBehind &&
        waitExpired(tid, opts_.stallTimeout))
        return false;
    chan_.blockedPolls->inc();
    return true;
}

std::uint64_t
Controller::idleRoundsLeft(bool fresh, bool polled)
{
    idleNext_.clear();
    for (const auto &[tid, w] : waits_) {
        IdleWait m;
        m.tid = tid;
        m.gate = w.gate;
        m.expired = w.expired;
        m.blockRecorded = w.blockRecorded;
        m.gateSysNo = w.gateSysNo;
        m.gateCnt = w.gateCnt;
        m.gateSite = w.gateSite;
        m.gateIter = w.gateIter;
        m.gateTheirsCnt = w.gateTheirsCnt;
        m.gateLockId = w.gateLockId;
        m.gateState = w.gateState;
        m.gateTaint = w.gateTaint;
        m.gateLockVer = w.gateLockVer;
        m.gatePeerSeq = w.gatePeerSeq;
        m.peerProgress = w.peerProgressSnapshot;
        m.ownSeq = channel(tid).posCell[self()].seq();
        m.polls = w.polls;
        if (w.gate == WaitState::Gate::Lock) {
            auto it = lockPolls_.find({tid, w.gateLockId});
            m.lockPolls = it == lockPolls_.end() ? 0 : it->second;
        }
        idleNext_.push_back(m);
    }
    idleMark_.swap(idleNext_); // idleNext_ now holds the previous mark
    if (fresh || idleMark_.size() != idleNext_.size() ||
        chan_.abort.load(std::memory_order_acquire))
        return 0;

    std::uint64_t left = std::numeric_limits<std::uint64_t>::max();
    for (std::size_t i = 0; i < idleMark_.size(); ++i) {
        const IdleWait &now = idleMark_[i];
        IdleWait want = idleNext_[i];
        if (now.expired)
            return 0;
        // A polled side re-polled every gated wait once, through the
        // same budget the next round would charge.
        if (polled) {
            switch (want.gate) {
              case WaitState::Gate::Input:
              case WaitState::Gate::SinkWait:
              case WaitState::Gate::Barrier:
                ++want.polls;
                if (now.polls > opts_.stallTimeout)
                    return 0;
                left = std::min(left, opts_.stallTimeout - now.polls + 1);
                break;
              case WaitState::Gate::Lock:
                ++want.lockPolls;
                if (now.lockPolls > opts_.lockPollTimeout)
                    return 0;
                left = std::min(left,
                                opts_.lockPollTimeout - now.lockPolls + 1);
                break;
              default:
                break;
            }
        }
        if (!(want == now))
            return 0;
    }
    return left;
}

void
Controller::skipIdleRounds(std::uint64_t k, bool polled)
{
    if (!polled || k == 0)
        return;
    std::uint64_t watched = 0;
    std::uint64_t blocked = 0;
    for (auto &[tid, w] : waits_) {
        switch (w.gate) {
          case WaitState::Gate::None:
            break;
          case WaitState::Gate::SinkBehind:
            ++blocked;
            break;
          case WaitState::Gate::Lock:
            lockPolls_[{tid, w.gateLockId}] += k;
            ++blocked;
            break;
          default:
            w.polls += k;
            ++watched;
            ++blocked;
            break;
        }
    }
    chan_.watchdogPolls->inc(k * watched);
    chan_.blockedPolls->inc(k * blocked);
}

void
Controller::trace(TraceEvent::Kind kind, const vm::SyscallRequest &req)
{
    if (!chan_.wantsEvents())
        return;
    TraceEvent evt;
    evt.kind = kind;
    evt.side = opts_.side;
    evt.tid = req.tid;
    evt.sysNo = req.sysNo;
    evt.cnt = req.cnt;
    evt.site = req.site;
    chan_.recordEvent(evt);
}

std::uint64_t
Controller::argSignature(const vm::SyscallRequest &req,
                         vm::Machine &vm) const
{
    const os::SysDesc &d = os::sysDesc(req.sysNo);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    };
    auto mix_bytes = [&h](const std::string &s) {
        for (char c : s) {
            h ^= static_cast<unsigned char>(c);
            h *= 0x100000001b3ULL;
        }
    };
    mix(static_cast<std::uint64_t>(req.sysNo));
    for (std::size_t i = 0; i < req.args.size(); ++i) {
        int idx = static_cast<int>(i);
        if (idx == d.outBufArg)
            continue; // buffer addresses may differ benignly
        try {
            if (idx == d.pathArg || idx == d.pathArg2) {
                mix_bytes(vm.memory().readCString(
                    static_cast<std::uint64_t>(req.args[i])));
                continue;
            }
            if (idx == d.inBufArg) {
                std::int64_t len = d.lenArg >= 0 &&
                        d.lenArg < static_cast<int>(req.args.size())
                    ? std::max<std::int64_t>(
                          0, req.args[static_cast<std::size_t>(d.lenArg)])
                    : 0;
                mix_bytes(vm.memory().readBytes(
                    static_cast<std::uint64_t>(req.args[i]),
                    static_cast<std::uint64_t>(len)));
                continue;
            }
        } catch (const vm::VmTrap &) {
            mix(0xfa17);
            continue;
        }
        mix(static_cast<std::uint64_t>(req.args[i]));
    }
    return h;
}

bool
Controller::isSink(const vm::SyscallRequest &req, vm::Machine &vm,
                   std::string *payload_out,
                   std::string *channel_out) const
{
    if (os::sysDesc(req.sysNo).klass != os::SysClass::Output)
        return false;
    std::string payload;
    try {
        payload = vm.kernel().sinkPayload(req.sysNo, req.args,
                                          vm.memory());
    } catch (const vm::VmTrap &) {
        payload = "fault|";
    }
    std::string channel = payload.substr(0, payload.find('|'));
    if (payload_out)
        *payload_out = payload;
    if (channel_out)
        *channel_out = channel;
    return opts_.isSinkChannel(channel);
}

vm::PortReply
Controller::onSyscall(const vm::SyscallRequest &req, vm::Machine &vm,
                      os::Outcome &out)
{
    const os::SysDesc &desc = os::sysDesc(req.sysNo);
    switch (desc.klass) {
      case os::SysClass::Local: {
        ThreadChannel &ch = channel(req.tid);
        std::lock_guard<CountingMutex> lock(ch.mutex);
        ch.publishPos(self(), {PosKind::Local, req.cnt, req.site, 0});
        bumpProgress();
        return vm::PortReply::Done;
      }
      case os::SysClass::Sync:
        return handleLock(req, vm);
      case os::SysClass::Output:
      case os::SysClass::Input: {
        // Snapshot trigger: fires before the fast-poll gate and
        // before any world or coupling state is touched, so a paused
        // machine holds the exact pre-touch prefix state. Each side
        // fires once; after the resume the sticky hit flag lets the
        // re-issued syscall fall through to the normal path.
        if (opts_.trigger && !opts_.trigger->fired(self())) {
            std::string key;
            try {
                key = vm.kernel().resourceKey(req.sysNo, req.args,
                                              vm.memory());
            } catch (const vm::VmTrap &) {
                key.clear();
            }
            if (!key.empty() && key == opts_.trigger->key) {
                opts_.trigger->prefixInstrs[self()].store(
                    vm.stats().instructions,
                    std::memory_order_relaxed);
                opts_.trigger->hit[self()].store(
                    true, std::memory_order_release);
                if (opts_.trigger->pauseOnHit) {
                    vm.requestPause();
                    return vm::PortReply::Blocked;
                }
            }
        }
        // Re-poll of a recorded shared/sink wait: answer from the
        // lock-free gate (this also skips the per-poll payload /
        // argument-signature recomputation the locked path redoes).
        if (fastPollBlocked(PollSite::Syscall, req.tid, req.cnt,
                            req.site, 0))
            return vm::PortReply::Blocked;
        if (desc.klass == os::SysClass::Output) {
            std::string payload;
            if (isSink(req, vm, &payload, nullptr))
                return handleSink(req, vm, out, payload);
        }
        if (opts_.side == Side::Master)
            return handleMasterShared(req, vm, out);
        return handleSlaveShared(req, vm, out);
      }
    }
    panic("unhandled syscall class");
}

vm::PortReply
Controller::handleMasterShared(const vm::SyscallRequest &req,
                               vm::Machine &vm, os::Outcome &out)
{
    std::string key;
    if (chan_.taints.size() != 0) {
        try {
            key = vm.kernel().resourceKey(req.sysNo, req.args,
                                          vm.memory());
        } catch (const vm::VmTrap &) {
            key.clear();
        }
    }
    bool tainted = !key.empty() && chan_.taints.isTainted(key);

    out = vm.kernel().execute(req.sysNo, req.args, vm.memory());

    // Computed outside the lock; needed for the queue entry and as
    // the recorded event's hashed-argument digest.
    std::uint64_t sig = argSignature(req, vm);

    invalidateGate(req.tid);
    ThreadChannel &ch = channel(req.tid);
    {
        std::lock_guard<CountingMutex> lock(ch.mutex);
        ch.publishPos(self(), {PosKind::Input, req.cnt, req.site, 0});
        if (!tainted && !chan_.sideFinished(Side::Slave)) {
            if (ch.queue.size() >= SyncChannel::kQueueCap)
                ch.queue.pop_front();
            QueueEntry entry;
            entry.cnt = req.cnt;
            entry.site = req.site;
            entry.sysNo = req.sysNo;
            entry.argSig = sig;
            entry.out = out;
            ch.queue.push_back(std::move(entry));
            ch.bumpVersion();
        }
    }
    LDX_TRACE_EVT("[%c] input sys=%lld cnt=%lld site=%d -> exec+enqueue\n",
                  opts_.side == Side::Master ? 'M' : 'S',
                  (long long)req.sysNo, (long long)req.cnt, req.site);
    chan_.executes->inc();
    trace(TraceEvent::Kind::Execute, req);
    recordEvt(obs::RecKind::SyscallExecute, req.tid, req.cnt, req.site,
              req.sysNo, sig);
    bumpProgress();
    return vm::PortReply::Done;
}

vm::PortReply
Controller::handleSlaveShared(const vm::SyscallRequest &req,
                              vm::Machine &vm, os::Outcome &out)
{
    auto resource_key = [&]() -> std::string {
        try {
            return vm.kernel().resourceKey(req.sysNo, req.args,
                                           vm.memory());
        } catch (const vm::VmTrap &) {
            return "";
        }
    };
    // Sampled before the membership check: a taint that lands after
    // this point bumps the version past the gate's snapshot, so the
    // next poll re-runs the locked evaluation with fresh taint state.
    std::uint64_t taint_ver = chan_.taints.version();
    std::string key;
    if (chan_.taints.size() != 0)
        key = resource_key();
    bool tainted = !key.empty() && chan_.taints.isTainted(key);

    invalidateGate(req.tid);
    ThreadChannel &ch = channel(req.tid);
    std::uint64_t sig = argSignature(req, vm);
    // Any misaligned operation taints its resource (§7), so later
    // syscalls on it never couple diverged state.
    auto decouple = [&]() -> vm::PortReply {
        if (key.empty())
            key = resource_key();
        if (!key.empty())
            chan_.taints.taint(key);
        out = vm.kernel().execute(req.sysNo, req.args, vm.memory());
        chan_.syscallDiffs->inc();
        chan_.slaveSyscalls->inc();
        chan_.decouples->inc();
        trace(TraceEvent::Kind::Decouple, req);
        clearWait(req.tid);
        recordEvt(obs::RecKind::SyscallDecouple, req.tid, req.cnt,
                  req.site, req.sysNo, sig);
        bumpProgress();
        return vm::PortReply::Done;
    };
    os::Outcome copied;
    bool have_copy = false;
    bool mismatch = false;
    {
        std::lock_guard<CountingMutex> lock(ch.mutex);
        ch.publishPos(self(), {PosKind::Input, req.cnt, req.site, 0});
        if (!tainted) {
            for (QueueEntry &e : ch.queue) {
                if (e.consumed || e.cnt != req.cnt || e.site != req.site)
                    continue;
                if (e.argSig == sig) {
                    e.consumed = true;
                    copied = e.out;
                    have_copy = true;
                } else {
                    mismatch = true;
                }
                break;
            }
        }
        if (!have_copy && !mismatch && !tainted) {
            // No alignment yet: decide whether one can still appear.
            // Counter comparisons are hierarchical (§6): inside an
            // indirect/recursive call the counter restarts, so the
            // peer's progress is compared over the whole stack.
            bool peer_gone = chan_.sideFinished(Side::Master) ||
                             ch.threadDone[peer()];
            const Position &mpos = ch.pos[peer()];
            Progress pr = compareProgress(
                ch.cntStack[peer()], mpos.cnt,
                ch.cntStack[self()], req.cnt);
            bool passed =
                pr == Progress::Passed ||
                (pr == Progress::Same &&
                 (mpos.site != req.site ||
                  mpos.kind == PosKind::Barrier));
            if (!peer_gone && !passed &&
                !waitExpired(req.tid, opts_.stallTimeout)) {
                WaitState &w = waits_[req.tid];
                w.gate = WaitState::Gate::Input;
                w.gateCnt = req.cnt;
                w.gateSite = req.site;
                w.gateIter = 0;
                w.gateState =
                    ch.stateVersion.load(std::memory_order_relaxed);
                w.gateTaint = taint_ver;
                w.gatePeerSeq = ch.posCell[peer()].seq();
                w.gateMyStack = ch.cntStack[self()];
                recordBlock(w, req.tid, req.sysNo);
                chan_.blockedPolls->inc();
                return vm::PortReply::Blocked;
            }
        }
    }

    if (have_copy) {
        LDX_TRACE_EVT("[S] input sys=%lld cnt=%lld site=%d -> copy\n",
                      (long long)req.sysNo, (long long)req.cnt, req.site);
        bool ok = vm.kernel().replay(req.sysNo, req.args, copied,
                                     vm.memory());
        if (!ok) {
            if (key.empty())
                key = resource_key();
            if (!key.empty())
                chan_.taints.taint(key);
            return decouple();
        }
        out = copied;
        chan_.alignedSyscalls->inc();
        chan_.slaveSyscalls->inc();
        chan_.copies->inc();
        trace(TraceEvent::Kind::Copy, req);
        clearWait(req.tid);
        recordEvt(obs::RecKind::SyscallCopy, req.tid, req.cnt,
                  req.site, req.sysNo, sig);
        bumpProgress();
        return vm::PortReply::Done;
    }

    // Path or value divergence: taint and run independently.
    LDX_TRACE_EVT("[S] input sys=%lld cnt=%lld site=%d -> decouple"
                  " (mismatch=%d)\n",
                  (long long)req.sysNo, (long long)req.cnt, req.site,
                  (int)mismatch);
    if (mismatch) {
        if (key.empty())
            key = resource_key();
        if (!key.empty())
            chan_.taints.taint(key);
    }
    return decouple();
}

vm::PortReply
Controller::handleSink(const vm::SyscallRequest &req, vm::Machine &vm,
                       os::Outcome &out, const std::string &payload)
{
    invalidateGate(req.tid);
    ThreadChannel &ch = channel(req.tid);
    bool proceed = false;
    bool reported_divergence = false;
    bool vanished = false;
    {
        std::lock_guard<CountingMutex> lock(ch.mutex);
        ch.publishPos(self(), {PosKind::Sink, req.cnt, req.site, 0});
        SinkSlot &mine = ch.sink[self()];
        SinkSlot &theirs = ch.sink[peer()];

        if (!mine.valid || mine.cnt != req.cnt || mine.site != req.site) {
            mine.valid = true;
            mine.resolved = false;
            mine.cnt = req.cnt;
            mine.site = req.site;
            mine.sysNo = req.sysNo;
            mine.payload = payload;
            mine.loc = req.loc;
            ch.bumpVersion();
        }

        if (mine.resolved) {
            // Peer already compared this sink pair.
            reported_divergence = mine.divergent;
            mine.valid = false;
            mine.resolved = false;
            mine.divergent = false;
            ch.bumpVersion();
            proceed = true;
        } else if (theirs.valid && !theirs.resolved &&
                   compareProgress(ch.cntStack[peer()], theirs.cnt,
                                   ch.cntStack[self()], req.cnt) ==
                       Progress::Same) {
            // Aligned level: Algorithm 2 cases 2-4.
            Finding f;
            f.observer = opts_.side;
            f.tid = req.tid;
            f.site = req.site;
            f.cnt = req.cnt;
            f.sysNo = req.sysNo;
            f.loc = req.loc;
            bool report = true;
            if (theirs.site != req.site) {
                f.kind = CauseKind::SinkSiteMismatch;
            } else if (theirs.payload != payload) {
                f.kind = CauseKind::SinkValueDiff;
            } else {
                report = false;
                chan_.alignedSyscalls->inc();
                chan_.sinkAligned->inc();
            }
            if (report) {
                if (opts_.side == Side::Master) {
                    f.masterValue = payload;
                    f.slaveValue = theirs.payload;
                } else {
                    f.masterValue = theirs.payload;
                    f.slaveValue = payload;
                }
                chan_.addFinding(std::move(f));
                chan_.syscallDiffs->inc();
                chan_.sinkDiffs->inc();
                reported_divergence = true;
            }
            theirs.resolved = true;
            theirs.divergent = report;
            mine.valid = false;
            ch.bumpVersion();
            proceed = true;
        } else if (theirs.valid && !theirs.resolved &&
                   compareProgress(ch.cntStack[peer()], theirs.cnt,
                                   ch.cntStack[self()], req.cnt) ==
                       Progress::Passed) {
            // My sink vanished in the peer (case 1).
            Finding f;
            f.kind = CauseKind::SinkVanished;
            f.observer = opts_.side;
            f.tid = req.tid;
            f.site = req.site;
            f.cnt = req.cnt;
            f.sysNo = req.sysNo;
            f.loc = req.loc;
            (opts_.side == Side::Master ? f.masterValue : f.slaveValue) =
                payload;
            chan_.addFinding(std::move(f));
            chan_.syscallDiffs->inc();
            chan_.sinkVanished->inc();
            reported_divergence = true;
            vanished = true;
            mine.valid = false;
            ch.bumpVersion();
            proceed = true;
        } else if (!theirs.valid || theirs.resolved) {
            bool peer_gone = chan_.sideFinished(peerOf(opts_.side)) ||
                             ch.threadDone[peer()];
            const Position &ppos = ch.pos[peer()];
            Progress pr = compareProgress(
                ch.cntStack[peer()], ppos.cnt,
                ch.cntStack[self()], req.cnt);
            bool passed =
                pr == Progress::Passed ||
                (pr == Progress::Same &&
                 (ppos.site != req.site ||
                  ppos.kind == PosKind::Barrier));
            if (peer_gone || passed ||
                waitExpired(req.tid, opts_.stallTimeout)) {
                // No counterpart sink ever parked: the only
                // deterministic classification is "vanished".
                // Guessing "site mismatch" from the peer's transient
                // position would make the finding kind depend on
                // driver timing — the same divergent sink would be
                // labelled differently under the lockstep and
                // threaded drivers. A true site mismatch is only
                // reported from the rendezvous comparison above,
                // where both sinks are actually parked.
                Finding f;
                f.kind = CauseKind::SinkVanished;
                f.observer = opts_.side;
                f.tid = req.tid;
                f.site = req.site;
                f.cnt = req.cnt;
                f.sysNo = req.sysNo;
                f.loc = req.loc;
                (opts_.side == Side::Master ? f.masterValue
                                            : f.slaveValue) = payload;
                vanished = true;
                chan_.addFinding(std::move(f));
                chan_.syscallDiffs->inc();
                chan_.sinkVanished->inc();
                reported_divergence = true;
                mine.valid = false;
                ch.bumpVersion();
                proceed = true;
            }
        }

        if (!proceed) {
            // Either the peer has no unresolved sink yet (SinkWait,
            // watchdog-guarded above) or its parked sink is behind /
            // incomparable (SinkBehind, resolvable only by peer
            // movement). Record the gate for lock-free re-polls.
            WaitState &w = waits_[req.tid];
            w.gate = (!theirs.valid || theirs.resolved)
                         ? WaitState::Gate::SinkWait
                         : WaitState::Gate::SinkBehind;
            w.gateCnt = req.cnt;
            w.gateSite = req.site;
            w.gateIter = 0;
            w.gateTheirsCnt = theirs.cnt;
            w.gateState =
                ch.stateVersion.load(std::memory_order_relaxed);
            w.gateTaint = chan_.taints.version();
            w.gatePeerSeq = ch.posCell[peer()].seq();
            w.gateMyStack = ch.cntStack[self()];
            recordBlock(w, req.tid, req.sysNo);
        }
    }

    if (!proceed) {
        chan_.blockedPolls->inc();
        return vm::PortReply::Blocked;
    }

    trace(reported_divergence ? TraceEvent::Kind::SinkDiff
                              : TraceEvent::Kind::SinkAligned,
          req);
    recordEvt(vanished ? obs::RecKind::SinkVanish
                       : reported_divergence ? obs::RecKind::SinkDiff
                                             : obs::RecKind::SinkAligned,
              req.tid, req.cnt, req.site, req.sysNo,
              obs::fnv1a(payload));

    // A misaligned or value-divergent sink leaves the two worlds'
    // copies of the resource different: taint it (§7).
    if (reported_divergence) {
        try {
            std::string key = vm.kernel().resourceKey(
                req.sysNo, req.args, vm.memory());
            if (!key.empty())
                chan_.taints.taint(key);
        } catch (const vm::VmTrap &) {
        }
    }
    LDX_TRACE_EVT("[%c] sink sys=%lld cnt=%lld site=%d -> proceed\n",
                  opts_.side == Side::Master ? 'M' : 'S',
                  (long long)req.sysNo, (long long)req.cnt, req.site);

    // Perform the syscall: real output in the master, suppressed in
    // the slave (its kernel journals outputs as suppressed).
    out = vm.kernel().execute(req.sysNo, req.args, vm.memory());
    if (opts_.side == Side::Slave)
        chan_.slaveSyscalls->inc();
    clearWait(req.tid);
    bumpProgress();
    return vm::PortReply::Done;
}

vm::PortReply
Controller::handleLock(const vm::SyscallRequest &req, vm::Machine &vm)
{
    (void)vm;
    // Re-poll of a recorded lock-follow wait: the gate path skips
    // the position republish, the key construction, and both locks.
    if (fastPollBlocked(PollSite::Lock, req.tid, req.cnt, req.site, 0))
        return vm::PortReply::Blocked;

    invalidateGate(req.tid);
    ThreadChannel &ch = channel(req.tid);
    {
        std::lock_guard<CountingMutex> lock(ch.mutex);
        ch.publishPos(self(), {PosKind::Local, req.cnt, req.site, 0});
    }
    os::Sys sys = static_cast<os::Sys>(req.sysNo);
    if (!opts_.shareLockOrder || sys != os::Sys::MutexLock) {
        bumpProgress();
        return vm::PortReply::Done;
    }

    std::int64_t id = req.args.empty() ? 0 : req.args[0];
    std::uint64_t taint_ver = chan_.taints.version();
    std::string key = "mutex:" + std::to_string(id);
    if (chan_.taints.isTainted(key)) {
        bumpProgress();
        return vm::PortReply::Done;
    }

    std::lock_guard<std::mutex> lock(chan_.lockMutex);
    if (opts_.side == Side::Master) {
        // FIFO waiter semantics in the VM make approval order equal
        // acquisition order per mutex.
        chan_.lockOrder[id].push_back(req.tid);
        chan_.lockVersion.fetch_add(1, std::memory_order_release);
        bumpProgress();
        return vm::PortReply::Done;
    }

    std::size_t idx = chan_.slaveLockIdx[id];
    auto &order = chan_.lockOrder[id];
    if (order.size() > idx) {
        if (order[idx] == req.tid) {
            chan_.slaveLockIdx[id] = idx + 1;
            chan_.lockVersion.fetch_add(1, std::memory_order_release);
            lockPolls_.erase({req.tid, id});
            chan_.lockShares->inc();
            clearWait(req.tid);
            recordEvt(obs::RecKind::LockShare, req.tid, req.cnt,
                      req.site, req.sysNo,
                      static_cast<std::uint64_t>(id));
            bumpProgress();
            return vm::PortReply::Done;
        }
        // Order diverged: taint the lock, run decoupled from now on.
        chan_.taints.taint(key);
        chan_.slaveLockIdx[id] = idx + 1;
        chan_.lockVersion.fetch_add(1, std::memory_order_release);
        chan_.syscallDiffs->inc();
        chan_.lockDiverged->inc();
        clearWait(req.tid);
        recordEvt(obs::RecKind::LockDiverge, req.tid, req.cnt,
                  req.site, req.sysNo, static_cast<std::uint64_t>(id));
        bumpProgress();
        return vm::PortReply::Done;
    }
    if (chan_.sideFinished(Side::Master)) {
        chan_.taints.taint(key);
        bumpProgress();
        return vm::PortReply::Done;
    }
    std::uint64_t &polls = lockPolls_[{req.tid, id}];
    if (++polls > opts_.lockPollTimeout) {
        chan_.taints.taint(key);
        lockPolls_.erase({req.tid, id});
        chan_.syscallDiffs->inc();
        chan_.lockDiverged->inc();
        clearWait(req.tid);
        recordEvt(obs::RecKind::LockDiverge, req.tid, req.cnt,
                  req.site, req.sysNo, static_cast<std::uint64_t>(id));
        bumpProgress();
        return vm::PortReply::Done;
    }
    WaitState &w = waits_[req.tid];
    w.gate = WaitState::Gate::Lock;
    w.gateCnt = req.cnt;
    w.gateSite = req.site;
    w.gateIter = 0;
    w.gateLockId = id;
    w.gateState = ch.stateVersion.load(std::memory_order_acquire);
    w.gateTaint = taint_ver;
    w.gateLockVer = chan_.lockVersion.load(std::memory_order_relaxed);
    recordBlock(w, req.tid, req.sysNo);
    chan_.blockedPolls->inc();
    return vm::PortReply::Blocked;
}

vm::PortReply
Controller::onBarrier(int tid, std::int64_t site, std::int64_t iter,
                      std::int64_t cnt, std::int64_t reset_delta,
                      vm::Machine &vm)
{
    (void)vm;
    if (fastPollBlocked(PollSite::Barrier, tid, cnt,
                        static_cast<int>(site), iter))
        return vm::PortReply::Blocked;

    invalidateGate(tid);
    ThreadChannel &ch = channel(tid);
    std::lock_guard<CountingMutex> lock(ch.mutex);
    ch.publishPos(self(), {PosKind::Barrier, cnt,
                           static_cast<int>(site), iter});

    auto pass = [&]() -> vm::PortReply {
        // Publish the post-reset position so the peer never mistakes
        // our stale latch-level counter for "moved past".
        LDX_TRACE_EVT("[%c] barrier site=%lld iter=%lld cnt=%lld pass\n",
                      opts_.side == Side::Master ? 'M' : 'S',
                      (long long)site, (long long)iter, (long long)cnt);
        ch.publishPos(self(),
                      {PosKind::Running, cnt + reset_delta, -1, 0});
        clearWait(tid);
        bumpProgress();
        return vm::PortReply::Done;
    };

    BarrierPair &bp = ch.barrier;
    if (bp.valid && bp.site == site && bp.iter == iter &&
        !bp.consumed[self()]) {
        bp.consumed[self()] = true;
        if (bp.consumed[0] && bp.consumed[1])
            bp.valid = false;
        ch.bumpVersion();
        return pass();
    }

    const Position &ppos = ch.pos[peer()];
    bool peer_gone = chan_.sideFinished(peerOf(opts_.side)) ||
                     ch.threadDone[peer()];
    if (peer_gone)
        return pass();

    if (ppos.kind == PosKind::Barrier && ppos.site == site &&
        ppos.iter == iter) {
        // Rendezvous: close the iteration window.
        ch.purgeQueue();
        bp.valid = true;
        bp.site = site;
        bp.iter = iter;
        bp.consumed[0] = false;
        bp.consumed[1] = false;
        bp.consumed[self()] = true;
        ch.bumpVersion();
        chan_.barrierPairings->inc();
        recordEvt(obs::RecKind::BarrierPair, tid, cnt,
                  static_cast<int>(site), -1,
                  static_cast<std::uint64_t>(iter));
        if (chan_.wantsEvents()) {
            TraceEvent evt;
            evt.kind = TraceEvent::Kind::BarrierPair;
            evt.side = opts_.side;
            evt.tid = tid;
            evt.cnt = cnt;
            evt.site = static_cast<int>(site);
            chan_.recordEvent(evt);
        }
        // The peer is about to pass too; publish its post-reset
        // position now. Otherwise its stale latch-level counter (the
        // highest value in the window) would make us believe it had
        // passed the low counter levels of the next iteration.
        ch.publishPos(peer(),
                      {PosKind::Running, cnt + reset_delta, -1, 0});
        return pass();
    }
    auto skip = [&]() -> vm::PortReply {
        chan_.barrierSkips->inc();
        recordEvt(obs::RecKind::BarrierSkip, tid, cnt,
                  static_cast<int>(site), -1,
                  static_cast<std::uint64_t>(iter));
        if (chan_.wantsEvents()) {
            TraceEvent evt;
            evt.kind = TraceEvent::Kind::BarrierSkip;
            evt.side = opts_.side;
            evt.tid = tid;
            evt.cnt = cnt;
            evt.site = static_cast<int>(site);
            chan_.recordEvent(evt);
        }
        return pass();
    };
    Progress pr = compareProgress(ch.cntStack[peer()], ppos.cnt,
                                  ch.cntStack[self()], cnt);
    if (pr == Progress::Passed)
        return skip(); // peer moved past the loop
    if (ppos.kind == PosKind::Barrier && ppos.site == site &&
        ppos.iter > iter)
        return skip(); // peer is iterations ahead of us
    // Divergence at the same level: only when the peer is *also*
    // parked at a different barrier. A peer at a same-level syscall is
    // still inside this iteration window (its own rules let it move
    // past us), so we must keep waiting for its arrival here.
    if (ppos.kind == PosKind::Barrier && pr == Progress::Same &&
        ppos.site != static_cast<int>(site))
        return skip();
    if (waitExpired(tid, opts_.stallTimeout))
        return skip();
    WaitState &w = waits_[tid];
    w.gate = WaitState::Gate::Barrier;
    w.gateCnt = cnt;
    w.gateSite = static_cast<int>(site);
    w.gateIter = iter;
    w.gateState = ch.stateVersion.load(std::memory_order_relaxed);
    w.gateTaint = chan_.taints.version();
    w.gatePeerSeq = ch.posCell[peer()].seq();
    w.gateMyStack = ch.cntStack[self()];
    recordBlock(w, tid, -1);
    chan_.blockedPolls->inc();
    return vm::PortReply::Blocked;
}

void
Controller::onCounterPush(int tid, std::int64_t saved, vm::Machine &vm)
{
    (void)vm;
    ThreadChannel &ch = channel(tid);
    std::size_t depth;
    {
        std::lock_guard<CountingMutex> lock(ch.mutex);
        ch.cntStack[self()].push_back(saved);
        depth = ch.cntStack[self()].size();
        ch.publishPos(self(), {PosKind::Running, 0, -1, 0});
    }
    recordEvt(obs::RecKind::CounterPush, tid, saved, -1, -1,
              static_cast<std::uint64_t>(depth));
}

void
Controller::onCounterPop(int tid, std::int64_t restored, vm::Machine &vm)
{
    (void)vm;
    ThreadChannel &ch = channel(tid);
    std::size_t depth;
    {
        std::lock_guard<CountingMutex> lock(ch.mutex);
        if (!ch.cntStack[self()].empty())
            ch.cntStack[self()].pop_back();
        depth = ch.cntStack[self()].size();
        ch.publishPos(self(), {PosKind::Running, restored, -1, 0});
    }
    recordEvt(obs::RecKind::CounterPop, tid, restored, -1, -1,
              static_cast<std::uint64_t>(depth));
}

void
Controller::onThreadDone(int tid, vm::Machine &vm)
{
    (void)vm;
    ThreadChannel &ch = channel(tid);
    std::lock_guard<CountingMutex> lock(ch.mutex);
    ch.threadDone[self()] = true;
    ch.bumpVersion();
}

void
Controller::onFinished(vm::Machine &vm)
{
    (void)vm;
    chan_.finishSide(opts_.side);
}

} // namespace ldx::core
