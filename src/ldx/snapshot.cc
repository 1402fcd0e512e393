#include "ldx/snapshot.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <thread>

#include "instrument/instrument.h"
#include "os/sysno.h"
#include "support/diag.h"

namespace ldx::core {

namespace {

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** CPU-relax hint for the spin stage of the stall backoff. */
inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#else
    std::this_thread::yield();
#endif
}

/** Publish one side's VM and kernel tallies into the registry. */
void
publishSideStats(obs::Registry &registry, const std::string &side,
                 const vm::MachineStats &ms, const os::KernelStats &ks)
{
    const std::string vm_prefix = "vm." + side + ".";
    registry.counter(vm_prefix + "instructions").inc(ms.instructions);
    registry.counter(vm_prefix + "syscalls").inc(ms.syscalls);
    registry.counter(vm_prefix + "barriers").inc(ms.barriers);
    registry.counter(vm_prefix + "mix.data").inc(ms.mixData);
    registry.counter(vm_prefix + "mix.alu").inc(ms.mixAlu);
    registry.counter(vm_prefix + "mix.mem").inc(ms.mixMem);
    registry.counter(vm_prefix + "mix.call").inc(ms.mixCall);
    registry.counter(vm_prefix + "mix.branch").inc(ms.mixBranch);
    registry.counter(vm_prefix + "mix.syscall").inc(ms.mixSyscall);
    registry.counter(vm_prefix + "mix.counter").inc(ms.mixCounter);
    registry.gauge(vm_prefix + "max_cnt")
        .set(static_cast<double>(ms.maxCnt));
    registry.gauge(vm_prefix + "avg_cnt").set(ms.avgCnt);

    const std::string os_prefix = "os." + side + ".";
    registry.counter(os_prefix + "executes").inc(ks.executes);
    registry.counter(os_prefix + "replays").inc(ks.replays);
    registry.counter(os_prefix + "vfs_ops").inc(ks.vfsOps);
    registry.counter(os_prefix + "sock_ops").inc(ks.sockOps);
    registry.counter(os_prefix + "console_ops").inc(ks.consoleOps);
    registry.counter(os_prefix + "nondet_ops").inc(ks.nondetOps);
}

} // namespace

DualRun::DualRun(const ir::Module &module, const os::WorldSpec &world,
                 EngineConfig cfg)
    : module_(module), world_(world), cfg_(std::move(cfg))
{
    if (!instrument::isInstrumented(module_))
        fatal("DualRun requires a counter-instrumented module");
    setupFresh();
}

DualRun::DualRun(const ir::Module &module, const os::WorldSpec &world,
                 EngineConfig cfg, const DualSnapshot &snap,
                 std::uint64_t chaos_drop_page)
    : module_(module), world_(world), cfg_(std::move(cfg))
{
    if (!instrument::isInstrumented(module_))
        fatal("DualRun requires a counter-instrumented module");
    setupFork(snap, chaos_drop_page);
}

DualRun::~DualRun() = default;

void
DualRun::setupFresh()
{
    registry_ = cfg_.registry ? cfg_.registry : &localRegistry_;
    if (cfg_.flightRecorder)
        recorder_.emplace(cfg_.recorderCapacity);
    scope_.emplace(*registry_, cfg_.traceSink,
                   recorder_ ? &*recorder_ : nullptr);
    if (cfg_.traceSink) {
        cfg_.traceSink->setLaneName(obs::kMasterLane, "master");
        cfg_.traceSink->setLaneName(obs::kSlaveLane, "slave");
        cfg_.traceSink->setLaneName(obs::kPipelineLane, "pipeline");
    }
    timer_.emplace(cfg_.traceSink);

    timer_->begin("mutate");
    Prng mutation_prng(cfg_.mutationSeed);
    mutated_ = mutateWorld(world_, cfg_.sources, cfg_.strategy,
                           mutation_prng);
    os::WorldSpec slave_world =
        mutated_.world.withNondetVariant(cfg_.nondetSalt);
    timer_->end();

    timer_->begin("setup");
    chan_.emplace(*scope_);
    chan_->traceEnabled = cfg_.recordTrace;
    for (const std::string &key : mutated_.taintKeys) {
        chan_->taints.taint(key);
        if (recorder_) {
            // The mutation events open the slave's timeline: the first
            // divergence in a report is always downstream of one.
            obs::RecEvent evt;
            evt.kind = obs::RecKind::Mutation;
            evt.arg = obs::fnv1a(key);
            recorder_->record(obs::kSlaveLane, evt);
        }
    }

    masterKernel_.emplace(world_);
    slaveKernel_.emplace(slave_world);
    slaveKernel_->setSuppressOutputs(true);
    masterKernel_->setObs(&*scope_, obs::kMasterLane);
    slaveKernel_->setObs(&*scope_, obs::kSlaveLane);

    vm::MachineConfig master_cfg = cfg_.vmConfig;
    vm::MachineConfig slave_cfg = cfg_.vmConfig;
    slave_cfg.schedSeed += cfg_.slaveSchedSeedDelta;
    if (cfg_.slaveSchedSeedDelta)
        slave_cfg.schedJitter = true;
    master_cfg.siteProfile = cfg_.masterSites;
    slave_cfg.siteProfile = cfg_.slaveSites;

    master_.emplace(module_, *masterKernel_, master_cfg);
    slave_.emplace(module_, *slaveKernel_, slave_cfg);
    master_->setObs(&*scope_, obs::kMasterLane);
    slave_->setObs(&*scope_, obs::kSlaveLane);

    auto sink_pred = [this](const std::string &channel) {
        return cfg_.sinks.matchesChannel(channel);
    };
    ControllerOptions mo;
    mo.side = Side::Master;
    mo.isSinkChannel = sink_pred;
    mo.shareLockOrder = cfg_.shareLockOrder;
    mo.lockPollTimeout = cfg_.lockPollTimeout;
    mo.stallTimeout = cfg_.stallTimeout;
    mo.stalls =
        cfg_.masterSites ? &cfg_.masterSites->gateStalls : nullptr;
    mo.trigger = cfg_.trigger;
    ControllerOptions so = mo;
    so.side = Side::Slave;
    so.stalls = cfg_.slaveSites ? &cfg_.slaveSites->gateStalls : nullptr;
    masterCtl_.emplace(*chan_, mo);
    slaveCtl_.emplace(*chan_, so);
    master_->setSyscallPort(&*masterCtl_);
    slave_->setSyscallPort(&*slaveCtl_);

    masterRec_.emplace(cfg_.sinks.retTokens, cfg_.sinks.allocSizes);
    slaveRec_.emplace(cfg_.sinks.retTokens, cfg_.sinks.allocSizes);
    if (cfg_.sinks.retTokens || cfg_.sinks.allocSizes) {
        master_->setSinkHook(&*masterRec_);
        slave_->setSinkHook(&*slaveRec_);
    }
    timer_->end(); // setup
}

void
DualRun::setupFork(const DualSnapshot &snap,
                   std::uint64_t chaos_drop_page)
{
    registry_ = cfg_.registry ? cfg_.registry : &localRegistry_;
    if (cfg_.flightRecorder)
        recorder_.emplace(cfg_.recorderCapacity);
    scope_.emplace(*registry_, cfg_.traceSink,
                   recorder_ ? &*recorder_ : nullptr);
    if (cfg_.traceSink) {
        cfg_.traceSink->setLaneName(obs::kMasterLane, "master");
        cfg_.traceSink->setLaneName(obs::kSlaveLane, "slave");
        cfg_.traceSink->setLaneName(obs::kPipelineLane, "pipeline");
    }
    timer_.emplace(cfg_.traceSink);

    // Same phase sequence as a full run: the fork re-derives its own
    // policy's mutated world (cheap), then restores the shared prefix
    // state instead of re-executing it.
    timer_->begin("mutate");
    Prng mutation_prng(cfg_.mutationSeed);
    mutated_ = mutateWorld(world_, cfg_.sources, cfg_.strategy,
                           mutation_prng);
    os::WorldSpec slave_world =
        mutated_.world.withNondetVariant(cfg_.nondetSalt);
    timer_->end();

    timer_->begin("setup");
    chan_.emplace(*scope_);
    chan_->traceEnabled = cfg_.recordTrace;
    // The captured taint set already holds the pre-taints (they are
    // policy-independent: same source, same keys) plus any runtime
    // taints from the prefix; restoreImage brings them all back.
    chan_->restoreImage(snap.channel);
    if (recorder_) {
        // Replay the prefix's event streams so the fork's recorder
        // order matches a full run's (timestamps are re-stamped; they
        // are wall-clock and never byte-compared).
        for (int side = 0; side < 2; ++side)
            for (const obs::RecEvent &evt : snap.recEvents[side])
                recorder_->record(side, evt);
    }

    masterKernel_.emplace(snap.kernel[0]);
    slaveKernel_.emplace(snap.kernel[1]);
    slaveKernel_->patchWorld(slave_world);
    masterKernel_->setObs(&*scope_, obs::kMasterLane);
    slaveKernel_->setObs(&*scope_, obs::kSlaveLane);

    vm::MachineConfig master_cfg = cfg_.vmConfig;
    vm::MachineConfig slave_cfg = cfg_.vmConfig;
    slave_cfg.schedSeed += cfg_.slaveSchedSeedDelta;
    if (cfg_.slaveSchedSeedDelta)
        slave_cfg.schedJitter = true;
    master_cfg.siteProfile = cfg_.masterSites;
    slave_cfg.siteProfile = cfg_.slaveSites;

    master_.emplace(module_, *masterKernel_, master_cfg);
    slave_.emplace(module_, *slaveKernel_, slave_cfg);
    master_->restoreImage(snap.machine[0]);
    slave_->restoreImage(snap.machine[1], chaos_drop_page);
    master_->setObs(&*scope_, obs::kMasterLane);
    slave_->setObs(&*scope_, obs::kSlaveLane);

    auto sink_pred = [this](const std::string &channel) {
        return cfg_.sinks.matchesChannel(channel);
    };
    ControllerOptions mo;
    mo.side = Side::Master;
    mo.isSinkChannel = sink_pred;
    mo.shareLockOrder = cfg_.shareLockOrder;
    mo.lockPollTimeout = cfg_.lockPollTimeout;
    mo.stallTimeout = cfg_.stallTimeout;
    mo.stalls =
        cfg_.masterSites ? &cfg_.masterSites->gateStalls : nullptr;
    mo.trigger = cfg_.trigger;
    ControllerOptions so = mo;
    so.side = Side::Slave;
    so.stalls = cfg_.slaveSites ? &cfg_.slaveSites->gateStalls : nullptr;
    masterCtl_.emplace(*chan_, mo);
    slaveCtl_.emplace(*chan_, so);
    masterCtl_->restoreImage(snap.controller[0]);
    slaveCtl_->restoreImage(snap.controller[1]);
    master_->setSyscallPort(&*masterCtl_);
    slave_->setSyscallPort(&*slaveCtl_);

    masterRec_.emplace(cfg_.sinks.retTokens, cfg_.sinks.allocSizes);
    slaveRec_.emplace(cfg_.sinks.retTokens, cfg_.sinks.allocSizes);
    masterRec_->corruptions = snap.corruptions[0];
    masterRec_->allocs = snap.allocs[0];
    slaveRec_->corruptions = snap.corruptions[1];
    slaveRec_->allocs = snap.allocs[1];
    if (cfg_.sinks.retTokens || cfg_.sinks.allocSizes) {
        master_->setSinkHook(&*masterRec_);
        slave_->setSinkHook(&*slaveRec_);
    }

    needStart_ = false; // machines resume mid-run from the image
    timer_->end(); // setup
}

bool
DualRun::drive()
{
    if (finished())
        return false;
    if (!running_) {
        running_ = true;
        t0_ = std::chrono::steady_clock::now();
        driverYields_ = &registry_->counter("driver.yields");
        driverIdle_ = &registry_->counter("driver.idle_rounds");
        driverIdleSkipped_ =
            &registry_->counter("driver.idle_rounds_skipped");
        driverBackoff_ = &registry_->counter("driver.backoff_ns");
        timer_->begin("dual-run");
        if (needStart_) {
            master_->start();
            slave_->start();
            needStart_ = false;
        }
    }
    if (cfg_.threaded)
        driveThreaded();
    else
        driveLockstep();
    if (finished()) {
        timer_->end(); // dual-run
        running_ = false;
    }
    return master_->pauseRequested() || slave_->pauseRequested();
}

void
DualRun::driveLockstep()
{
    const std::uint64_t kQuantum =
        cfg_.lockstepQuantum
            ? cfg_.lockstepQuantum
            : std::numeric_limits<std::uint64_t>::max();
    auto check_cap = [this] {
        if (secondsSince(t0_) > cfg_.wallClockCap) {
            deadlocked_ = true;
            chan_->abort.store(true, std::memory_order_release);
        }
    };
    std::uint64_t idle_rounds = 0;
    // Idle fast-forward state: both schedulers' marks after the last
    // idle round, and whether the controllers marked that round too.
    vm::Machine::SchedMark sched[2];
    bool marked = false;
    while (!(master_->settled() && slave_->settled())) {
        bool progressed = false;
        for (int side = 0; side < 2; ++side) {
            vm::Machine &m = side == 0 ? *master_ : *slave_;
            if (m.settled())
                continue;
            std::uint64_t got = 0;
            m.stepMany(kQuantum, got);
            if (got) {
                progressed = true;
                chan_->progress[side].fetch_add(
                    got, std::memory_order_relaxed);
            }
        }
        if (progressed) {
            idle_rounds = 0;
            continue;
        }
        driverIdle_->inc();
        if (++idle_rounds % 8192 == 0)
            check_cap();

        // A round in which neither side moved changed nothing but poll
        // counts. If the next one provably repeats it — both
        // schedulers back where they were, every wait behind the same
        // gate, each budget charged exactly one poll — then so does
        // every round until the first budget expires: book those
        // rounds in one step and run the expiring round for real.
        const vm::Machine::SchedMark now[2] = {master_->schedMark(),
                                               slave_->schedMark()};
        const bool fresh = idle_rounds == 1;
        const bool same =
            !fresh && now[0] == sched[0] && now[1] == sched[1];
        sched[0] = now[0];
        sched[1] = now[1];
        if (!fresh && !same) {
            marked = false; // not frozen (e.g. a jittered slice)
            continue;
        }
        const bool compare = marked && same;
        const bool polled[2] = {!now[0].settled, !now[1].settled};
        std::uint64_t left = std::min(
            masterCtl_->idleRoundsLeft(!compare, polled[0]),
            slaveCtl_->idleRoundsLeft(!compare, polled[1]));
        marked = true;
        if (left == 0 ||
            left == std::numeric_limits<std::uint64_t>::max())
            continue; // not frozen, or no budget to run out
        const std::uint64_t k = left - 1;
        if (k == 0)
            continue;
        master_->skipIdleRounds(k);
        slave_->skipIdleRounds(k);
        masterCtl_->skipIdleRounds(k, polled[0]);
        slaveCtl_->skipIdleRounds(k, polled[1]);
        driverIdle_->inc(k);
        driverIdleSkipped_->inc(k);
        idle_rounds += k;
        marked = false; // the controllers' marks predate the skip
        check_cap();
    }
}

void
DualRun::driveThreaded()
{
    const DriverConfig dc = cfg_.driver;
    SyncChannel &chan = *chan_;
    obs::PhaseTimer &timer = *timer_;
    obs::Counter *driver_yields = driverYields_;
    obs::Counter *driver_backoff = driverBackoff_;
    // Each side loop exits exactly when its machine settles (finished
    // or paused) and then reports in; the main thread sleeps until
    // both have, or until the wall-clock cap. A pair that settles
    // after the cap counts as deadlocked either way.
    std::mutex done_mu;
    std::condition_variable done_cv;
    int running = 2;
    std::chrono::steady_clock::time_point settled_at;
    auto loop = [&chan, &timer, dc, driver_yields, driver_backoff,
                 &done_mu, &done_cv, &running,
                 &settled_at](vm::Machine &m, int side) {
        std::int64_t start_us = obs::nowUs();
        auto side_t0 = std::chrono::steady_clock::now();
        std::uint64_t stalls = 0;
        while (!m.finished() && !m.pauseRequested()) {
            std::uint64_t got = 0;
            vm::StepStatus st = m.stepMany(128, got);
            if (got)
                chan.progress[side].fetch_add(
                    got, std::memory_order_relaxed);
            if (st == vm::StepStatus::Progress) {
                stalls = 0;
            } else if (st == vm::StepStatus::Stalled) {
                if (got) {
                    stalls = 0;
                    continue; // partial batch: poll again at once
                }
                if (m.pauseRequested())
                    break;
                ++stalls;
                if (stalls <= dc.spinCount) {
                    cpuRelax();
                } else if (stalls <= std::uint64_t{dc.spinCount} +
                                         dc.yieldCount) {
                    driver_yields->inc();
                    std::this_thread::yield();
                } else {
                    driver_yields->inc();
                    auto b0 = std::chrono::steady_clock::now();
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(dc.sleepMicros));
                    driver_backoff->inc(static_cast<std::uint64_t>(
                        std::chrono::duration_cast<
                            std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() - b0)
                            .count()));
                }
            } else {
                break;
            }
        }
        timer.record(side == 0 ? "master-run" : "slave-run", 1,
                     start_us, secondsSince(side_t0));
        {
            std::lock_guard<std::mutex> lock(done_mu);
            --running;
            settled_at = std::chrono::steady_clock::now();
        }
        done_cv.notify_one();
    };
    std::thread mt(loop, std::ref(*master_), 0);
    std::thread st(loop, std::ref(*slave_), 1);
    {
        // Capped so the deadline stays representable.
        const auto deadline =
            t0_ + std::chrono::duration_cast<
                      std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(
                          std::min(cfg_.wallClockCap, 1e9)));
        auto both_done = [&running] { return running == 0; };
        std::unique_lock<std::mutex> lock(done_mu);
        if (!done_cv.wait_until(lock, deadline, both_done)) {
            deadlocked_ = true;
            chan_->abort.store(true, std::memory_order_release);
            done_cv.wait(lock, both_done);
        } else if (settled_at > deadline) {
            deadlocked_ = true;
        }
    }
    mt.join();
    st.join();
}

bool
DualRun::finished() const
{
    return master_ && slave_ && master_->finished() &&
           slave_->finished();
}

DualSnapshot
DualRun::capture()
{
    checkInvariant(master_->settled() && slave_->settled(),
                   "capture requires both machines settled");
    DualSnapshot snap;
    snap.machine[0] = master_->captureImage();
    snap.machine[1] = slave_->captureImage();
    snap.kernel[0] = *masterKernel_;
    snap.kernel[1] = *slaveKernel_;
    snap.channel = chan_->captureImage();
    snap.controller[0] = masterCtl_->captureImage();
    snap.controller[1] = slaveCtl_->captureImage();
    if (recorder_) {
        snap.recEvents[0] = recorder_->snapshot(0);
        snap.recEvents[1] = recorder_->snapshot(1);
    }
    snap.corruptions[0] = masterRec_->corruptions;
    snap.allocs[0] = masterRec_->allocs;
    snap.corruptions[1] = slaveRec_->corruptions;
    snap.allocs[1] = slaveRec_->allocs;
    snap.prefixInstrs = master_->stats().instructions +
                        slave_->stats().instructions;
    return snap;
}

void
DualRun::resume()
{
    master_->clearPause();
    slave_->clearPause();
}

DualResult
DualRun::finish()
{
    obs::Registry &registry = *registry_;
    SyncChannel &chan = *chan_;
    vm::Machine &master = *master_;
    vm::Machine &slave = *slave_;

    timer_->begin("verdict");
    DualResult res;
    res.wallSeconds = secondsSince(t0_);
    res.deadlocked = deadlocked_;
    res.findings = chan.takeFindings();
    if (cfg_.recordTrace)
        res.trace = chan.takeTrace();
    // The registry is the single source for the alignment tallies;
    // the legacy result fields read back the same counters, so
    // DualResult::metrics agrees with them exactly.
    res.alignedSyscalls = chan.alignedSyscalls->value();
    res.syscallDiffs = chan.syscallDiffs->value();
    res.totalSlaveSyscalls = chan.slaveSyscalls->value();
    res.barrierPairings = chan.barrierPairings->value();
    res.masterExit = master.exitCode();
    res.slaveExit = slave.exitCode();
    res.masterTrapped = master.trap().has_value();
    res.slaveTrapped = slave.trap().has_value();
    if (master.trap())
        res.masterTrapMessage = master.trap()->message;
    if (slave.trap())
        res.slaveTrapMessage = slave.trap()->message;
    res.masterStats = master.stats();
    res.slaveStats = slave.stats();
    res.taintedResources = chan.taints.snapshot();

    // Return-token sinks: any difference in the corruption event
    // streams is causality between the mutated input and control
    // state.
    if (cfg_.sinks.retTokens &&
        masterRec_->corruptions != slaveRec_->corruptions) {
        Finding f;
        f.kind = CauseKind::RetTokenDiff;
        f.observer = Side::Master;
        f.masterValue =
            std::to_string(masterRec_->corruptions.size()) +
            " corruption(s)";
        f.slaveValue = std::to_string(slaveRec_->corruptions.size()) +
                       " corruption(s)";
        res.findings.push_back(std::move(f));
    }

    // Allocation-size sinks: pairwise comparison of malloc arguments.
    if (cfg_.sinks.allocSizes) {
        std::size_t n = std::min(masterRec_->allocs.size(),
                                 slaveRec_->allocs.size());
        int reported = 0;
        for (std::size_t i = 0; i < n && reported < 32; ++i) {
            if (masterRec_->allocs[i] != slaveRec_->allocs[i]) {
                Finding f;
                f.kind = CauseKind::AllocSizeDiff;
                f.observer = Side::Master;
                f.masterValue =
                    std::to_string(masterRec_->allocs[i].second);
                f.slaveValue =
                    std::to_string(slaveRec_->allocs[i].second);
                res.findings.push_back(std::move(f));
                ++reported;
            }
        }
        if (masterRec_->allocs.size() != slaveRec_->allocs.size()) {
            Finding f;
            f.kind = CauseKind::AllocSizeDiff;
            f.observer = Side::Master;
            f.masterValue =
                std::to_string(masterRec_->allocs.size()) + " allocs";
            f.slaveValue =
                std::to_string(slaveRec_->allocs.size()) + " allocs";
            res.findings.push_back(std::move(f));
        }
    }

    // Termination divergence (e.g., the slave crashed under mutation).
    bool master_hijack = res.masterTrapped;
    bool slave_hijack = res.slaveTrapped;
    if (master_hijack != slave_hijack ||
        (master_hijack &&
         res.masterTrapMessage != res.slaveTrapMessage)) {
        Finding f;
        f.kind = CauseKind::TerminationDiff;
        f.observer = Side::Master;
        f.masterValue = res.masterTrapped ? res.masterTrapMessage : "ok";
        f.slaveValue = res.slaveTrapped ? res.slaveTrapMessage : "ok";
        res.findings.push_back(std::move(f));
    }

    // Per-channel findings were appended in whatever cross-thread
    // order the controllers hit them, which the threaded driver does
    // not reproduce run to run. Group by tid (stable within a tid,
    // where order is guest-deterministic) so the findings list — and
    // everything derived from it, like divergence.outcome — is
    // identical across drivers and repeated runs.
    std::stable_sort(res.findings.begin(), res.findings.end(),
                     [](const Finding &a, const Finding &b) {
                         return a.tid < b.tid;
                     });

    if (recorder_) {
        obs::FlightRecorder &recorder = *recorder_;
        registry.counter("recorder.events.master")
            .inc(recorder.total(0));
        registry.counter("recorder.events.slave")
            .inc(recorder.total(1));
        registry.counter("recorder.dropped")
            .inc(recorder.dropped(0) + recorder.dropped(1));
        const bool non_clean =
            !res.findings.empty() || res.deadlocked ||
            res.masterTrapped || res.slaveTrapped ||
            chan.decouples->value() || chan.watchdogExpired->value() ||
            chan.sinkDiffs->value() || chan.sinkVanished->value();
        if (non_clean) {
            obs::DivergenceInput in;
            in.recorder = &recorder;
            in.sysName = [](std::int64_t no) {
                return os::sysName(no);
            };
            if (!res.findings.empty())
                in.outcome = causeKindName(res.findings.front().kind);
            else if (res.deadlocked)
                in.outcome = "deadlock";
            else if (chan.watchdogExpired->value())
                in.outcome = "watchdog-expiry";
            else
                in.outcome = "decouple";
            in.mutatedKeys = mutated_.taintKeys;
            in.taintedKeys.assign(res.taintedResources.begin(),
                                  res.taintedResources.end());
            // Both VMs have finished and the driver threads are
            // joined, so the channels are quiescent: read them
            // without their mutexes (locking here would perturb the
            // chan.mutex_acquisitions tally).
            chan.forEachChannel([&in](int tid, ThreadChannel &ch) {
                obs::ChannelSnapshot snap;
                snap.tid = tid;
                for (int side = 0; side < 2; ++side) {
                    snap.cnt[side] = ch.pos[side].cnt;
                    snap.site[side] = ch.pos[side].site;
                    snap.posKind[side] =
                        static_cast<std::uint8_t>(ch.pos[side].kind);
                    snap.cntStack[side] = ch.cntStack[side];
                    snap.threadDone[side] = ch.threadDone[side];
                }
                snap.queueDepth = ch.queue.size();
                in.channels.push_back(std::move(snap));
            });
            res.divergence = obs::buildDivergenceReport(in);
        }
    }
    timer_->end(); // verdict

    publishSideStats(registry, "master", res.masterStats,
                     masterKernel_->stats());
    publishSideStats(registry, "slave", res.slaveStats,
                     slaveKernel_->stats());
    registry.counter("driver.steps.master")
        .inc(chan.progress[0].load(std::memory_order_relaxed));
    registry.counter("driver.steps.slave")
        .inc(chan.progress[1].load(std::memory_order_relaxed));
    registry.counter("chan.mutex_acquisitions")
        .inc(chan.totalMutexAcquisitions());
    registry.counter("dual.findings").inc(res.findings.size());
    registry.gauge("dual.wall_seconds").set(res.wallSeconds);

    res.metrics = registry.snapshot();
    res.phases = timer_->samples();
    return res;
}

std::vector<DualResult>
runSnapshotGroup(const ir::Module &module, const os::WorldSpec &world,
                 const EngineConfig &base,
                 const std::vector<MutationStrategy> &policies,
                 SnapshotGroupStats &stats,
                 std::uint64_t chaos_drop_page)
{
    checkInvariant(!policies.empty(),
                   "snapshot group needs at least one policy");
    stats = SnapshotGroupStats{};
    std::vector<DualResult> out;
    out.reserve(policies.size());

    SnapshotTrigger trig;
    if (base.sources.size() == 1)
        trig.key = base.sources[0].resourceKey();

    EngineConfig carrier_cfg = base;
    carrier_cfg.strategy = policies[0];
    carrier_cfg.trigger = &trig;
    DualRun carrier(module, world, carrier_cfg);
    std::optional<DualSnapshot> snap;
    while (!carrier.finished()) {
        if (!carrier.drive())
            continue;
        if (!snap && trig.bothFired()) {
            snap = carrier.capture();
            stats.engaged = true;
            stats.prefixRuns = 1;
            stats.prefixInstrs = snap->prefixInstrs;
            stats.prefixInstrsExecuted = snap->prefixInstrs;
        }
        carrier.resume();
    }
    out.push_back(carrier.finish());

    for (std::size_t i = 1; i < policies.size(); ++i) {
        EngineConfig cfg = base;
        cfg.strategy = policies[i];
        cfg.trigger = nullptr;
        if (snap) {
            DualRun fork(module, world, cfg, *snap, chaos_drop_page);
            while (!fork.finished())
                if (fork.drive())
                    fork.resume();
            out.push_back(fork.finish());
            ++stats.forks;
            stats.instrsSaved += stats.prefixInstrs;
        } else {
            // Trigger never paused both sides (source untouched, or a
            // side exited first): run the policy in full, exactly as
            // the snapshot-off path would — including its probe-only
            // trigger, so prefixInstrsExecuted stays comparable.
            SnapshotTrigger probe;
            probe.key = trig.key;
            probe.pauseOnHit = false;
            cfg.trigger = &probe;
            DualRun full(module, world, cfg);
            while (!full.finished())
                if (full.drive())
                    full.resume();
            out.push_back(full.finish());
            if (probe.bothFired())
                stats.prefixInstrsExecuted +=
                    probe.prefixInstrs[0].load(std::memory_order_relaxed) +
                    probe.prefixInstrs[1].load(std::memory_order_relaxed);
        }
    }
    return out;
}

} // namespace ldx::core
