/**
 * @file
 * Snapshot/fork query execution.
 *
 * A campaign plans S·P queries (S mutated sources × P mutation
 * policies). For a fixed source, every policy's dual execution is
 * *identical* until the first syscall that touches the mutated
 * resource: mutations are length-preserving edits of resource values,
 * the mutated keys are pre-tainted the same way, and the slave's
 * nondeterminism salt is a constant — so the pre-touch prefix state
 * is policy-independent. This module exploits that: it runs the
 * shared master/slave prefix once per source (the *carrier* — the
 * group's first policy), pauses both machines at the source's first
 * touch via the controllers' SnapshotTrigger, captures the complete
 * dual state as a DualSnapshot, resumes the carrier to completion,
 * and then runs every remaining policy as a *fork*: fresh engine
 * plumbing restored from the snapshot, with only the slave kernel's
 * world patched to that policy's mutation. S·P full runs become S
 * prefix runs plus S·P suffix runs.
 *
 * DualRun is the engine's run() decomposed into resumable steps —
 * construct, drive (until finished or paused), capture, resume,
 * finish — so both DualEngine::run() (one drive, no trigger) and the
 * campaign's group executor are thin sequences over the same code.
 * The non-snapshot path therefore stays the oracle: a fork must
 * produce byte-identical verdicts, graphs, and recorder event order
 * (tests/snapshot_test.cc holds that wall).
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "ldx/engine.h"
#include "obs/phase.h"
#include "obs/recorder.h"
#include "obs/scope.h"

namespace ldx::core {

/**
 * Records VM-level sink events (return-token corruptions and
 * allocation sizes, the vulnerable-program sink set). Part of the
 * snapshot because the verdict compares the full event streams: a
 * fork must resume with the prefix's events already recorded.
 */
class SinkRecorder : public vm::SinkHook
{
  public:
    static constexpr std::size_t kCap = 65536;

    SinkRecorder(bool record_rets, bool record_allocs)
        : recordRets_(record_rets), recordAllocs_(record_allocs)
    {}

    void
    onRetToken(int tid, std::uint64_t, std::int64_t token,
               std::int64_t expected, vm::Machine &) override
    {
        // Only corruptions are interesting: a healthy return matches.
        if (recordRets_ && token != expected &&
            corruptions.size() < kCap)
            corruptions.push_back({tid, token});
    }

    void
    onAllocSize(int tid, std::int64_t size, vm::Machine &) override
    {
        if (recordAllocs_ && allocs.size() < kCap)
            allocs.push_back({tid, size});
    }

    std::vector<std::pair<int, std::int64_t>> corruptions;
    std::vector<std::pair<int, std::int64_t>> allocs;

  private:
    bool recordRets_;
    bool recordAllocs_;
};

/**
 * Everything a forked execution needs to resume from the capture
 * point, by value: both machines (arena memory image + scheduler and
 * thread state), both kernels (world, fds, nondet cursors — which is
 * what keeps virtual clock/RNG/sys-latency state identical between a
 * fork and a full run), the coupling channel, both controllers' poll
 * gates, the flight-recorder event streams, and the VM-level sink
 * event streams. Index 0 is the master side, 1 the slave.
 */
struct DualSnapshot
{
    vm::MachineImage machine[2];
    os::Kernel kernel[2] = {os::Kernel({}), os::Kernel({})};
    ChannelImage channel;
    Controller::Image controller[2];
    std::vector<obs::RecEvent> recEvents[2];
    std::vector<std::pair<int, std::int64_t>> corruptions[2];
    std::vector<std::pair<int, std::int64_t>> allocs[2];
    /** Master+slave instructions retired at the trigger hits. */
    std::uint64_t prefixInstrs = 0;
};

/**
 * One dual execution, decomposed into resumable steps. Construction
 * performs the mutate and setup phases (or restores a snapshot);
 * drive() runs both machines until they finish or pause at the
 * snapshot trigger; finish() builds the DualResult. The object is
 * single-use: construct, drive (possibly capture/resume/drive
 * again), finish, destroy.
 */
class DualRun
{
  public:
    /** Fresh run: the ordinary path, and the group carrier. */
    DualRun(const ir::Module &module, const os::WorldSpec &world,
            EngineConfig cfg);

    /**
     * Forked run: mutate @p world for cfg.strategy, restore @p snap,
     * and patch the slave kernel's world to this policy's mutation.
     * @p chaos_drop_page plants the stale-snapshot bug (one memory
     * page skipped in the slave restore) for the fuzz harness.
     */
    DualRun(const ir::Module &module, const os::WorldSpec &world,
            EngineConfig cfg, const DualSnapshot &snap,
            std::uint64_t chaos_drop_page = 0);

    ~DualRun();

    /**
     * Drive both machines until each has finished or paused at the
     * snapshot trigger. Returns true when at least one side paused
     * (capture may be possible; check the trigger's bothFired()).
     */
    bool drive();

    /** Capture the paused pair (trigger fired on both sides). */
    DualSnapshot capture();

    /** Clear both pauses so drive() can continue past the capture. */
    void resume();

    bool finished() const;

    /** Build the verdict; call once, after drive() reports done. */
    DualResult finish();

  private:
    void setupFresh();
    void setupFork(const DualSnapshot &snap,
                   std::uint64_t chaos_drop_page);
    void driveLockstep();
    void driveThreaded();

    const ir::Module &module_;
    os::WorldSpec world_;
    EngineConfig cfg_;
    MutatedWorld mutated_;

    obs::Registry localRegistry_;
    obs::Registry *registry_ = nullptr;
    std::optional<obs::FlightRecorder> recorder_;
    std::optional<obs::Scope> scope_;
    std::optional<obs::PhaseTimer> timer_;
    std::optional<SyncChannel> chan_;
    std::optional<os::Kernel> masterKernel_;
    std::optional<os::Kernel> slaveKernel_;
    std::optional<vm::Machine> master_;
    std::optional<vm::Machine> slave_;
    std::optional<Controller> masterCtl_;
    std::optional<Controller> slaveCtl_;
    std::optional<SinkRecorder> masterRec_;
    std::optional<SinkRecorder> slaveRec_;

    bool needStart_ = true;
    bool running_ = false;  ///< dual-run phase timer open
    bool deadlocked_ = false;
    std::chrono::steady_clock::time_point t0_;
    obs::Counter *driverYields_ = nullptr;
    obs::Counter *driverIdle_ = nullptr;
    obs::Counter *driverIdleSkipped_ = nullptr;
    obs::Counter *driverBackoff_ = nullptr;
};

/** Per-group tallies the campaign folds into its snapshot metrics. */
struct SnapshotGroupStats
{
    /** 1 when the snapshot path engaged (carrier paused + captured). */
    std::uint64_t prefixRuns = 0;
    /** Policies executed as forks (suffix-only runs). */
    std::uint64_t forks = 0;
    /** Dual (master+slave) instructions in the shared prefix. */
    std::uint64_t prefixInstrs = 0;
    /** Prefix instructions NOT re-executed thanks to forking. */
    std::uint64_t instrsSaved = 0;
    /**
     * Measured prefix instructions actually *executed* by this group:
     * the carrier's prefix once when engaged, or each fallback full
     * run's probed prefix otherwise. Comparable to the snapshot-off
     * path's per-query probe sum (campaign.dual.prefix_instrs).
     */
    std::uint64_t prefixInstrsExecuted = 0;
    /** False: trigger never paused both sides; fell back to full runs. */
    bool engaged = false;
};

/**
 * Execute one campaign group — @p policies of one mutated source —
 * with snapshot forking. base.sources must already be the group's
 * single source spec; base.strategy is overridden per policy. Falls
 * back to full runs (bit-identical to the snapshot-off path) when
 * the trigger cannot pause both sides — e.g. the program never
 * touches the source, or one side exits first. Results are in
 * policy order. @p chaos_drop_page is forwarded to every fork's
 * slave-memory restore (fault injection; 0 = off).
 */
std::vector<DualResult>
runSnapshotGroup(const ir::Module &module, const os::WorldSpec &world,
                 const EngineConfig &base,
                 const std::vector<MutationStrategy> &policies,
                 SnapshotGroupStats &stats,
                 std::uint64_t chaos_drop_page = 0);

} // namespace ldx::core
