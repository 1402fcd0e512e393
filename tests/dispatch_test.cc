/**
 * @file
 * Dispatch-mode differential tests: switch, threaded (computed-goto),
 * and fused (threaded + superinstructions) are pure wall-clock knobs.
 * Every workload must retire bit-identical state — stats, exits,
 * traps, dual verdicts, and the flight recorder's event order — under
 * all three modes and at every stepMany batch size. On a build
 * without computed goto the threaded modes degrade to switch, so the
 * comparisons stay valid (they just compare switch to itself).
 */
#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "lang/compiler.h"
#include "ldx/engine.h"
#include "obs/recorder.h"
#include "os/kernel.h"
#include "query/campaign.h"
#include "vm/machine.h"
#include "vm/predecode.h"
#include "workloads/workloads.h"

namespace ldx {
namespace {

using core::DualResult;
using core::EngineConfig;
using workloads::Workload;

constexpr vm::DispatchMode kModes[] = {vm::DispatchMode::Switch,
                                       vm::DispatchMode::Threaded,
                                       vm::DispatchMode::Fused};

void
expectSameStats(const vm::MachineStats &a, const vm::MachineStats &b,
                const std::string &what)
{
    EXPECT_EQ(a.instructions, b.instructions) << what;
    EXPECT_EQ(a.syscalls, b.syscalls) << what;
    EXPECT_EQ(a.maxCnt, b.maxCnt) << what;
    EXPECT_DOUBLE_EQ(a.avgCnt, b.avgCnt) << what;
    EXPECT_EQ(a.maxCntDepth, b.maxCntDepth) << what;
    EXPECT_EQ(a.barriers, b.barriers) << what;
    EXPECT_EQ(a.mixData, b.mixData) << what;
    EXPECT_EQ(a.mixAlu, b.mixAlu) << what;
    EXPECT_EQ(a.mixMem, b.mixMem) << what;
    EXPECT_EQ(a.mixCall, b.mixCall) << what;
    EXPECT_EQ(a.mixBranch, b.mixBranch) << what;
    EXPECT_EQ(a.mixSyscall, b.mixSyscall) << what;
    EXPECT_EQ(a.mixCounter, b.mixCounter) << what;
}

TEST(DispatchModeTest, NamesRoundTrip)
{
    for (vm::DispatchMode m : kModes) {
        vm::DispatchMode parsed;
        ASSERT_TRUE(
            vm::parseDispatchMode(vm::dispatchModeName(m), parsed));
        EXPECT_EQ(parsed, m);
    }
    vm::DispatchMode out;
    EXPECT_FALSE(vm::parseDispatchMode("", out));
    EXPECT_FALSE(vm::parseDispatchMode("goto", out));
    EXPECT_FALSE(vm::parseDispatchMode("Switch", out));
}

class DispatchDifferential
    : public ::testing::TestWithParam<std::string>
{
  protected:
    const Workload &
    workload() const
    {
        const Workload *w = workloads::findWorkload(GetParam());
        EXPECT_NE(w, nullptr);
        return *w;
    }
};

/** Native single-VM run: all three modes vs the switch reference. */
TEST_P(DispatchDifferential, NativeRunIdenticalAcrossModes)
{
    const Workload &w = workload();
    const ir::Module &module = workloads::workloadModule(w, true);

    struct Outcome
    {
        vm::MachineStats stats;
        std::int64_t exit = 0;
        std::int64_t cnt = 0;
        std::string trap;
    };
    auto run = [&](vm::DispatchMode mode) {
        os::Kernel kernel(w.world(w.defaultScale));
        vm::MachineConfig cfg;
        cfg.dispatch = mode;
        vm::Machine m(module, kernel, cfg);
        m.run();
        Outcome o;
        o.stats = m.stats();
        o.exit = m.exitCode();
        o.cnt = m.context(0).cnt;
        o.trap = m.trap() ? m.trap()->message : "";
        return o;
    };

    Outcome ref = run(vm::DispatchMode::Switch);
    for (vm::DispatchMode mode : kModes) {
        SCOPED_TRACE(vm::dispatchModeName(mode));
        Outcome o = run(mode);
        EXPECT_EQ(o.exit, ref.exit);
        EXPECT_EQ(o.cnt, ref.cnt);
        EXPECT_EQ(o.trap, ref.trap);
        expectSameStats(o.stats, ref.stats,
                        w.name + "/" + vm::dispatchModeName(mode));
    }
}

/** Dual lockstep verdicts must not depend on the dispatch mode. */
TEST_P(DispatchDifferential, DualVerdictIdenticalAcrossModes)
{
    const Workload &w = workload();
    const ir::Module &module = workloads::workloadModule(w, true);

    auto run = [&](vm::DispatchMode mode) {
        EngineConfig cfg;
        cfg.sinks = w.sinks;
        cfg.sources = w.sources;
        cfg.wallClockCap = 60.0;
        cfg.vmConfig.dispatch = mode;
        core::DualEngine engine(module, w.world(w.defaultScale), cfg);
        return engine.run();
    };

    DualResult ref = run(vm::DispatchMode::Switch);
    for (vm::DispatchMode mode : kModes) {
        SCOPED_TRACE(vm::dispatchModeName(mode));
        DualResult res = run(mode);
        EXPECT_EQ(res.causality(), ref.causality());
        EXPECT_EQ(res.deadlocked, ref.deadlocked);
        EXPECT_EQ(res.alignedSyscalls, ref.alignedSyscalls);
        EXPECT_EQ(res.syscallDiffs, ref.syscallDiffs);
        EXPECT_EQ(res.barrierPairings, ref.barrierPairings);
        EXPECT_EQ(res.masterExit, ref.masterExit);
        EXPECT_EQ(res.slaveExit, ref.slaveExit);
        EXPECT_EQ(res.masterTrapMessage, ref.masterTrapMessage);
        EXPECT_EQ(res.slaveTrapMessage, ref.slaveTrapMessage);
        expectSameStats(res.masterStats, ref.masterStats,
                        w.name + "/master");
        expectSameStats(res.slaveStats, ref.slaveStats,
                        w.name + "/slave");
        EXPECT_EQ(res.taintedResources, ref.taintedResources);
        ASSERT_EQ(res.findings.size(), ref.findings.size());
        for (std::size_t i = 0; i < res.findings.size(); ++i)
            EXPECT_EQ(res.findings[i].describe(),
                      ref.findings[i].describe());
    }
}

std::vector<std::string>
allWorkloadNames()
{
    std::vector<std::string> names;
    for (const Workload &w : workloads::allWorkloads())
        names.push_back(w.name);
    return names;
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, DispatchDifferential,
    ::testing::ValuesIn(allWorkloadNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

/**
 * stepMany batch boundaries x dispatch modes: the threaded dispatcher
 * chains runs, so slice boundaries land differently inside it — but
 * retirement must still be exact at every budget, including budget 1
 * (which can never fuse) and a prime that splits runs mid-pair.
 */
TEST(DispatchBatchTest, FinalStateIndependentOfBatchAndMode)
{
    const Workload *w = workloads::findWorkload("401.bzip2");
    ASSERT_NE(w, nullptr);
    const ir::Module &module = workloads::workloadModule(*w, true);

    struct Outcome
    {
        std::int64_t exit = 0;
        std::int64_t cnt = 0;
        vm::MachineStats stats;
    };
    auto run = [&](vm::DispatchMode mode, std::uint64_t batch) {
        os::Kernel kernel(w->world(w->defaultScale));
        vm::MachineConfig cfg;
        cfg.dispatch = mode;
        vm::Machine m(module, kernel, cfg);
        m.start();
        std::uint64_t budget =
            batch ? batch : std::numeric_limits<std::uint64_t>::max();
        vm::StepStatus st = vm::StepStatus::Progress;
        while (st == vm::StepStatus::Progress) {
            std::uint64_t got = 0;
            st = m.stepMany(budget, got);
        }
        EXPECT_EQ(st, vm::StepStatus::Finished)
            << (m.trap() ? m.trap()->message : "");
        Outcome o;
        o.exit = m.exitCode();
        o.cnt = m.context(0).cnt;
        o.stats = m.stats();
        return o;
    };

    Outcome ref = run(vm::DispatchMode::Switch, 64);
    EXPECT_GT(ref.cnt, 0);
    for (vm::DispatchMode mode : kModes) {
        for (std::uint64_t batch : {std::uint64_t{1}, std::uint64_t{7},
                                    std::uint64_t{64},
                                    std::uint64_t{0}}) {
            SCOPED_TRACE(std::string(vm::dispatchModeName(mode)) +
                         " batch " + std::to_string(batch));
            Outcome o = run(mode, batch);
            EXPECT_EQ(o.exit, ref.exit);
            EXPECT_EQ(o.cnt, ref.cnt);
            expectSameStats(o.stats, ref.stats,
                            vm::dispatchModeName(mode));
        }
    }
}

/**
 * Guest int64 arithmetic wraps (two's complement) on every path: the
 * slow step() evaluator (predecode off), the switch fast path, and the
 * threaded bodies that the fused pairs reuse. None of these overflows
 * may be host undefined behaviour (the UBSan build checks that).
 */
TEST(DispatchArithmeticTest, OverflowWrapsIdenticallyOnEveryPath)
{
    auto module = lang::compileSource(R"(
int show(int v) {
    char out[24];
    itoa(v, out);
    print(out, strlen(out));
    print(" ", 1);
    return 0;
}
int main() {
    int max = 9223372036854775807;
    int min = -max - 1;
    int m1 = -1;
    show(max + 1);
    show(min - 1);
    show(min * m1);
    show(-min);
    show(max * 3);
    show(3037000500 * 3037000500);
    return 0;
}
)");
    const std::string expected =
        "-9223372036854775808 9223372036854775807 "
        "-9223372036854775808 -9223372036854775808 "
        "9223372036854775805 -9223372036709301616 ";

    auto run = [&](vm::DispatchMode mode, bool predecode) {
        os::Kernel kernel{os::WorldSpec{}};
        vm::MachineConfig cfg;
        cfg.dispatch = mode;
        cfg.predecode = predecode;
        vm::Machine m(*module, kernel, cfg);
        EXPECT_EQ(m.run(), vm::StepStatus::Finished)
            << (m.trap() ? m.trap()->message : "");
        std::string console;
        for (const os::OutputRecord &r : kernel.outputs())
            console += r.payload;
        return console;
    };

    EXPECT_EQ(run(vm::DispatchMode::Switch, false), expected)
        << "predecode off";
    for (vm::DispatchMode mode : kModes)
        EXPECT_EQ(run(mode, true), expected)
            << vm::dispatchModeName(mode);
}

/**
 * The flight recorder's event sequence is part of the contract: the
 * forensics a user sees must not depend on how the interpreter
 * dispatches.
 */
TEST(DispatchBatchTest, RecorderEventOrderIndependentOfMode)
{
    const Workload *w = workloads::findWorkload("gif2png");
    ASSERT_NE(w, nullptr);
    const ir::Module &module = workloads::workloadModule(*w, true);

    auto run = [&](vm::DispatchMode mode) {
        EngineConfig cfg;
        cfg.sinks = w->sinks;
        cfg.sources = w->sources;
        cfg.flightRecorder = true;
        cfg.wallClockCap = 60.0;
        cfg.vmConfig.dispatch = mode;
        core::DualEngine engine(module, w->world(w->defaultScale), cfg);
        return engine.run();
    };
    auto timeline = [](const DualResult &res, int side) {
        std::vector<std::string> keys;
        for (const obs::RecEvent &e : res.divergence.events[side]) {
            std::ostringstream os;
            os << obs::recKindName(e.kind) << " tid=" << e.tid
               << " cnt=" << e.cnt << " site=" << e.site
               << " sys=" << e.sysNo << " arg=" << e.arg;
            keys.push_back(os.str());
        }
        return keys;
    };

    DualResult ref = run(vm::DispatchMode::Switch);
    ASSERT_TRUE(ref.divergence.present);
    for (vm::DispatchMode mode : kModes) {
        SCOPED_TRACE(vm::dispatchModeName(mode));
        DualResult res = run(mode);
        EXPECT_EQ(res.causality(), ref.causality());
        ASSERT_TRUE(res.divergence.present);
        EXPECT_EQ(timeline(res, 0), timeline(ref, 0));
        EXPECT_EQ(timeline(res, 1), timeline(ref, 1));
    }
}

/**
 * Campaign graphs must be byte-identical with and without a shared
 * predecoded module (the image-cache path injects one), and across
 * dispatch modes.
 */
TEST(DispatchCampaignTest, GraphByteIdenticalAcrossConfigs)
{
    const Workload *w = workloads::findWorkload("gif2png");
    ASSERT_NE(w, nullptr);
    const ir::Module &module = workloads::workloadModule(*w, true);

    auto run = [&](vm::DispatchMode mode, bool shared_predecode) {
        query::CampaignConfig cfg;
        cfg.sinks = w->sinks;
        cfg.vmConfig.dispatch = mode;
        if (shared_predecode) {
            auto pre = std::make_shared<vm::PredecodedModule>(module);
            pre->decodeAll();
            cfg.vmConfig.predecoded = std::move(pre);
        }
        query::CampaignResult res =
            query::runCampaign(module, w->world(w->defaultScale), cfg);
        return res.graph.toJson();
    };

    std::string ref = run(vm::DispatchMode::Switch, false);
    EXPECT_EQ(run(vm::DispatchMode::Fused, false), ref);
    EXPECT_EQ(run(vm::DispatchMode::Fused, true), ref);
    EXPECT_EQ(run(vm::DispatchMode::Threaded, true), ref);
}

} // namespace
} // namespace ldx
