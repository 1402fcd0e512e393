/**
 * @file
 * Google-benchmark microbenchmarks of the primitives the headline
 * numbers rest on: interpreter step rate, counter-op upkeep, the
 * instrumentation pass itself, channel operations, and one full dual
 * execution per driver.
 */
#include <benchmark/benchmark.h>

#include "instrument/instrument.h"
#include "lang/compiler.h"
#include "ldx/channel.h"
#include "ldx/engine.h"
#include "os/kernel.h"
#include "vm/machine.h"
#include "workloads/workloads.h"

using namespace ldx;

namespace {

const workloads::Workload &
bzip()
{
    return *workloads::findWorkload("401.bzip2");
}

void
BM_NativeRun(benchmark::State &state)
{
    const ir::Module &m = workloads::workloadModule(bzip(), false);
    os::WorldSpec world = bzip().world(1);
    for (auto _ : state) {
        os::Kernel kernel(world);
        vm::Machine machine(m, kernel, {});
        machine.run();
        benchmark::DoNotOptimize(machine.exitCode());
    }
}
BENCHMARK(BM_NativeRun);

void
BM_InstrumentedRun(benchmark::State &state)
{
    const ir::Module &m = workloads::workloadModule(bzip(), true);
    os::WorldSpec world = bzip().world(1);
    for (auto _ : state) {
        os::Kernel kernel(world);
        vm::Machine machine(m, kernel, {});
        machine.run();
        benchmark::DoNotOptimize(machine.exitCode());
    }
}
BENCHMARK(BM_InstrumentedRun);

/**
 * Per-op dispatch cost of the fast path, one run per DispatchMode
 * (arg 0 = switch, 1 = threaded). items_per_second is
 * retired instructions per second, so 1/items_per_second is the
 * amortized cost of dispatching one op under that mode.
 */
void
BM_DispatchPerOp(benchmark::State &state)
{
    auto mode = static_cast<vm::DispatchMode>(state.range(0));
    const ir::Module &m = workloads::workloadModule(bzip(), true);
    os::WorldSpec world = bzip().world(1);
    std::uint64_t instrs = 0;
    for (auto _ : state) {
        os::Kernel kernel(world);
        vm::MachineConfig cfg;
        cfg.dispatch = mode;
        vm::Machine machine(m, kernel, cfg);
        machine.run();
        instrs += machine.stats().instructions;
        benchmark::DoNotOptimize(machine.exitCode());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(instrs));
    state.SetLabel(vm::dispatchModeName(mode));
}
BENCHMARK(BM_DispatchPerOp)->Arg(0)->Arg(1);

void
BM_DualLockstep(benchmark::State &state)
{
    const ir::Module &m = workloads::workloadModule(bzip(), true);
    os::WorldSpec world = bzip().world(1);
    for (auto _ : state) {
        core::EngineConfig cfg;
        cfg.sinks = bzip().sinks;
        core::DualEngine engine(m, world, cfg);
        auto res = engine.run();
        benchmark::DoNotOptimize(res.alignedSyscalls);
    }
}
BENCHMARK(BM_DualLockstep);

void
BM_DualThreaded(benchmark::State &state)
{
    const ir::Module &m = workloads::workloadModule(bzip(), true);
    os::WorldSpec world = bzip().world(1);
    for (auto _ : state) {
        core::EngineConfig cfg;
        cfg.sinks = bzip().sinks;
        cfg.threaded = true;
        core::DualEngine engine(m, world, cfg);
        auto res = engine.run();
        benchmark::DoNotOptimize(res.alignedSyscalls);
    }
}
BENCHMARK(BM_DualThreaded);

void
BM_CompileWorkload(benchmark::State &state)
{
    for (auto _ : state) {
        auto module = lang::compileSource(bzip().source);
        benchmark::DoNotOptimize(module->numFunctions());
    }
}
BENCHMARK(BM_CompileWorkload);

void
BM_InstrumentPass(benchmark::State &state)
{
    for (auto _ : state) {
        state.PauseTiming();
        auto module = lang::compileSource(
            workloads::findWorkload("403.gcc")->source);
        state.ResumeTiming();
        instrument::CounterInstrumenter pass(*module);
        auto stats = pass.run();
        benchmark::DoNotOptimize(stats.insertedOps);
    }
}
BENCHMARK(BM_InstrumentPass);

void
BM_ChannelRoundtrip(benchmark::State &state)
{
    obs::Registry registry;
    obs::Scope scope(registry, nullptr);
    core::SyncChannel chan(scope);
    core::ThreadChannel &ch = chan.thread(0);
    std::int64_t cnt = 0;
    for (auto _ : state) {
        std::lock_guard<core::CountingMutex> lock(ch.mutex);
        ch.publishPos(0, {core::PosKind::Input, ++cnt, 1, 0});
        core::QueueEntry e;
        e.cnt = cnt;
        e.site = 1;
        ch.queue.push_back(e);
        ch.queue.pop_front();
        benchmark::DoNotOptimize(ch.pos[0].cnt);
    }
}
BENCHMARK(BM_ChannelRoundtrip);

void
BM_PosCellPublishRead(benchmark::State &state)
{
    core::PosCell cell;
    std::vector<std::int64_t> stack = {3, 7};
    std::vector<std::int64_t> scratch;
    core::Position p;
    std::int64_t cnt = 0;
    for (auto _ : state) {
        cell.publish({core::PosKind::Input, ++cnt, 1, 0}, stack);
        bool truncated = false;
        cell.read(p, scratch, truncated);
        benchmark::DoNotOptimize(p.cnt);
    }
}
BENCHMARK(BM_PosCellPublishRead);

} // namespace

BENCHMARK_MAIN();
