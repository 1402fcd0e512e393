/**
 * @file
 * Interpreter throughput: retired instructions per second on the
 * legacy per-step dispatch path vs the predecoded fast path, for the
 * single-VM instrumented run and for full dual execution under both
 * drivers. The instruction counts themselves must not move — only the
 * wall clock does — so each row also cross-checks that legacy and
 * fast retire the same number of instructions.
 *
 * Emits BENCH_interp.json for run-over-run diffing.
 */
#include <algorithm>
#include <iostream>

#include "bench_util.h"
#include "obs/profiler.h"
#include "support/table.h"

using namespace ldx;

namespace {

struct Sample
{
    double seconds = 0.0;
    std::uint64_t instructions = 0;
    double yields = 0.0;
    double backoffNs = 0.0;

    double
    minstrPerSec() const
    {
        return seconds > 0.0
                   ? static_cast<double>(instructions) / seconds / 1e6
                   : 0.0;
    }
};

/** Single-VM instrumented run on one dispatch path. */
Sample
runSingle(const workloads::Workload &w, int scale, bool predecode)
{
    const ir::Module &m = workloads::workloadModule(w, true);
    Sample s;
    s.seconds = bench::timeSeconds([&] {
        os::Kernel kernel(w.world(scale));
        vm::MachineConfig cfg;
        cfg.predecode = predecode;
        vm::Machine machine(m, kernel, cfg);
        machine.run();
        s.instructions = machine.stats().instructions;
    });
    return s;
}

/** Single-VM instrumented run under one fast-path dispatch mode. */
Sample
runSingleMode(const workloads::Workload &w, int scale,
              vm::DispatchMode mode)
{
    const ir::Module &m = workloads::workloadModule(w, true);
    Sample s;
    s.seconds = bench::timeSeconds([&] {
        os::Kernel kernel(w.world(scale));
        vm::MachineConfig cfg;
        cfg.dispatch = mode;
        vm::Machine machine(m, kernel, cfg);
        machine.run();
        s.instructions = machine.stats().instructions;
    });
    return s;
}

/**
 * Single-VM fast run with per-site profiling enabled. Paired with
 * the profiling-off row to pin the profiler's two costs: the off
 * configuration must be within noise of free (the counter fetch is
 * compiled into a separate template instantiation), and the on
 * configuration must stay a small constant factor.
 */
Sample
runSingleProfiled(const workloads::Workload &w, int scale)
{
    const ir::Module &m = workloads::workloadModule(w, true);
    Sample s;
    s.seconds = bench::timeSeconds([&] {
        os::Kernel kernel(w.world(scale));
        obs::SiteCounters sites;
        vm::MachineConfig cfg;
        cfg.siteProfile = &sites;
        vm::Machine machine(m, kernel, cfg);
        machine.run();
        s.instructions = machine.stats().instructions;
    });
    return s;
}

/** Lockstep dual run with both sides on one dispatch mode. */
Sample
runDualMode(const workloads::Workload &w, int scale,
            vm::DispatchMode mode)
{
    Sample s;
    s.seconds = bench::timeSeconds([&] {
        core::EngineConfig cfg;
        cfg.sinks = w.sinks;
        cfg.wallClockCap = 60.0;
        cfg.vmConfig.dispatch = mode;
        core::DualEngine engine(workloads::workloadModule(w, true),
                                w.world(scale), cfg);
        core::DualResult res = engine.run();
        s.instructions = res.masterStats.instructions +
                         res.slaveStats.instructions;
    });
    return s;
}

/**
 * Dynamic opcode-pair frequencies of one instrumented run (legacy
 * per-step path, so every retired instruction is observed), folded
 * into @p table (kNumOpcodes x kNumOpcodes row-major).
 */
void
profilePairs(const workloads::Workload &w, int scale,
             std::vector<std::uint64_t> &table)
{
    os::Kernel kernel(w.world(scale));
    vm::MachineConfig cfg;
    cfg.pairProfile = table.data();
    vm::Machine machine(workloads::workloadModule(w, true), kernel,
                        cfg);
    machine.run();
}

/** Dual run (both sides on one dispatch path), counting both VMs. */
Sample
runDualTimed(const workloads::Workload &w, int scale, bool predecode,
             bool threaded, bool recorder = true)
{
    Sample s;
    s.seconds = bench::timeSeconds([&] {
        core::EngineConfig cfg;
        cfg.sinks = w.sinks;
        cfg.threaded = threaded;
        cfg.wallClockCap = 60.0;
        cfg.vmConfig.predecode = predecode;
        cfg.flightRecorder = recorder;
        core::DualEngine engine(workloads::workloadModule(w, true),
                                w.world(scale), cfg);
        core::DualResult res = engine.run();
        s.instructions = res.masterStats.instructions +
                         res.slaveStats.instructions;
        s.yields = res.metrics.counterOr("driver.yields");
        s.backoffNs = res.metrics.counterOr("driver.backoff_ns");
    });
    return s;
}

std::string
sampleJson(const Sample &s)
{
    std::string out = "{\"seconds\":" + obs::jsonNumber(s.seconds);
    out += ",\"instructions\":" + std::to_string(s.instructions);
    out += ",\"minstr_per_sec\":" + obs::jsonNumber(s.minstrPerSec());
    out += '}';
    return out;
}

} // namespace

int
main()
{
    std::cout << "== Interpreter throughput: legacy vs predecoded ==\n\n";

    std::vector<std::string> programs = {"401.bzip2", "456.hmmer",
                                         "462.libquantum", "429.mcf"};

    TextTable table({"Program", "Minstr", "legacy Mi/s", "fast Mi/s",
                     "speedup", "dual-lk x", "dual-thr x", "rec ovh"});
    TextTable dispatch_table({"Program", "switch Mi/s", "threaded Mi/s",
                              "single x", "dual-sw Mi/s",
                              "dual-thr Mi/s", "dual x"});
    RunningStats speedups, recorder_overheads, profiler_overheads;
    RunningStats dispatch_speedups, dual_dispatch_speedups;
    std::string rows_json;
    std::vector<std::uint64_t> pair_table(
        static_cast<std::size_t>(ir::kNumOpcodes) *
            static_cast<std::size_t>(ir::kNumOpcodes),
        0);

    for (const std::string &name : programs) {
        const workloads::Workload *w = workloads::findWorkload(name);
        if (!w) {
            std::cerr << "[bench] unknown workload " << name << "\n";
            continue;
        }
        workloads::workloadModule(*w, true); // warm the module cache

        // Grow the scale until the legacy run is long enough to time.
        int scale = w->defaultScale * 4;
        Sample legacy = runSingle(*w, scale, false);
        while (legacy.seconds < 0.05 && scale < 256) {
            scale *= 2;
            legacy = runSingle(*w, scale, false);
        }
        Sample fast = runSingle(*w, scale, true);
        Sample prof_on = runSingleProfiled(*w, scale);
        if (prof_on.instructions != fast.instructions) {
            std::cerr << "[bench] MISMATCH " << name
                      << ": profiled run retired "
                      << prof_on.instructions
                      << " instructions, unprofiled " << fast.instructions
                      << " — profiling changed execution\n";
            return 1;
        }
        if (legacy.instructions != fast.instructions) {
            std::cerr << "[bench] MISMATCH " << name
                      << ": legacy retired " << legacy.instructions
                      << " instructions, fast " << fast.instructions
                      << " — dispatch paths diverged\n";
            return 1;
        }

        // The dual rows run with the flight recorder on (the engine
        // default); the rec-off row isolates its cost, which must be
        // within noise of free.
        Sample dl_legacy = runDualTimed(*w, scale, false, false);
        Sample dl_fast = runDualTimed(*w, scale, true, false);
        Sample dl_norec =
            runDualTimed(*w, scale, true, false, /*recorder=*/false);
        Sample dt_legacy = runDualTimed(*w, scale, false, true);
        Sample dt_fast = runDualTimed(*w, scale, true, true);

        // Dispatch-mode A/B on the same build: the retired count must
        // not move, only the wall clock. The dual rows are the paper's
        // operating point (lockstep dual, recorder on).
        Sample m_switch =
            runSingleMode(*w, scale, vm::DispatchMode::Switch);
        Sample m_threaded =
            runSingleMode(*w, scale, vm::DispatchMode::Threaded);
        if (m_switch.instructions != fast.instructions ||
            m_threaded.instructions != fast.instructions) {
            std::cerr << "[bench] MISMATCH " << name
                      << ": dispatch modes retired different "
                         "instruction counts\n";
            return 1;
        }
        Sample dm_switch =
            runDualMode(*w, scale, vm::DispatchMode::Switch);
        Sample dm_threaded =
            runDualMode(*w, scale, vm::DispatchMode::Threaded);
        if (dm_switch.instructions != dm_threaded.instructions) {
            std::cerr << "[bench] MISMATCH " << name
                      << ": dual dispatch modes retired different "
                         "instruction counts\n";
            return 1;
        }
        double mode_speedup =
            m_threaded.minstrPerSec() / m_switch.minstrPerSec();
        double dual_mode_speedup =
            dm_threaded.minstrPerSec() / dm_switch.minstrPerSec();
        dispatch_speedups.add(mode_speedup);
        dual_dispatch_speedups.add(dual_mode_speedup);
        dispatch_table.addRow(
            {name, formatDouble(m_switch.minstrPerSec(), 1),
             formatDouble(m_threaded.minstrPerSec(), 1),
             formatDouble(mode_speedup, 2) + "x",
             formatDouble(dm_switch.minstrPerSec(), 1),
             formatDouble(dm_threaded.minstrPerSec(), 1),
             formatDouble(dual_mode_speedup, 2) + "x"});

        // Opcode-pair frequencies (docs/PERFORMANCE.md); the default
        // scale keeps the slow legacy observation pass cheap.
        profilePairs(*w, w->defaultScale, pair_table);

        double speedup = fast.minstrPerSec() / legacy.minstrPerSec();
        double dl_speedup = dl_legacy.seconds / dl_fast.seconds;
        double dt_speedup = dt_legacy.seconds / dt_fast.seconds;
        double rec_overhead = dl_norec.seconds > 0.0
                                  ? dl_fast.seconds / dl_norec.seconds
                                  : 1.0;
        double prof_overhead = fast.seconds > 0.0
                                   ? prof_on.seconds / fast.seconds
                                   : 1.0;
        speedups.add(speedup);
        recorder_overheads.add(rec_overhead);
        profiler_overheads.add(prof_overhead);

        table.addRow(
            {name,
             formatDouble(static_cast<double>(legacy.instructions) /
                              1e6,
                          1),
             formatDouble(legacy.minstrPerSec(), 1),
             formatDouble(fast.minstrPerSec(), 1),
             formatDouble(speedup, 2) + "x",
             formatDouble(dl_speedup, 2) + "x",
             formatDouble(dt_speedup, 2) + "x",
             formatDouble(rec_overhead, 3) + "x"});

        if (!rows_json.empty())
            rows_json += ',';
        rows_json += "{\"name\":" + obs::jsonString(name);
        rows_json += ",\"scale\":" + std::to_string(scale);
        rows_json += ",\"single_legacy\":" + sampleJson(legacy);
        rows_json += ",\"single_fast\":" + sampleJson(fast);
        rows_json += ",\"dual_lockstep_legacy\":" + sampleJson(dl_legacy);
        rows_json += ",\"dual_lockstep_fast\":" + sampleJson(dl_fast);
        rows_json +=
            ",\"dual_lockstep_fast_norec\":" + sampleJson(dl_norec);
        rows_json +=
            ",\"recorder_overhead\":" + obs::jsonNumber(rec_overhead);
        rows_json += ",\"single_profiled\":" + sampleJson(prof_on);
        rows_json +=
            ",\"profiler_overhead\":" + obs::jsonNumber(prof_overhead);
        rows_json += ",\"dual_threaded_legacy\":" + sampleJson(dt_legacy);
        rows_json += ",\"dual_threaded_fast\":" + sampleJson(dt_fast);
        rows_json += ",\"single_switch\":" + sampleJson(m_switch);
        rows_json += ",\"single_threaded\":" + sampleJson(m_threaded);
        rows_json += ",\"dual_lockstep_switch\":" + sampleJson(dm_switch);
        rows_json +=
            ",\"dual_lockstep_threaded\":" + sampleJson(dm_threaded);
        rows_json +=
            ",\"dispatch_speedup\":" + obs::jsonNumber(mode_speedup);
        rows_json += ",\"dual_dispatch_speedup\":" +
                     obs::jsonNumber(dual_mode_speedup);
        rows_json += ",\"speedup\":" + obs::jsonNumber(speedup);
        rows_json +=
            ",\"dual_threaded_yields\":" + obs::jsonNumber(dt_fast.yields);
        rows_json += ",\"dual_threaded_backoff_ns\":" +
                     obs::jsonNumber(dt_fast.backoffNs);
        rows_json += '}';
    }

    table.print(std::cout);
    std::cout << "\nGeomean single-VM speedup: "
              << formatDouble(speedups.geomean(), 2) << "x\n";
    std::cout << "Geomean flight-recorder overhead (dual lockstep, "
                 "on/off): "
              << formatDouble(recorder_overheads.geomean(), 3)
              << "x\n";
    std::cout << "Geomean site-profiler overhead (single fast, "
                 "on/off): "
              << formatDouble(profiler_overheads.geomean(), 3)
              << "x\n";

    std::cout << "\n== Dispatch modes (switch vs threaded, "
              << (vm::hasThreadedDispatch() ? "computed goto available"
                                            : "SWITCH-ONLY BUILD")
              << ") ==\n\n";
    dispatch_table.print(std::cout);
    std::cout << "\nGeomean threaded vs switch: single-VM "
              << formatDouble(dispatch_speedups.geomean(), 2)
              << "x, lockstep dual "
              << formatDouble(dual_dispatch_speedups.geomean(), 2)
              << "x\n";

    // The dynamic pair profile, most frequent first.
    struct PairCount
    {
        ir::Opcode a, b;
        std::uint64_t count;
    };
    std::vector<PairCount> pairs;
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(ir::kNumOpcodes); ++i)
        for (std::size_t j = 0;
             j < static_cast<std::size_t>(ir::kNumOpcodes); ++j)
            if (std::uint64_t c = pair_table
                    [i * static_cast<std::size_t>(ir::kNumOpcodes) + j])
                pairs.push_back({static_cast<ir::Opcode>(i),
                                 static_cast<ir::Opcode>(j), c});
    std::sort(pairs.begin(), pairs.end(),
              [](const PairCount &x, const PairCount &y) {
                  return x.count > y.count;
              });
    std::uint64_t pair_total = 0;
    for (const PairCount &p : pairs)
        pair_total += p.count;
    std::cout << "\n== Hottest dynamic opcode pairs (all programs, "
                 "default scale) ==\n\n";
    std::string pairs_json;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        const PairCount &p = pairs[i];
        if (i < 20) {
            std::cout << "  " << ir::opcodeName(p.a) << " -> "
                      << ir::opcodeName(p.b) << ": " << p.count << " ("
                      << formatDouble(100.0 *
                                          static_cast<double>(p.count) /
                                          static_cast<double>(
                                              pair_total),
                                      1)
                      << "%)\n";
        }
        if (i < 32) {
            if (!pairs_json.empty())
                pairs_json += ',';
            pairs_json += "{\"a\":";
            pairs_json += obs::jsonString(ir::opcodeName(p.a));
            pairs_json += ",\"b\":";
            pairs_json += obs::jsonString(ir::opcodeName(p.b));
            pairs_json += ",\"count\":" + std::to_string(p.count);
            pairs_json += '}';
        }
    }

    std::string blob = "{\"bench\":\"interp_throughput\"";
    blob += ",\"programs\":[" + rows_json + ']';
    blob += ",\"speedup\":" + bench::statsJson(speedups);
    blob += ",\"recorder_overhead\":" +
            bench::statsJson(recorder_overheads);
    blob += ",\"profiler_overhead\":" +
            bench::statsJson(profiler_overheads);
    blob += std::string(",\"dispatch_supported\":") +
            (vm::hasThreadedDispatch() ? "true" : "false");
    blob += ",\"dispatch_speedup\":" +
            bench::statsJson(dispatch_speedups);
    blob += ",\"dual_dispatch_speedup\":" +
            bench::statsJson(dual_dispatch_speedups);
    blob += ",\"opcode_pairs\":[" + pairs_json + ']';
    blob += '}';
    bench::writeBenchBlob("interp", blob);
    return 0;
}
