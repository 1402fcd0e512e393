#include "bench.h"
#include "fuzz/generator.h"
#include "instrument/instrument.h"
#include "lang/compiler.h"
#include "vm/predecode.h"

namespace perfbench {

std::unique_ptr<ldx::ir::Module>
compileInstrumented(const std::string &source, Tracer *tr)
{
    std::unique_ptr<ldx::ir::Module> module;
    {
        SpanGuard g(tr, "lang.compile");
        module = ldx::lang::compileSource(source);
    }
    SpanGuard g(tr, "instrument.run");
    ldx::instrument::CounterInstrumenter pass(*module);
    pass.run();
    return module;
}

const std::vector<PoolProgram> &
generatorPool()
{
    // Seed 2 is left out: its campaign spends 0.2-0.3 s in lockstep
    // idle rounds, the stall path campaign-cold already measures with
    // 483.xalancbmk, and would swamp serve-mixed's cold jobs.
    static const std::vector<PoolProgram> pool = [] {
        ldx::fuzz::GenOptions gen;
        gen.wSocketOut = 0;
        gen.wSocketIn = 0;
        gen.wThreads = 0;
        std::vector<PoolProgram> out;
        for (std::uint64_t seed = 1; out.size() < 16; ++seed) {
            if (seed == 2)
                continue;
            ldx::os::WorldSpec full =
                ldx::fuzz::ProgramGenerator::worldFor(seed);
            PoolProgram p;
            p.name = "gen" + std::to_string(seed);
            p.source = ldx::fuzz::ProgramGenerator(seed, gen).generate();
            p.world.env = full.env;
            p.world.files = full.files;
            out.push_back(std::move(p));
        }
        return out;
    }();
    return pool;
}

void
frontEndRows(Tracer &tr, const std::vector<std::string> &sources,
             MetricMap &out)
{
    std::uint64_t op = kAuxOp;
    for (const std::string &src : sources) {
        tr.beginOp(op++);
        SpanGuard root(&tr, "frontend");
        std::unique_ptr<ldx::ir::Module> module =
            compileInstrumented(src, &tr);
        SpanGuard g(&tr, "vm.predecode");
        ldx::vm::PredecodedModule decoded(*module);
        decoded.decodeAll();
    }
    out["lang.compile_ms"] = {mean(tr.durations("lang.compile")) * 1e3,
                              "ms"};
    out["instrument.run_ms"] = {
        mean(tr.durations("instrument.run")) * 1e3, "ms"};
    out["vm.predecode_ms"] = {mean(tr.durations("vm.predecode")) * 1e3,
                              "ms"};
}

} // namespace perfbench
