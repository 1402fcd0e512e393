#include "fuzz/oracle.h"

#include <algorithm>
#include <sstream>

#include "instrument/instrument.h"
#include "lang/compiler.h"
#include "ldx/snapshot.h"
#include "os/kernel.h"
#include "support/diag.h"

namespace ldx::fuzz {

std::string
CellSpec::name() const
{
    std::string s = threaded ? "threaded" : "lockstep";
    s += predecode ? "/fast" : "/slow";
    s += recorder ? "/rec" : "/norec";
    s += mutate ? "/mut" : "/clean";
    return s;
}

std::string
Violation::describe() const
{
    return "seed " + std::to_string(seed) + " [" + cell + "] " +
           invariant + ": " + detail;
}

std::vector<CellSpec>
Oracle::matrix(bool full)
{
    std::vector<CellSpec> cells;
    if (full) {
        for (int t = 0; t < 2; ++t)
            for (int p = 0; p < 2; ++p)
                for (int r = 0; r < 2; ++r)
                    for (int m = 0; m < 2; ++m)
                        cells.push_back({t == 1, p == 0, r == 0,
                                         m == 1});
        return cells;
    }
    // Quick diagonal: both drivers x both mutation settings, fast
    // path, recorder on — the cheapest set that still crosses the
    // driver axis.
    for (int t = 0; t < 2; ++t)
        for (int m = 0; m < 2; ++m)
            cells.push_back({t == 1, true, true, m == 1});
    return cells;
}

Oracle::Oracle(OracleOptions opt)
    : opt_(opt)
{}

std::vector<core::SourceSpec>
Oracle::sourcesFor(std::uint64_t seed) const
{
    std::vector<core::SourceSpec> sources;
    if (opt_.mutationSources >= 1)
        sources.push_back(
            core::SourceSpec::file("/input.txt", seed % 16));
    if (opt_.mutationSources >= 2)
        sources.push_back(core::SourceSpec::peer("feed.example.com"));
    if (opt_.mutationSources >= 3)
        sources.push_back(core::SourceSpec::env("FUZZ"));
    return sources;
}

namespace {

/**
 * The cross-cell identity fingerprint: everything the protocol
 * promises to keep independent of driver, decode path, and recorder.
 * Timing (wall seconds, poll/backoff counters) is deliberately
 * absent.
 *
 * For multi-threaded guests (@p threads) the alignment counts are
 * also dropped: lock-order sharing is best effort (§7) — barrier and
 * copy waits perturb each side's green-thread interleaving
 * differently, so a contended mutex may or may not record an order
 * divergence depending on the driver and, under the threaded driver,
 * the OS schedule. The protocol's promise there is weaker and
 * exactly what remains: same verdict, same findings, same exits.
 */
std::string
fingerprint(const core::DualResult &res, bool threads)
{
    std::ostringstream out;
    out << "causality=" << (res.causality() ? 1 : 0)
        << " deadlocked=" << (res.deadlocked ? 1 : 0);
    if (!threads) {
        out << " aligned=" << res.alignedSyscalls
            << " diffs=" << res.syscallDiffs
            << " slaveSys=" << res.totalSlaveSyscalls
            << " barriers=" << res.barrierPairings;
    }
    out << " mexit=" << res.masterExit << " sexit=" << res.slaveExit
        << " mtrap=" << (res.masterTrapped ? 1 : 0)
        << " strap=" << (res.slaveTrapped ? 1 : 0);
    std::vector<std::string> finds;
    finds.reserve(res.findings.size());
    for (const core::Finding &f : res.findings)
        finds.push_back(f.describe());
    std::sort(finds.begin(), finds.end());
    for (const std::string &f : finds)
        out << "\n  finding: " << f;
    return out.str();
}

} // namespace

SeedReport
Oracle::run(std::uint64_t seed) const
{
    ProgramGenerator gen(seed, opt_.gen);
    return runSource(seed, gen.generate());
}

SeedReport
Oracle::runSource(std::uint64_t seed, const std::string &source) const
{
    SeedReport rep;
    rep.seed = seed;
    rep.source = source;

    std::unique_ptr<ir::Module> module;
    try {
        module = lang::compileSource(source);
    } catch (const FatalError &) {
        return rep; // compiled stays false; shrinker rejects
    }
    rep.compiled = true;

    // Multi-threaded guests get the weaker §7 contract (see
    // fingerprint()); detection by source is exact because the
    // generator only ever emits "spawn(" for thread units.
    const bool threads = source.find("spawn(") != std::string::npos;

    auto fail = [&](const std::string &cell,
                    const std::string &invariant,
                    const std::string &detail) {
        rep.violations.push_back({seed, cell, invariant, detail});
    };

    try {

    instrument::CounterInstrumenter pass(*module);
    pass.run();
    std::int64_t fcntMain = pass.fcnt().at(module->mainFunction());

    os::WorldSpec world = ProgramGenerator::worldFor(seed);

    // Native instrumented runs, one per decode path: finish + the
    // final-counter invariant, and identical exit codes across paths.
    std::int64_t nativeExit[2] = {0, 0};
    for (int p = 0; p < 2; ++p) {
        const char *cell = p == 0 ? "native/fast" : "native/slow";
        vm::MachineConfig mc;
        mc.predecode = p == 0;
        mc.maxInstructions = opt_.maxInstructions;
        mc.chaosSkipCntAddPeriod = opt_.chaosSkipCntAddPeriod;
        os::Kernel kernel(world);
        vm::Machine machine(*module, kernel, mc);
        vm::StepStatus st = machine.run();
        if (st != vm::StepStatus::Finished) {
            fail(cell, "native-finishes",
                 machine.trap() ? machine.trap()->message
                                : "did not finish");
            continue;
        }
        nativeExit[p] = machine.exitCode();
        std::int64_t cnt = machine.context(0).cnt;
        if (cnt != fcntMain)
            fail(cell, "final-counter",
                 "final cnt " + std::to_string(cnt) +
                     " != FCNT(main) " + std::to_string(fcntMain));
    }
    if (nativeExit[0] != nativeExit[1])
        fail("native", "decode-path-exit",
             "fast exit " + std::to_string(nativeExit[0]) +
                 " != slow exit " + std::to_string(nativeExit[1]));

    // Dual cells. Fingerprints are compared within each mutation
    // group against the group's first cell.
    std::vector<core::SourceSpec> sources = sourcesFor(seed);
    std::string groupPrint[2];
    std::string groupCell[2];
    bool groupSeen[2] = {false, false};

    auto runCell = [&](const CellSpec &cell) {
        core::EngineConfig cfg;
        cfg.threaded = cell.threaded;
        cfg.vmConfig.predecode = cell.predecode;
        cfg.vmConfig.maxInstructions = opt_.maxInstructions;
        cfg.vmConfig.chaosSkipCntAddPeriod =
            opt_.chaosSkipCntAddPeriod;
        cfg.flightRecorder = cell.recorder;
        cfg.wallClockCap = opt_.cellWallCap;
        if (cell.mutate)
            cfg.sources = sources;
        core::DualEngine engine(*module, world, cfg);
        return engine.run();
    };

    auto checkCell = [&](const CellSpec &cell,
                         const core::DualResult &res) {
        std::string name = cell.name();
        bool bad = false;
        if (res.deadlocked) {
            fail(name, "terminates", "dual execution deadlocked");
            bad = true;
        }
        if (res.masterTrapped || res.slaveTrapped) {
            fail(name, "trap-free",
                 res.masterTrapped ? "master trapped: " +
                                         res.masterTrapMessage
                                   : "slave trapped: " +
                                         res.slaveTrapMessage);
            bad = true;
        }
        if (!cell.mutate) {
            // Zero diffs on clean runs — except that a contended
            // mutex may record a lock-order divergence (§7 sharing is
            // best effort); every clean-run diff must be one.
            std::uint64_t lock_div =
                res.metrics.counterOr("lock.order_diverged");
            if (res.syscallDiffs != (threads ? lock_div : 0)) {
                fail(name, "clean-aligns",
                     std::to_string(res.syscallDiffs) +
                         " syscall diffs on a clean run (" +
                         std::to_string(lock_div) +
                         " lock-order divergences)");
                bad = true;
            }
            if (res.causality()) {
                fail(name, "clean-no-findings",
                     "false positive: " +
                         res.findings.front().describe());
                bad = true;
            }
        }
        int g = cell.mutate ? 1 : 0;
        std::string print = fingerprint(res, threads);
        if (!groupSeen[g]) {
            groupSeen[g] = true;
            groupPrint[g] = print;
            groupCell[g] = name;
        } else if (print != groupPrint[g]) {
            fail(name, "cross-cell-identity",
                 "fingerprint differs from " + groupCell[g] +
                     "\n--- " + groupCell[g] + "\n" + groupPrint[g] +
                     "\n--- " + name + "\n" + print);
            bad = true;
        }
        if (bad && !rep.hasFailingResult && cell.recorder) {
            rep.failingResult = res;
            rep.hasFailingResult = true;
            rep.failingCell = name;
        }
    };

    for (const CellSpec &cell : matrix(opt_.fullMatrix))
        checkCell(cell, runCell(cell));

    if (opt_.checkSnapshot && !sources.empty()) {
        // Snapshot/fork equality: every policy resumed from the
        // shared-prefix snapshot must fingerprint identically to the
        // same policy run in full (the full run is the oracle;
        // docs/CAMPAIGN.md "Snapshot/fork execution"). The *last*
        // mutated source is the trigger — generated programs touch
        // /input.txt first and the env var last, so with
        // mutationSources = 3 the shared prefix spans most of the
        // program and actually has state worth capturing.
        // chaosDropSnapshotPage corrupts the fork's slave restore, so
        // with it armed this is the invariant that is *expected* to
        // fire.
        core::EngineConfig base;
        base.vmConfig.predecode = true;
        base.vmConfig.maxInstructions = opt_.maxInstructions;
        base.vmConfig.chaosSkipCntAddPeriod =
            opt_.chaosSkipCntAddPeriod;
        base.wallClockCap = opt_.cellWallCap;
        base.sources = {sources.back()};
        const std::vector<core::MutationStrategy> pols = {
            core::MutationStrategy::OffByOne,
            core::MutationStrategy::Zero,
            core::MutationStrategy::BitFlip,
        };
        core::SnapshotGroupStats gs;
        std::vector<core::DualResult> forked = core::runSnapshotGroup(
            *module, world, base, pols, gs,
            opt_.chaosDropSnapshotPage);
        for (std::size_t i = 0; i < pols.size(); ++i) {
            core::EngineConfig cfg = base;
            cfg.strategy = pols[i];
            core::DualEngine full_eng(*module, world, cfg);
            core::DualResult full = full_eng.run();
            std::string want = fingerprint(full, threads);
            std::string got = fingerprint(forked[i], threads);
            if (got == want)
                continue;
            std::string name =
                std::string("snapshot/") +
                core::mutationStrategyName(pols[i]);
            fail(name, "snapshot-equality",
                 "forked run differs from full run\n--- full\n" +
                     want + "\n--- forked\n" + got);
            if (!rep.hasFailingResult) {
                rep.failingResult = forked[i];
                rep.hasFailingResult = true;
                rep.failingCell = name;
            }
        }
    }

    if (opt_.checkDeterminism) {
        // Same cell twice: the fingerprint must reproduce exactly.
        CellSpec cell{true, true, true, !sources.empty()};
        std::string a = fingerprint(runCell(cell), threads);
        std::string b = fingerprint(runCell(cell), threads);
        if (a != b)
            fail(cell.name(), "run-determinism",
                 "two identical runs disagree\n--- first\n" + a +
                     "\n--- second\n" + b);
    }

    } catch (const FatalError &) {
        // A shrink candidate can drop every syscall, in which case
        // the instrumenter inserts nothing and DualEngine rejects
        // the module. Treat it like a compile failure: the candidate
        // is invalid, not a new bug.
        rep.compiled = false;
        rep.violations.clear();
    }

    return rep;
}

} // namespace ldx::fuzz
