/**
 * @file
 * fuzz::Oracle — the differential-testing harness of the fuzzing
 * subsystem (docs/FUZZING.md).
 *
 * For one seed the oracle compiles the generated program once and
 * executes it across the engine's config matrix
 *
 *     {LockstepDriver, ThreadedDriver}
 *   x {predecode, slow-path}
 *   x {flight recorder on, off}
 *   x {no mutation, N mutated sources}
 *
 * plus one native (non-dual) instrumented run per decode path, and
 * asserts the paper's invariants:
 *
 *  - native: the run finishes and the final counter equals
 *    FCNT(main) on both decode paths (the instrumentation
 *    invariant, Alg. 1);
 *  - clean cells: zero syscall diffs, zero findings, no deadlock —
 *    the coupling fully suppresses nondeterminism (zero false
 *    positives, §5);
 *  - mutated cells: termination without deadlock or trap;
 *  - cross-cell: every cell with the same mutation setting produces
 *    an identical result fingerprint (verdict, finding set, syscall
 *    diff/alignment counts, exits) regardless of driver, decode
 *    path, or recorder — the axes are observability/performance
 *    knobs and must not change semantics;
 *  - determinism: re-running a cell reproduces its fingerprint
 *    byte-for-byte.
 *
 * Violations carry the offending cell and a human-readable detail;
 * the first violating cell's DualResult (with its DivergenceReport)
 * is kept for artifact dumps.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/generator.h"
#include "ldx/engine.h"
#include "ldx/report.h"

namespace ldx::fuzz {

/** One cell of the dual-execution config matrix. */
struct CellSpec
{
    bool threaded = false;  ///< ThreadedDriver vs LockstepDriver
    bool predecode = true;  ///< fast path vs seed interpreter
    bool recorder = true;   ///< flight recorder on/off
    bool mutate = false;    ///< mutated sources vs clean

    /** Stable slug, e.g. "threaded/fast/rec/mut". */
    std::string name() const;
};

/** Oracle configuration. */
struct OracleOptions
{
    GenOptions gen;

    /**
     * Mutated sources in mutated cells: 1 = /input.txt (offset
     * seed % 16), 2 adds the feed peer's responses, 3 adds the FUZZ
     * env var.
     */
    int mutationSources = 1;

    /** Full 16-cell matrix, or the 4-cell quick diagonal. */
    bool fullMatrix = true;

    /** Re-run one cell and require an identical fingerprint. */
    bool checkDeterminism = true;

    /** Per-cell wall-clock cap (seconds). */
    double cellWallCap = 30.0;

    /**
     * Per-side instruction budget. Generated programs retire a few
     * thousand instructions; the low cap turns a hypothetical
     * runaway candidate (shrinker) into a fast trap.
     */
    std::uint64_t maxInstructions = 50'000'000;

    /**
     * Fault-injection passthrough: skip every Nth CntAdd in both
     * sides' VMs (vm::MachineConfig::chaosSkipCntAddPeriod). Used to
     * prove the oracle catches a real engine bug (see
     * tests/fuzz_test.cc and `ldx fuzz --inject-skip-cnt`).
     */
    std::uint64_t chaosSkipCntAddPeriod = 0;

    /**
     * Fault-injection passthrough: drop the Nth dirty 4096-byte page
     * from every snapshot fork's slave-memory restore — the planted
     * stale-snapshot bug (vm::Memory::restore). Dirty pages are
     * counted over the image's backed extent (stack slots the guest
     * never touched are not backed), so which seed first catches the
     * bug depends on how much stack the prefix touched.
     * Used to prove the snapshot-equality oracle catches a fork that
     * resumes from incomplete state (see tests/snapshot_test.cc and
     * `ldx fuzz --inject-drop-snapshot-page`).
     */
    std::uint64_t chaosDropSnapshotPage = 0;

    /**
     * Check the snapshot/fork invariant: for the seed's last mutated
     * source (the one touched deepest into the program), each policy
     * run forked from the shared-prefix snapshot must fingerprint
     * identically to the same policy run in full.
     */
    bool checkSnapshot = true;
};

/** One invariant violation. */
struct Violation
{
    std::uint64_t seed = 0;
    std::string cell;      ///< cell slug or "native/fast" etc.
    std::string invariant; ///< stable id, e.g. "clean-no-findings"
    std::string detail;

    /** One-line rendering for logs/artifacts. */
    std::string describe() const;
};

/** Everything the oracle learned about one seed. */
struct SeedReport
{
    std::uint64_t seed = 0;
    std::string source;     ///< the program that was checked
    bool compiled = false;  ///< false = sema/parse error (no cells run)
    std::vector<Violation> violations;

    /**
     * DualResult of the first violating dual cell (recorder forced
     * on), for divergence-report artifacts. Unset when the failure
     * was native-only or a compile error.
     */
    core::DualResult failingResult;
    bool hasFailingResult = false;
    std::string failingCell;

    bool ok() const { return compiled && violations.empty(); }
};

/** The differential oracle. */
class Oracle
{
  public:
    explicit Oracle(OracleOptions opt = {});

    /** Generate the program for @p seed and check it. */
    SeedReport run(std::uint64_t seed) const;

    /**
     * Check an explicit program against @p seed's world and mutation
     * plan. Used by the shrinker (candidate programs) and by
     * `ldx fuzz --replay <file>`. A program that fails to compile
     * yields compiled=false and no violations.
     */
    SeedReport runSource(std::uint64_t seed,
                         const std::string &source) const;

    /** The cell list for a matrix flavour. */
    static std::vector<CellSpec> matrix(bool full);

    /** The mutation plan for @p seed (see OracleOptions). */
    std::vector<core::SourceSpec> sourcesFor(std::uint64_t seed) const;

    const OracleOptions &options() const { return opt_; }

  private:
    OracleOptions opt_;
};

} // namespace ldx::fuzz
