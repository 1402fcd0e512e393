/**
 * @file
 * Shared pieces of the ldxbench binary: options, the op record
 * every workload returns, the span tracer of the traced run, and the
 * metric sink the JSON report is built from.
 *
 * Each workload is a closed loop over one fixed op list: the seed
 * sets the order (and any generated inputs), the op count is fixed
 * before the loop starts, and every op's output is checked. The
 * timed loop runs with tracing off; the traced run repeats the same
 * op list with spans recorded around the calls into each layer's
 * public functions.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ir/ir.h"
#include "obs/phase.h"
#include "obs/registry.h"
#include "os/world.h"
#include "support/prng.h"

namespace ldx::core {
struct DualResult;
}

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
double secondsSince(Clock::time_point t0);

/** Nanoseconds on the benchmark's own steady timeline. */
std::int64_t nowNs();

/** Convert an obs::nowUs() timestamp to the nowNs() timeline. */
std::int64_t obsUsToNs(std::int64_t us);

/** Command-line options of ldxbench. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    int seconds = 10;
    bool trace = false;
    /** Directory holding the golden corpus graphs. */
    std::string corpusDir = "src/workloads/corpus";
    /** Scratch directory (the daemon socket lives here). */
    std::string runDir = ".bench_build";
    /** Where the traced run writes its spans ("" = nowhere). */
    std::string traceOut;
};

/** What one op produced, beyond its latency. */
struct OpResult
{
    bool ok = false;
    std::string error;   ///< first failed check (ok == false)
    /** Op start to first verdict, seconds; < 0 when none arrived. */
    double firstVerdictSeconds = -1.0;
    std::uint64_t verdicts = 0;       ///< verdicts delivered
    std::uint64_t queriesPlanned = 0; ///< deterministic counts
    std::uint64_t dualExecutions = 0;
    std::uint64_t retiredInstrs = 0;
};

/** One completed span of the traced run. */
struct Span
{
    std::uint64_t op = 0; ///< op id shared by every span of one op
    int id = 0;
    int parent = -1;      ///< index into the span list; -1 = root
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
};

/**
 * In-memory span recorder. Spans nest through an open-span stack on
 * the calling thread; library-reported phases and run outcomes are
 * attached as children with their own timestamps. Everything stays
 * in memory until the report is written.
 */
class Tracer
{
  public:
    /** Start a new op; later spans carry its id. */
    void beginOp(std::uint64_t op);

    /** Open a span under the innermost open span. */
    int open(const std::string &name);
    void close(int id);

    /** Attach a completed child span under the innermost open span. */
    int attach(const std::string &name, std::int64_t start_ns,
               std::int64_t end_ns, int parent = -2);

    /**
     * Attach obs::PhaseSample children under @p parent, nesting them
     * by their recorded depth. Returns the span ids, parallel to
     * @p phases.
     */
    std::vector<int>
    attachPhases(const std::vector<ldx::obs::PhaseSample> &phases,
                 int parent);

    const std::vector<Span> &spans() const { return spans_; }

    /** Self time of every span: duration minus children's union. */
    std::vector<double> selfSeconds() const;

    /** Sum of self seconds of spans named @p name. */
    double selfTotal(const std::string &name) const;

    /** Durations (seconds) of spans named @p name, in order. */
    std::vector<double> durations(const std::string &name) const;

    /**
     * Per op with a root span named @p root: |sum of self times of
     * the op's spans - root duration| / root duration. Returns the
     * largest such share.
     */
    double maxSelfSumError(const std::string &root) const;

    /**
     * Write every span as one JSON line: op, id, parent, name,
     * start_us (on the run's steady timeline), dur_us and self_us.
     */
    void writeJsonl(const std::string &path) const;

  private:
    std::uint64_t op_ = 0;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII span; a no-op when the tracer is null. */
class SpanGuard
{
  public:
    SpanGuard(Tracer *tr, const std::string &name)
        : tr_(tr), id_(tr ? tr->open(name) : -1)
    {}
    ~SpanGuard()
    {
        if (tr_)
            tr_->close(id_);
    }
    SpanGuard(const SpanGuard &) = delete;
    SpanGuard &operator=(const SpanGuard &) = delete;

    int id() const { return id_; }

  private:
    Tracer *tr_;
    int id_;
};

/** One reported metric value. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** Ordered name -> metric map of one report section. */
using MetricMap = std::map<std::string, Metric>;

/** First op id of traced-only passes (never a timed op's id). */
constexpr std::uint64_t kAuxOp = std::uint64_t{1} << 32;

/** Compile and counter-instrument MiniC @p source, spanning each step. */
std::unique_ptr<ldx::ir::Module> compileInstrumented(const std::string &source,
                                                     Tracer *tr);

/**
 * Front-end rows: compile, instrument and predecode each of
 * @p sources once under spans and report the mean per program
 * (lang.compile_ms, instrument.run_ms, vm.predecode_ms).
 */
void frontEndRows(Tracer &tr, const std::vector<std::string> &sources,
                  MetricMap &out);

/** One program of the fixed generated pool (see generatorPool()). */
struct PoolProgram
{
    std::string name;   ///< "gen<seed>"
    std::string source; ///< MiniC text
    ldx::os::WorldSpec world; ///< env and files only
};

/**
 * Sixteen fuzz::ProgramGenerator programs from fixed seeds with socket
 * and thread features off, so each world fits in env/files (what an
 * inline serve job can carry). Shared by campaign-cold and
 * serve-mixed; the same for every benchmark seed.
 */
const std::vector<PoolProgram> &generatorPool();

/** Engine-reported tallies summed over dual runs (per-layer rows). */
struct DualTally
{
    std::uint64_t instrs = 0; ///< master + slave retired
    std::uint64_t syscalls = 0;
    std::uint64_t aligned = 0;
    std::uint64_t diffs = 0;
    std::uint64_t decouples = 0;
    std::uint64_t waitPolls = 0;
    std::uint64_t idleRounds = 0;
    double dualRunSeconds = 0.0; ///< "dual-run" phase total
    double stalledSeconds = 0.0; ///< run time of runs with idle rounds

    /** Add one run that took @p run_seconds. */
    void add(const ldx::core::DualResult &res, double run_seconds);

    /**
     * Emit vm.dual_minstr_per_s, vm.retired_instrs, os.syscalls, the
     * ldx.coupling.* counts, ldx.driver.idle_rounds and
     * ldx.driver.stalled_query_ms.
     */
    void emit(MetricMap &out) const;
};

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** Mean of @p v (0 when empty). */
double mean(const std::vector<double> &v);

/**
 * The tail rule: the highest of p75/p90/p95/p99/p99.9 that leaves at
 * least 10 samples beyond it (p50 when there are too few samples).
 */
double tailPercentile(std::size_t samples);

/** Nearest-rank percentile @p p (0..100) of @p v. */
double percentile(std::vector<double> v, double p);

/** One benchmark workload: set-up, a fixed op list, per-layer rows. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /**
     * Build every input the op list needs from scratch (front end,
     * worlds, daemon, warm set). Called again before the traced run
     * so that it starts from the same state as the timed loop.
     */
    virtual void setup() = 0;

    /** The fixed op list: one label (the program) per op. */
    virtual const std::vector<std::string> &opLabels() const = 0;

    /**
     * The untimed warm-up pass: each kind of op once, without using
     * up any op of the list. Returns the first failed check, or "".
     */
    virtual std::string warmup() = 0;

    /** Execute op @p i and check its output; @p tr may be null. */
    virtual OpResult runOp(std::size_t i, Tracer *tr) = 0;

    /**
     * After the traced loop: run the traced-only passes and emit the
     * per-layer metrics from the spans in @p tr. Failed output checks
     * of the traced-only passes go to @p errors.
     */
    virtual void perLayer(Tracer &tr, MetricMap &out,
                          std::vector<std::string> &errors) = 0;

    /** Stop anything setup() started (threads, the daemon). */
    virtual void teardown() {}
};

std::unique_ptr<Workload> makeDualWorkload(const Options &opt);
std::unique_ptr<Workload> makeCampaignWorkload(const Options &opt);
std::unique_ptr<Workload> makeServeWorkload(const Options &opt);

/**
 * Fisher-Yates shuffle of @p v driven by SplitMix64 seeded with
 * @p seed, so the op order is a pure function of the seed.
 */
template <typename T>
void
shuffleBySeed(std::vector<T> &v, std::uint64_t seed)
{
    ldx::Prng rng(seed * 0x9e3779b97f4a7c15ULL + 0x5bd1e995ULL);
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.below(i)]);
}

} // namespace perfbench
