/**
 * @file
 * dual-lockstep — the `ldx dual` path. One op constructs a
 * core::DualEngine for one of the Table 2 mutation cases (every
 * Workload::mutationCases entry of the 28 built-ins) and runs it the
 * way `ldx dual` does: default scale, lockstep driver, flight recorder
 * on. The op list holds every case the same number of times, so the
 * mix is identical for every seed; the seed sets the order.
 */
#include <map>

#include "bench.h"
#include "ldx/engine.h"
#include "os/kernel.h"
#include "vm/machine.h"
#include "workloads/workloads.h"

namespace perfbench {
namespace {

using namespace ldx;

/**
 * Passes per --seconds. A pass runs every case once and the slowest,
 * 456.hmmer, kTailCaseRuns times; it takes about 80 ms on a 4-core
 * x86-64 host (Release build). At --seconds 20 that is 9,520 ops,
 * below the 10,000 at which the tail rule would move from p99 to
 * p99.9, so the tail rank lies in the upper sixth of 456.hmmer's
 * cluster (6% of the ops): it reads the cluster's slower runs rather
 * than its few slowest, and not the edge where it meets faster cases.
 */
constexpr int kPassesPerSecond = 14;
constexpr const char *kTailCase = "456.hmmer";
constexpr int kTailCaseRuns = 2;

/**
 * Passes over the cases in each traced-only pass (native baseline,
 * kernel builds, recorder off, threaded driver). One re-run per op
 * would spend about 50 s in the threaded driver's 5 ms polls alone.
 */
constexpr int kAuxPasses = 20;

struct Case
{
    const workloads::Workload *workload;
    const workloads::MutationCase *mc;
    std::size_t program; ///< index into programs_
};

struct Program
{
    const workloads::Workload *workload;
    std::unique_ptr<ir::Module> module; ///< instrumented
    os::WorldSpec world;
};

class DualWorkload : public Workload
{
  public:
    explicit DualWorkload(const Options &opt)
    {
        const std::vector<workloads::Workload> &all =
            workloads::allWorkloads();
        for (std::size_t w = 0; w < all.size(); ++w)
            for (const workloads::MutationCase &mc : all[w].mutationCases)
                cases_.push_back({&all[w], &mc, w});
        for (int p = 0; p < opt.seconds * kPassesPerSecond; ++p)
            for (std::size_t c = 0; c < cases_.size(); ++c)
                ops_.insert(ops_.end(),
                            cases_[c].workload->name == kTailCase
                                ? kTailCaseRuns
                                : 1,
                            c);
        shuffleBySeed(ops_, opt.seed);
        for (std::size_t c : ops_)
            labels_.push_back(caseLabel(c));
    }

    void
    setup() override
    {
        programs_.clear();
        for (const workloads::Workload &w : workloads::allWorkloads())
            programs_.push_back({&w, compileInstrumented(w.source, nullptr),
                                 w.world(w.defaultScale)});
    }

    const std::vector<std::string> &
    opLabels() const override
    {
        return labels_;
    }

    std::string
    warmup() override
    {
        std::string error;
        for (const Case &c : cases_)
            if (!checkCase(c, runCase(c, false, true, nullptr), error))
                break;
        return error;
    }

    OpResult
    runOp(std::size_t i, Tracer *tr) override
    {
        Clock::time_point t0 = Clock::now();
        const Case &c = cases_[ops_[i]];
        core::DualResult res = runCase(c, false, true, tr);
        OpResult r;
        r.firstVerdictSeconds = secondsSince(t0);
        r.verdicts = 1;
        r.queriesPlanned = 1;
        r.dualExecutions = 1;
        r.retiredInstrs =
            res.masterStats.instructions + res.slaveStats.instructions;
        r.ok = checkCase(c, res, r.error);
        if (tr) {
            tally_.add(res, lastRunSeconds_);
            for (const obs::PhaseSample &p : res.phases)
                if (p.depth == 0)
                    phases_[p.name].push_back(p.seconds);
        }
        return r;
    }

    void
    perLayer(Tracer &tr, MetricMap &out,
             std::vector<std::string> &errors) override
    {
        std::vector<std::string> sources;
        for (const Program &p : programs_)
            sources.push_back(p.workload->source);
        frontEndRows(tr, sources, out);

        // Engine, interpreter, kernel and coupling rows from the
        // traced loop's DualResults.
        tally_.emit(out);
        out["ldx.engine.setup_ms"] = {mean(phases_["setup"]) * 1e3, "ms"};
        out["ldx.engine.run_ms"] = {mean(phases_["dual-run"]) * 1e3, "ms"};
        out["ldx.engine.verdict_ms"] = {mean(phases_["verdict"]) * 1e3,
                                        "ms"};
        std::vector<double> self = tr.selfSeconds();
        std::vector<double> unphased;
        for (const Span &s : tr.spans())
            if (s.name == "ldx.engine.run")
                unphased.push_back(self[static_cast<std::size_t>(s.id)]);
        out["ldx.engine.unphased_ms"] = {mean(unphased) * 1e3, "ms"};
        tally_ = {};
        phases_.clear();

        // Traced-only passes: every case kAuxPasses times. The flight
        // recorder's cost is the paired difference of back-to-back
        // runs with it on and off.
        std::vector<std::vector<double>> on(cases_.size()),
            off(cases_.size());
        std::uint64_t op = kAuxOp + programs_.size();
        double native_s = 0.0;
        std::uint64_t native_instrs = 0;
        std::vector<double> threaded, backoff;
        for (std::size_t k = 0; k < kAuxPasses * cases_.size(); ++k) {
            const std::size_t c = k % cases_.size();
            const Case &cs = cases_[c];
            const Program &p = programs_[cs.program];
            tr.beginOp(op++);
            {
                // The paper's baseline: the uninstrumented program.
                const ir::Module &native =
                    workloads::workloadModule(*cs.workload, false);
                os::Kernel kernel(p.world);
                vm::Machine m(native, kernel, {});
                std::int64_t t0 = nowNs();
                m.run();
                native_s += static_cast<double>(nowNs() - t0) * 1e-9;
                tr.attach("vm.native", t0, nowNs(), -1);
                native_instrs += m.stats().instructions;
            }
            {
                // The engine builds one kernel per side.
                SpanGuard g(&tr, "os.kernel_build");
                os::Kernel master(p.world);
                os::Kernel slave(p.world);
            }
            runCase(cs, false, true, nullptr);
            on[c].push_back(lastRunSeconds_);
            core::DualResult quiet = runCase(cs, false, false, nullptr);
            off[c].push_back(lastRunSeconds_);
            std::string err;
            if (!checkCase(cs, quiet, err))
                errors.push_back(err);
            core::DualResult thr = runCase(cs, true, true, nullptr);
            threaded.push_back(lastRunSeconds_);
            backoff.push_back(static_cast<double>(thr.metrics.counterOr(
                                  "driver.backoff_ns")) *
                              1e-9);
            if (!checkCase(cs, thr, err))
                errors.push_back("threaded " + err);
        }
        out["vm.native_minstr_per_s"] = {
            static_cast<double>(native_instrs) / native_s / 1e6,
            "Minstr/s"};
        out["os.kernel_build_ms"] = {
            median(tr.durations("os.kernel_build")) * 1e3, "ms"};
        std::vector<double> fixed;
        for (std::size_t c = 0; c < cases_.size(); ++c)
            fixed.push_back(median(on[c]) - median(off[c]));
        out["obs.recorder.fixed_ms"] = {mean(fixed) * 1e3, "ms"};
        out["ldx.driver.threaded_run_p50_ms"] = {median(threaded) * 1e3,
                                                 "ms"};
        out["ldx.driver.backoff_ms"] = {mean(backoff) * 1e3, "ms"};
    }

  private:
    std::string
    caseLabel(std::size_t c) const
    {
        return cases_[c].workload->name + "/" + cases_[c].mc->label;
    }

    core::DualResult
    runCase(const Case &c, bool threaded, bool recorder, Tracer *tr)
    {
        const Program &p = programs_[c.program];
        core::EngineConfig cfg;
        cfg.sinks = c.workload->sinks;
        cfg.sources = c.mc->sources;
        cfg.threaded = threaded;
        cfg.flightRecorder = recorder;
        int span = tr ? tr->open("ldx.engine.run") : -1;
        std::int64_t t0 = nowNs();
        core::DualEngine engine(*p.module, p.world, cfg);
        core::DualResult res = engine.run();
        lastRunSeconds_ = static_cast<double>(nowNs() - t0) * 1e-9;
        if (tr) {
            tr->close(span);
            tr->attachPhases(res.phases, span);
        }
        return res;
    }

    bool
    checkCase(const Case &c, const core::DualResult &res,
              std::string &error) const
    {
        if (res.deadlocked)
            error = caseLabel(&c - cases_.data()) + " deadlocked";
        else if (res.causality() != c.mc->expectLeak)
            error = caseLabel(&c - cases_.data()) + ": causality " +
                    (res.causality() ? "detected" : "missed") +
                    " against ground truth";
        return error.empty();
    }

    std::vector<Case> cases_;
    std::vector<std::size_t> ops_; ///< case index per op
    std::vector<std::string> labels_;
    std::vector<Program> programs_;
    double lastRunSeconds_ = 0.0;
    DualTally tally_; ///< traced loop
    std::map<std::string, std::vector<double>> phases_; ///< traced loop
};

} // namespace

std::unique_ptr<Workload>
makeDualWorkload(const Options &opt)
{
    return std::make_unique<DualWorkload>(opt);
}

} // namespace perfbench
