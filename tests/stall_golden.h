/**
 * @file
 * Stall-exactness cases: lockstep dual runs that spend almost all of
 * their driver rounds in frozen mutual waits, each ended by a
 * watchdog or lock-poll expiry. renderStallRun() turns everything
 * such a run leaves observable into canonical text — every registry
 * counter, gauge and histogram, both flight-recorder streams (with
 * timestamps and sequence numbers masked), the findings, the
 * divergence summary, and both sides' per-site stall profiles. Only the
 * driver's own bookkeeping of fast-forwarded rounds
 * (driver.idle_rounds_skipped) and the wall-clock gauge are left out:
 * the rendering of a run that fast-forwards its idle rounds must be
 * identical to the rendering of one that spins through them.
 *
 * tests/stall_golden_test.cc compares against
 * tests/data/stall_goldens.txt; tests/stall_golden_gen.cc writes that
 * file.
 */
#pragma once

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "fuzz/generator.h"
#include "instrument/instrument.h"
#include "lang/compiler.h"
#include "ldx/engine.h"
#include "obs/profiler.h"
#include "workloads/corpus/corpus.h"
#include "workloads/workloads.h"

namespace ldx::test::stall {

/**
 * A MiniC program whose slave takes a mutex the master never takes:
 * the master parks at its sink (a watchdog-guarded wait), the slave's
 * lock-order follow waits for an entry that never comes, and the
 * lock-poll budget (lockPollTimeout, half the stall budget) expires
 * first.
 */
inline const char *kLockStallSource = R"(
int main() {
    char key[4];
    getenv("KEY", key, 4);
    if (key[0] != 'b') {
        lock(1);
        unlock(1);
    }
    print("done", 4);
    return 0;
}
)";

/** One case: the program, its world, and the dual-run config. */
struct StallCase
{
    std::string name;
    const ir::Module *module = nullptr;
    std::shared_ptr<ir::Module> owned;
    os::WorldSpec world;
    core::EngineConfig cfg;
};

inline std::vector<std::string>
stallCaseNames()
{
    return {"xalancbmk_doc_xml", "s007_input",      "s061_input",
            "s092_input",        "lock_poll_expiry", "s092_input_legacy",
            "s007_input_jitter"};
}

/**
 * Build case @p name. Corpus cases are the campaign's query for the
 * source (whole-value mutation, the campaign's first policy, default
 * sinks, default budgets). The `_legacy` case runs the seed
 * interpreter's per-step path (predecode off); the `_jitter` case
 * gives the slave jittered slices, so its scheduler never repeats a
 * round and no idle round may be skipped.
 */
inline StallCase
stallCase(const std::string &name)
{
    StallCase c;
    c.name = name;
    c.cfg.strategy = core::MutationStrategy::OffByOne;
    auto corpus = [&c](const std::string &entry, const char *path) {
        for (const workloads::CorpusEntry &e :
             workloads::corpusEntries()) {
            if (e.name != entry)
                continue;
            c.owned = lang::compileSource(e.source);
            instrument::CounterInstrumenter pass(*c.owned);
            pass.run();
            c.module = c.owned.get();
            c.world = fuzz::ProgramGenerator::worldFor(e.seed);
        }
        c.cfg.sources = {core::SourceSpec::file(path).wholeValue()};
    };
    if (name == "xalancbmk_doc_xml") {
        const workloads::Workload *w =
            workloads::findWorkload("483.xalancbmk");
        c.module = &workloads::workloadModule(*w, true);
        c.world = w->world(w->defaultScale);
        c.cfg.sinks = w->sinks;
        c.cfg.sources = {
            core::SourceSpec::file("/doc.xml").wholeValue()};
    } else if (name == "s007_input") {
        corpus("s007", "/input.txt");
    } else if (name == "s061_input") {
        corpus("s061", "/input.txt");
    } else if (name == "s092_input") {
        corpus("s092", "/input.txt");
    } else if (name == "s092_input_legacy") {
        corpus("s092", "/input.txt");
        c.cfg.vmConfig.predecode = false;
    } else if (name == "s007_input_jitter") {
        corpus("s007", "/input.txt");
        c.cfg.slaveSchedSeedDelta = 1;
    } else if (name == "lock_poll_expiry") {
        c.owned = lang::compileSource(kLockStallSource);
        instrument::CounterInstrumenter pass(*c.owned);
        pass.run();
        c.module = c.owned.get();
        c.world.env["KEY"] = "b";
        c.cfg.sources = {core::SourceSpec::env("KEY")};
    }
    return c;
}

inline std::string
fmtDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

inline void
renderSites(std::string &out, const char *side,
            const obs::SiteCounters &s)
{
    // Only the stall columns: retired/syscall counts never see an idle
    // round and are pinned by the vm.* counters already.
    for (std::size_t f = 0; f < s.stallPolls.size(); ++f)
        for (std::size_t i = 0; i < s.stallPolls[f].size(); ++i)
            if (s.stallPolls[f][i])
                out += std::string("site ") + side + " " +
                       std::to_string(f) + ":" + std::to_string(i) +
                       " stall_polls=" +
                       std::to_string(s.stallPolls[f][i]) + "\n";
    for (const auto &[site, st] : s.gateStalls)
        out += std::string("gate ") + side + " " + std::to_string(site) +
               " episodes=" + std::to_string(st.episodes) +
               " polls=" + std::to_string(st.polls) +
               " expirations=" + std::to_string(st.expirations) + "\n";
}

/** Canonical text of one finished run (see the file comment). */
inline std::string
renderStallRun(const std::string &name, const core::DualResult &r,
               const obs::SiteCounters &master,
               const obs::SiteCounters &slave)
{
    std::string out = "case " + name + "\n";
    for (const auto &[k, v] : r.metrics.counters) {
        if (k == "driver.idle_rounds_skipped")
            continue;
        out += "counter " + k + " " + std::to_string(v) + "\n";
    }
    for (const auto &[k, v] : r.metrics.gauges) {
        if (k == "dual.wall_seconds")
            continue;
        out += "gauge " + k + " " + fmtDouble(v) + "\n";
    }
    for (const obs::HistogramSnapshot &h : r.metrics.histograms) {
        out += "histogram " + h.name + " count=" +
               std::to_string(h.count) + " sum=" + fmtDouble(h.sum) +
               " buckets=";
        for (std::size_t i = 0; i < h.counts.size(); ++i)
            out += (i ? "," : "") + std::to_string(h.counts[i]);
        out += "\n";
    }
    for (const core::Finding &f : r.findings)
        out += "finding " + f.describe() + "\n";
    out += std::string("deadlocked ") + (r.deadlocked ? "1" : "0") +
           "\n";
    out += "divergence " + r.divergence.outcome + " | " +
           r.divergence.summary() + "\n";
    for (int side = 0; side < 2; ++side) {
        out += "rec_total " + std::to_string(side) + " " +
               std::to_string(r.divergence.totalEvents[side]) + "\n";
        for (const obs::RecEvent &e : r.divergence.events[side])
            out += "rec " + std::to_string(side) + " " +
                   obs::recKindName(e.kind) +
                   " side=" + std::to_string(e.side) +
                   " tid=" + std::to_string(e.tid) +
                   " site=" + std::to_string(e.site) +
                   " cnt=" + std::to_string(e.cnt) +
                   " sys=" + std::to_string(e.sysNo) +
                   " arg=" + std::to_string(e.arg) + "\n";
    }
    renderSites(out, "master", master);
    renderSites(out, "slave", slave);
    out += "end\n";
    return out;
}

/**
 * Run case @p c (with site profiles on, which need predecode) and
 * render it.
 */
inline std::string
runStallCase(const StallCase &c, core::DualResult *result = nullptr)
{
    obs::SiteCounters master, slave;
    core::EngineConfig cfg = c.cfg;
    if (cfg.vmConfig.predecode) {
        cfg.masterSites = &master;
        cfg.slaveSites = &slave;
    }
    core::DualEngine engine(*c.module, c.world, cfg);
    core::DualResult r = engine.run();
    std::string text = renderStallRun(c.name, r, master, slave);
    if (result)
        *result = std::move(r);
    return text;
}

} // namespace ldx::test::stall
