/**
 * @file
 * The snapshot/fork byte-equality wall.
 *
 * The non-snapshot path is the oracle: for every workload, source,
 * and mutation policy, a forked suffix run (shared prefix executed
 * once by the group carrier, state captured at the mutated source's
 * first touch, remaining policies resumed from the snapshot) must be
 * indistinguishable from a full run — identical verdicts, identical
 * campaign graphs, identical recorder event order. These tests hold
 * that wall; src/ldx/snapshot.h documents the policy-independence
 * argument they check.
 *
 * Scoping (mirrors the fuzz oracle's fingerprint contract): under
 * the threaded driver with a multi-threaded guest, lock-order
 * sharing is best effort (§7), so alignment counts are dropped from
 * the comparison — verdict, findings, exits, and edges must still
 * match. Recorder event order is compared under the lockstep driver,
 * where per-side slow-path event streams are deterministic.
 */
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "instrument/instrument.h"
#include "lang/compiler.h"
#include "ldx/engine.h"
#include "ldx/snapshot.h"
#include "query/campaign.h"
#include "query/verdict.h"
#include "workloads/workloads.h"

namespace ldx {
namespace {

using workloads::Workload;

const std::vector<core::MutationStrategy> kPolicies = {
    core::MutationStrategy::OffByOne,
    core::MutationStrategy::Zero,
    core::MutationStrategy::BitFlip,
};

core::EngineConfig
baseConfig(const Workload &w, const core::SourceSpec &src,
           bool threaded)
{
    core::EngineConfig cfg;
    cfg.sinks = w.sinks;
    cfg.sources = {src};
    cfg.threaded = threaded;
    cfg.wallClockCap = 30.0;
    return cfg;
}

/**
 * Per-side recorder event streams, scoped to the semantic events:
 * syscall execute/copy/decouple, sink comparisons, counter
 * push/pop, lock-order events, mutations, outputs, thread
 * lifecycle, and traps. Rendezvous-scheduling diagnostics
 * (block/unblock, watchdog expiry, barrier pair/skip) record *when*
 * the peer advanced relative to a wait — the trigger pause holds
 * one side while the other catches up, so that phase alignment
 * legitimately shifts between a carrier/fork and a full run, while
 * each side's semantic stream must stay byte-identical in order and
 * payload. Wall-clock timestamps and ring sequence numbers are
 * likewise dropped (order is the line order).
 */
std::string
recorderTrace(const core::DualResult &res)
{
    if (!res.divergence.present)
        return "";
    std::ostringstream out;
    for (int side = 0; side < 2; ++side)
        for (const obs::RecEvent &e : res.divergence.events[side]) {
            switch (e.kind) {
            case obs::RecKind::Block:
            case obs::RecKind::Unblock:
            case obs::RecKind::WatchdogExpire:
            case obs::RecKind::BarrierPair:
            case obs::RecKind::BarrierSkip:
                continue;
            default:
                break;
            }
            out << side << ':' << obs::recKindName(e.kind) << ':'
                << int(e.side) << ':' << e.tid << ':' << e.site
                << ':' << e.cnt << ':' << e.sysNo << ':' << e.arg
                << '\n';
        }
    return out.str();
}

/** Zero the scheduling-sensitive tallies (threaded × threaded-guest
 *  comparisons keep everything else). */
query::QueryVerdict
withoutAlignment(query::QueryVerdict v)
{
    v.alignedSyscalls = 0;
    v.syscallDiffs = 0;
    return v;
}

struct RunPair
{
    query::QueryVerdict verdict;
    std::string recorder;
};

std::vector<RunPair>
fullRuns(const ir::Module &module, const os::WorldSpec &world,
         const core::EngineConfig &base)
{
    std::vector<RunPair> out;
    for (auto policy : kPolicies) {
        core::EngineConfig cfg = base;
        cfg.strategy = policy;
        core::DualEngine eng(module, world, cfg);
        core::DualResult res = eng.run();
        out.push_back({query::verdictFromResult(res),
                       recorderTrace(res)});
    }
    return out;
}

struct GroupOutcome
{
    std::vector<RunPair> runs;
    core::SnapshotGroupStats stats;
};

GroupOutcome
snapshotGroup(const ir::Module &module, const os::WorldSpec &world,
              const core::EngineConfig &base)
{
    GroupOutcome out;
    auto results =
        core::runSnapshotGroup(module, world, base, kPolicies,
                               out.stats);
    for (const auto &res : results)
        out.runs.push_back({query::verdictFromResult(res),
                            recorderTrace(res)});
    return out;
}

// ---------------------------------------------------------------
// The wall: every workload x {lockstep, threaded driver}. Forked
// verdicts (and, under lockstep, recorder event order) must equal
// the full-run oracle's for every policy of every source.
// ---------------------------------------------------------------

// The workload name is held as a std::string, not a const char *:
// gtest prints a pointer parameter with its address, and that text
// ends up in the discovered test name, which then changes per build.
class SnapshotWall
    : public ::testing::TestWithParam<std::tuple<std::string, bool>>
{};

TEST_P(SnapshotWall, ForksMatchFullRuns)
{
    const auto &[name, threaded] = GetParam();
    const Workload *w = workloads::findWorkload(name);
    ASSERT_NE(w, nullptr);
    const ir::Module &module = workloads::workloadModule(*w, true);
    os::WorldSpec world = w->world(w->defaultScale);
    const bool threaded_guest =
        w->source.find("spawn(") != std::string::npos;
    const bool weak = threaded && threaded_guest;

    for (const auto &src : w->sources) {
        SCOPED_TRACE("source " + src.resourceKey());
        core::EngineConfig base = baseConfig(*w, src, threaded);
        auto oracle = fullRuns(module, world, base);
        auto group = snapshotGroup(module, world, base);
        ASSERT_EQ(group.runs.size(), oracle.size());
        for (std::size_t i = 0; i < oracle.size(); ++i) {
            SCOPED_TRACE("policy " + std::to_string(i));
            if (weak) {
                EXPECT_EQ(withoutAlignment(group.runs[i].verdict),
                          withoutAlignment(oracle[i].verdict));
            } else {
                EXPECT_EQ(group.runs[i].verdict, oracle[i].verdict);
            }
            if (!threaded && !threaded_guest) {
                EXPECT_EQ(group.runs[i].recorder, oracle[i].recorder)
                    << "recorder event order diverged";
            }
        }
        if (group.stats.engaged) {
            EXPECT_EQ(group.stats.prefixRuns, 1u);
            EXPECT_EQ(group.stats.forks, kPolicies.size() - 1);
            EXPECT_EQ(group.stats.instrsSaved,
                      group.stats.prefixInstrs *
                          (kPolicies.size() - 1));
        }
    }
}

std::vector<std::tuple<std::string, bool>>
wallParams()
{
    std::vector<std::tuple<std::string, bool>> params;
    for (const Workload &w : workloads::allWorkloads()) {
        params.emplace_back(w.name, false);
        params.emplace_back(w.name, true);
    }
    return params;
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, SnapshotWall, ::testing::ValuesIn(wallParams()),
    [](const auto &info) {
        std::string n = std::get<0>(info.param);
        for (auto &c : n)
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return n + (std::get<1>(info.param) ? "_threaded"
                                            : "_lockstep");
    });

// ---------------------------------------------------------------
// Vulnerable workloads: the trigger must engage (their sources are
// always touched), and snapshotting must hold at every mutation
// offset — each offset is a different fork point payload, but the
// trigger site and the equality contract are offset-independent.
// ---------------------------------------------------------------

class SnapshotOffsets : public ::testing::TestWithParam<const char *>
{};

TEST_P(SnapshotOffsets, EveryOffsetForksEqualAndDeterministic)
{
    const Workload *w = workloads::findWorkload(GetParam());
    ASSERT_NE(w, nullptr);
    const ir::Module &module = workloads::workloadModule(*w, true);
    os::WorldSpec world = w->world(w->defaultScale);

    for (std::size_t off = 0; off < 6; ++off) {
        SCOPED_TRACE("offset " + std::to_string(off));
        core::SourceSpec src = w->sources.front();
        src.offset = off;
        core::EngineConfig base = baseConfig(*w, src, false);
        auto oracle = fullRuns(module, world, base);
        auto a = snapshotGroup(module, world, base);
        auto b = snapshotGroup(module, world, base);
        EXPECT_TRUE(a.stats.engaged);
        ASSERT_EQ(a.runs.size(), oracle.size());
        ASSERT_EQ(b.runs.size(), oracle.size());
        for (std::size_t i = 0; i < oracle.size(); ++i) {
            SCOPED_TRACE("policy " + std::to_string(i));
            EXPECT_EQ(a.runs[i].verdict, oracle[i].verdict);
            // Determinism: re-running the group reproduces the
            // verdict and the recorder stream byte-for-byte.
            EXPECT_EQ(a.runs[i].verdict, b.runs[i].verdict);
            EXPECT_EQ(a.runs[i].recorder, b.runs[i].recorder);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Vulnerable, SnapshotOffsets,
                         ::testing::Values("gif2png", "mp3info",
                                           "prozilla", "yopsweb",
                                           "ngircd", "gzip-alloc"),
                         [](const auto &info) {
                             std::string n = info.param;
                             for (auto &c : n)
                                 if (!isalnum(
                                         static_cast<unsigned char>(c)))
                                     c = '_';
                             return n;
                         });

// ---------------------------------------------------------------
// Dispatch modes: the snapshot contract is dispatch-independent
// (all modes retire the identical instruction stream).
// ---------------------------------------------------------------

TEST(SnapshotDispatch, ForksMatchAcrossDispatchModes)
{
    const Workload *w = workloads::findWorkload("mp3info");
    ASSERT_NE(w, nullptr);
    const ir::Module &module = workloads::workloadModule(*w, true);
    os::WorldSpec world = w->world(w->defaultScale);

    for (vm::DispatchMode mode :
         {vm::DispatchMode::Switch, vm::DispatchMode::Threaded}) {
        SCOPED_TRACE(vm::dispatchModeName(mode));
        core::EngineConfig base =
            baseConfig(*w, w->sources.front(), false);
        base.vmConfig.dispatch = mode;
        auto oracle = fullRuns(module, world, base);
        auto group = snapshotGroup(module, world, base);
        EXPECT_TRUE(group.stats.engaged);
        for (std::size_t i = 0; i < oracle.size(); ++i) {
            EXPECT_EQ(group.runs[i].verdict, oracle[i].verdict);
            EXPECT_EQ(group.runs[i].recorder, oracle[i].recorder);
        }
    }
}

// ---------------------------------------------------------------
// Campaign-level wall: graph JSON and DOT are byte-identical
// between snapshot on and off, and (snapshot on) across worker
// counts; the snapshot metrics meet the S-prefix-runs contract.
// ---------------------------------------------------------------

query::CampaignResult
runCampaign(const Workload &w, bool snapshot, int jobs)
{
    query::CampaignConfig cfg;
    cfg.sinks = w.sinks;
    cfg.snapshot = snapshot;
    cfg.jobs = jobs;
    return query::runCampaign(workloads::workloadModule(w, true),
                              w.world(w.defaultScale), cfg);
}

class SnapshotCampaign : public ::testing::TestWithParam<const char *>
{};

TEST_P(SnapshotCampaign, GraphsByteIdenticalOnVsOff)
{
    const Workload *w = workloads::findWorkload(GetParam());
    ASSERT_NE(w, nullptr);

    query::CampaignResult off = runCampaign(*w, false, 1);
    query::CampaignResult on1 = runCampaign(*w, true, 1);
    query::CampaignResult on8 = runCampaign(*w, true, 8);

    EXPECT_EQ(off.graph.toJson(), on1.graph.toJson());
    EXPECT_EQ(off.graph.toDot(), on1.graph.toDot());
    EXPECT_EQ(on1.graph.toJson(), on8.graph.toJson());
    EXPECT_EQ(on1.graph.toDot(), on8.graph.toDot());

    // One prefix run per queryable source; every remaining policy is
    // a fork; the executed dual-prefix instruction count drops by at
    // least 2x against the full-run path (here exactly P x).
    std::size_t sources = off.baseline.queryableSources().size();
    EXPECT_EQ(on1.snapshotPrefixRuns, sources);
    EXPECT_EQ(on8.snapshotPrefixRuns, sources);
    EXPECT_EQ(on1.snapshotForks,
              sources * (query::CampaignConfig{}.policies.size() - 1));
    EXPECT_GT(off.prefixInstrs, 0u);
    EXPECT_GE(off.prefixInstrs, 2 * on1.prefixInstrs);
}

INSTANTIATE_TEST_SUITE_P(Workloads, SnapshotCampaign,
                         ::testing::Values("gif2png", "mp3info",
                                           "ngircd", "tnftp"),
                         [](const auto &info) {
                             std::string n = info.param;
                             for (auto &c : n)
                                 if (!isalnum(
                                         static_cast<unsigned char>(c)))
                                     c = '_';
                             return n;
                         });

// ---------------------------------------------------------------
// Virtual-time regression: the kernels' nondeterminism cursors
// (virtual clock queries, RDTSC/random PRNG positions, sys-latency
// instruction ticks) are part of the snapshot. A fork that reset
// them would hand the suffix different clock/rdtsc values than a
// full run's and diverge at the console sink.
// ---------------------------------------------------------------

TEST(SnapshotVirtualTime, CursorsSurviveFork)
{
    // The kernel's virtual time is clockBase + clockQueries * step +
    // instrTicks / 10000, and rdtsc is instrTicks * 3 + a PRNG draw
    // (os::Kernel::now); virtualSyscallCost itself is a pure function
    // of (sysNo, outcome), so the mutable state a fork must carry is
    // exactly the instruction ticks, the clock-query count, and the
    // PRNG cursors. The prefix burns instructions in a loop and
    // advances every cursor; the suffix (after the env-var source's
    // first touch) reads them all again and prints the raw values.
    // A fork that reset any cursor prints different numbers than the
    // full run and diverges at the console sink.
    const char *source = R"(
int acc;
char scratch[32];

int main() {
    int i = 0;
    while (i < 20000) { acc = acc + i; i = i + 1; }
    int a = time();
    int b = rdtsc();
    acc = acc + (random() & 127);
    char ev[16];
    getenv("MODE", ev, 15);
    int c = time();
    int d = rdtsc();
    int e = random() & 127;
    itoa(a, scratch); print(scratch, strlen(scratch));
    itoa(b, scratch); print(scratch, strlen(scratch));
    itoa(c, scratch); print(scratch, strlen(scratch));
    itoa(d, scratch); print(scratch, strlen(scratch));
    itoa(e + acc + ev[0], scratch); print(scratch, strlen(scratch));
    return 0;
}
)";
    auto module = lang::compileSource(source);
    instrument::CounterInstrumenter pass(*module);
    pass.run();
    os::WorldSpec world;
    world.env["MODE"] = "fast";

    core::EngineConfig base;
    base.sources = {core::SourceSpec::env("MODE")};
    base.wallClockCap = 30.0;

    auto oracle = fullRuns(*module, world, base);
    auto group = snapshotGroup(*module, world, base);
    EXPECT_TRUE(group.stats.engaged);
    EXPECT_GT(group.stats.prefixInstrs, 0u);
    ASSERT_EQ(group.runs.size(), oracle.size());
    for (std::size_t i = 0; i < oracle.size(); ++i) {
        SCOPED_TRACE("policy " + std::to_string(i));
        EXPECT_EQ(group.runs[i].verdict, oracle[i].verdict);
        EXPECT_EQ(group.runs[i].recorder, oracle[i].recorder);
    }
}

} // namespace
} // namespace ldx
