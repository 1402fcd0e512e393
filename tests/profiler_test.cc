/**
 * @file
 * Guest-level profiler tests: the determinism contract (profile JSON,
 * flamegraph stacks, and annotated listings are byte-identical across
 * drivers, dispatch modes, and — for the campaign heat map — worker
 * counts and cache states), the master-vs-slave diff attribution on
 * the vulnerable workloads, the SiteCounters container semantics, and
 * the report formats themselves.
 */
#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "instrument/instrument.h"
#include "lang/compiler.h"
#include "ldx/engine.h"
#include "obs/profiler.h"
#include "query/campaign.h"
#include "query/profile.h"
#include "support/diag.h"
#include "vm/predecode.h"
#include "workloads/workloads.h"

namespace ldx {
namespace {

using workloads::Workload;

/** All three deterministic profiler artifacts of one dual run. */
struct Artifacts
{
    std::string report;
    std::string flame;
    std::string annotate;
    std::uint64_t masterRetired = 0;
    std::uint64_t slaveRetired = 0;
};

/**
 * Dual-execute @p w with site profiling under the given driver and
 * dispatch mode and render the deterministic artifacts. When
 * @p wholeValue, every byte of each source is perturbed (the
 * campaign default) instead of the workload's single exploit byte.
 */
Artifacts
profileWorkload(const Workload &w, bool threaded,
                vm::DispatchMode mode, bool wholeValue = false)
{
    const ir::Module &module = workloads::workloadModule(w, true);
    auto decoded = std::make_shared<vm::PredecodedModule>(module);
    decoded->decodeAll();

    core::EngineConfig cfg;
    cfg.sinks = w.sinks;
    cfg.sources = w.sources;
    if (wholeValue)
        for (core::SourceSpec &src : cfg.sources)
            src.offset = core::SourceSpec::kWholeValue;
    cfg.threaded = threaded;
    cfg.vmConfig.dispatch = mode;
    cfg.vmConfig.predecoded = decoded;
    cfg.flightRecorder = false;

    obs::SiteCounters master, slave;
    cfg.masterSites = &master;
    cfg.slaveSites = &slave;

    core::DualEngine engine(module, w.world(w.defaultScale), cfg);
    engine.run();

    obs::ProfileMeta meta =
        vm::buildProfileMeta(*decoded, w.name, w.source);
    Artifacts a;
    a.report = obs::profileReportJson(meta, master, &slave, {});
    a.flame = obs::collapsedStacks(meta, master);
    a.annotate = obs::annotateSource(meta, master, &slave);
    a.masterRetired = master.totalRetired();
    a.slaveRetired = slave.totalRetired();
    return a;
}

// ---------------------------------------------------------------------
// SiteCounters container semantics
// ---------------------------------------------------------------------

TEST(SiteCounters, ShapeMergeAndTotals)
{
    obs::SiteCounters a;
    EXPECT_FALSE(a.shaped());
    a.shape({3, 2});
    EXPECT_TRUE(a.shaped());
    ASSERT_EQ(a.retired.size(), 2u);
    EXPECT_EQ(a.retired[0].size(), 3u);
    EXPECT_EQ(a.retired[1].size(), 2u);
    EXPECT_EQ(a.callEdges.size(), 4u);
    EXPECT_EQ(a.rootCalls.size(), 2u);

    // Idempotent for the same program shape.
    a.shape({3, 2});

    a.retired[0][1] = 5;
    a.syscalls[1][0] = 2;
    a.callEdges[1] = 7;
    a.gateStalls[3].episodes = 1;

    obs::SiteCounters b;
    b.shape({3, 2});
    b.retired[0][1] = 10;
    b.gateStalls[3].polls = 4;
    b.merge(a);
    EXPECT_EQ(b.retired[0][1], 15u);
    EXPECT_EQ(b.syscalls[1][0], 2u);
    EXPECT_EQ(b.callEdges[1], 7u);
    EXPECT_EQ(b.gateStalls[3].episodes, 1u);
    EXPECT_EQ(b.gateStalls[3].polls, 4u);
    EXPECT_EQ(b.totalRetired(), 15u);

    // One instance belongs to one program: reshaping is a bug.
    EXPECT_THROW(a.shape({4, 2}), PanicError);
}

// ---------------------------------------------------------------------
// Determinism: drivers and dispatch modes, whole corpus
// ---------------------------------------------------------------------

class ProfilerDeterminism
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

/**
 * The deterministic artifacts are byte-identical across the lockstep
 * and threaded drivers and across dispatch modes — per-site retired
 * counts are protocol state, like the verdict itself.
 */
TEST_P(ProfilerDeterminism, ArtifactsByteIdenticalAcrossConfigs)
{
    const Workload &w = workload();
    Artifacts ref =
        profileWorkload(w, false, vm::DispatchMode::Threaded);
    EXPECT_GT(ref.masterRetired, 0u);

    Artifacts sw = profileWorkload(w, false, vm::DispatchMode::Switch);
    EXPECT_EQ(ref.report, sw.report);
    EXPECT_EQ(ref.flame, sw.flame);
    EXPECT_EQ(ref.annotate, sw.annotate);

    Artifacts thr_driver =
        profileWorkload(w, true, vm::DispatchMode::Threaded);
    EXPECT_EQ(ref.report, thr_driver.report);
    EXPECT_EQ(ref.flame, thr_driver.flame);
    EXPECT_EQ(ref.annotate, thr_driver.annotate);
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
    Corpus, ProfilerDeterminism,
    ::testing::ValuesIn(allWorkloadNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

// ---------------------------------------------------------------------
// Master-vs-slave diff attribution on the vulnerable workloads
// ---------------------------------------------------------------------

class ProfilerDiff : public ::testing::TestWithParam<std::string>
{};

/**
 * A whole-value mutation of each vulnerable workload's exploit input
 * changes what the slave does; the report's diff section must
 * localize that causal footprint. The six workloads fall into three
 * genuinely different divergence classes, asserted per workload:
 *
 *  - syscall-level (prozilla, ngircd, gzip-alloc): the mutation
 *    gates I/O, so a diffed site is a syscall instruction;
 *  - parser-level (gif2png, mp3info): the broken header check makes
 *    the slave skip the vulnerable parser entirely, but the
 *    workload's syscalls all precede the check — the diff localizes
 *    to the parser's body instead;
 *  - value-only (yopsweb): the guest path is identical on both
 *    sides and only the overflowed ret-token bytes differ, so the
 *    site diff is empty (the attack is still caught, at the sink).
 */
TEST_P(ProfilerDiff, AttackLocalizesToDiffSites)
{
    const Workload *w = workloads::findWorkload(GetParam());
    ASSERT_NE(w, nullptr);
    Artifacts a = profileWorkload(*w, false, vm::DispatchMode::Threaded,
                                  /*wholeValue=*/true);

    std::size_t diff = a.report.find("\"diff\":[");
    ASSERT_NE(diff, std::string::npos);

    if (GetParam() == "yopsweb") {
        EXPECT_EQ(a.masterRetired, a.slaveRetired);
        EXPECT_NE(a.report.find("\"diff\":[]", diff),
                  std::string::npos);
        return;
    }

    // The sides executed different site multisets, and the diff
    // pinpoints where.
    EXPECT_NE(a.masterRetired, a.slaveRetired);
    EXPECT_NE(a.report.find("\"master_retired\":", diff),
              std::string::npos);

    if (GetParam() == "gif2png" || GetParam() == "mp3info") {
        const char *fn = GetParam() == "gif2png"
                             ? "\"fn\":\"parseComment\""
                             : "\"fn\":\"readTitle\"";
        EXPECT_NE(a.report.find(fn, diff), std::string::npos);
    } else {
        EXPECT_NE(a.report.find("\"op\":\"syscall\"", diff),
                  std::string::npos);
    }
}

std::vector<std::string>
vulnerableNames()
{
    std::vector<std::string> names;
    for (const Workload *w :
         workloads::workloadsIn(workloads::Category::Vulnerable))
        names.push_back(w->name);
    return names;
}

INSTANTIATE_TEST_SUITE_P(
    Vulnerable, ProfilerDiff, ::testing::ValuesIn(vulnerableNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

// ---------------------------------------------------------------------
// Report formats
// ---------------------------------------------------------------------

const char *kProfProgram = R"(
int leaky(int x) {
    if (x > 48) { print("hi", 2); }
    return x + 1;
}

int main() {
    char secret[8];
    getenv("SECRET", secret, 8);
    int acc = 0;
    int i = 0;
    while (i < 10) {
        acc = acc + leaky(secret[0]);
        i = i + 1;
    }
    char out[8];
    itoa(acc, out);
    print(out, strlen(out));
    return 0;
}
)";

/** Compile + instrument + profile the inline test program. */
struct InlineRun
{
    std::unique_ptr<ir::Module> module;
    std::shared_ptr<vm::PredecodedModule> decoded;
    obs::SiteCounters master, slave;
    obs::ProfileMeta meta;
};

std::unique_ptr<InlineRun>
runInline(const char *source)
{
    auto run = std::make_unique<InlineRun>();
    run->module = lang::compileSource(source);
    instrument::CounterInstrumenter pass(*run->module);
    pass.run();
    run->decoded =
        std::make_shared<vm::PredecodedModule>(*run->module);
    run->decoded->decodeAll();

    core::EngineConfig cfg;
    cfg.sources = {core::SourceSpec::env("SECRET")};
    cfg.vmConfig.predecoded = run->decoded;
    cfg.flightRecorder = false;
    cfg.masterSites = &run->master;
    cfg.slaveSites = &run->slave;
    os::WorldSpec world;
    world.env["SECRET"] = "abc";
    core::DualEngine engine(*run->module, world, cfg);
    engine.run();
    run->meta =
        vm::buildProfileMeta(*run->decoded, "inline.mc", source);
    return run;
}

TEST(ProfileReport, SchemaTotalsAndTopSites)
{
    auto run = runInline(kProfProgram);
    obs::ProfileReportOptions opt;
    opt.topSites = 3;
    std::string json = obs::profileReportJson(run->meta, run->master,
                                              &run->slave, opt);
    EXPECT_NE(json.find("\"schema\":\"ldx-profile-v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"program\":\"inline.mc\""),
              std::string::npos);
    EXPECT_NE(json.find("\"totals\":{\"retired\":"),
              std::string::npos);
    EXPECT_NE(json.find("\"slave_totals\":"), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"leaky\""), std::string::npos);
    EXPECT_NE(json.find("\"call_edges\":["), std::string::npos);
    // Stalls are driver-dependent and excluded by default.
    EXPECT_EQ(json.find("\"stalls\""), std::string::npos);
    std::string with_stalls = obs::profileReportJson(
        run->meta, run->master, &run->slave,
        {.topSites = 3, .includeStalls = true});
    EXPECT_NE(with_stalls.find("\"stalls\""), std::string::npos);
}

TEST(ProfileReport, FlamegraphStacksRootedAndCounted)
{
    auto run = runInline(kProfProgram);
    std::string flame =
        obs::collapsedStacks(run->meta, run->master);
    ASSERT_FALSE(flame.empty());
    // leaky's dominant caller chain is main -> leaky.
    EXPECT_NE(flame.find("main;leaky;"), std::string::npos);
    // Every line is `stack count\n` with a positive count. Sites
    // with a source location carry the op@line:col label;
    // instrumentation ops (cnt.*) legitimately have none.
    std::size_t pos = 0;
    int located = 0;
    while (pos < flame.size()) {
        std::size_t nl = flame.find('\n', pos);
        ASSERT_NE(nl, std::string::npos);
        std::string line = flame.substr(pos, nl - pos);
        std::size_t sp = line.rfind(' ');
        ASSERT_NE(sp, std::string::npos) << line;
        EXPECT_GT(std::stoull(line.substr(sp + 1)), 0u) << line;
        if (line.find('@') != std::string::npos)
            ++located;
        pos = nl + 1;
    }
    EXPECT_GT(located, 0);
}

TEST(ProfileReport, AnnotatedListingCarriesSourceAndDeltas)
{
    auto run = runInline(kProfProgram);
    std::string ann =
        obs::annotateSource(run->meta, run->master, &run->slave);
    EXPECT_NE(ann.find("# ldx profile: inline.mc"),
              std::string::npos);
    // Source text survives verbatim; hot lines carry counts.
    EXPECT_NE(ann.find("while (i < 10)"), std::string::npos);
    EXPECT_NE(ann.find("acc = acc + leaky(secret[0]);"),
              std::string::npos);
}

// ---------------------------------------------------------------------
// Campaign heat map
// ---------------------------------------------------------------------

const ir::Module &
heatModule()
{
    static std::unique_ptr<ir::Module> module = [] {
        auto m = lang::compileSource(kProfProgram);
        instrument::CounterInstrumenter pass(*m);
        pass.run();
        return m;
    }();
    return *module;
}

std::string
heatMap(int jobs, bool threaded, const std::string &cacheDir)
{
    query::CampaignConfig cfg;
    cfg.jobs = jobs;
    cfg.threaded = threaded;
    cfg.siteProfile = true;
    cfg.cacheDir = cacheDir;
    auto decoded =
        std::make_shared<vm::PredecodedModule>(heatModule());
    decoded->decodeAll();
    cfg.vmConfig.predecoded = decoded;
    os::WorldSpec world;
    world.env["SECRET"] = "abc";
    query::CampaignResult res =
        query::runCampaign(heatModule(), world, cfg);
    obs::ProfileMeta meta =
        vm::buildProfileMeta(*decoded, "inline.mc", kProfProgram);
    return query::siteHeatJson(res, meta);
}

TEST(SiteHeat, ByteIdenticalAcrossJobsDriversAndCacheState)
{
    std::string dir = std::filesystem::temp_directory_path() /
                      "ldx_heat_cache";
    std::filesystem::remove_all(dir);

    std::string ref = heatMap(1, false, "");
    EXPECT_NE(ref.find("\"schema\":\"ldx-site-heat-v1\""),
              std::string::npos);
    EXPECT_NE(ref.find("\"sources\":["), std::string::npos);

    EXPECT_EQ(ref, heatMap(4, false, ""));
    EXPECT_EQ(ref, heatMap(2, true, ""));

    // Site profiling bypasses the cache, so a cold and a warm
    // persistent cache produce the same artifact.
    EXPECT_EQ(ref, heatMap(1, false, dir));
    EXPECT_EQ(ref, heatMap(1, false, dir));
    std::filesystem::remove_all(dir);
}

TEST(SiteHeat, QueryProfilesCompactAndOrdered)
{
    query::CampaignConfig cfg;
    cfg.siteProfile = true;
    auto decoded =
        std::make_shared<vm::PredecodedModule>(heatModule());
    decoded->decodeAll();
    cfg.vmConfig.predecoded = decoded;
    os::WorldSpec world;
    world.env["SECRET"] = "abc";
    query::CampaignResult res =
        query::runCampaign(heatModule(), world, cfg);

    ASSERT_EQ(res.queryProfiles.size(), res.queries.size());
    EXPECT_EQ(res.cacheHits, 0u); // cache bypassed
    for (std::size_t i = 0; i < res.queries.size(); ++i) {
        if (res.outcomes[i].status != query::RunStatus::Done)
            continue;
        const auto &prof = res.queryProfiles[i];
        ASSERT_FALSE(prof.empty());
        for (std::size_t k = 1; k < prof.size(); ++k) {
            bool ordered =
                prof[k - 1].fn < prof[k].fn ||
                (prof[k - 1].fn == prof[k].fn &&
                 prof[k - 1].idx < prof[k].idx);
            EXPECT_TRUE(ordered) << "entry " << k;
        }
        std::uint64_t total = 0;
        for (const query::SiteHeatEntry &e : prof)
            total += e.retired;
        EXPECT_GT(total, 0u);
    }
}

} // namespace
} // namespace ldx
