/**
 * @file
 * Campaign telemetry tests: the span-correlation contract (every
 * query emits exactly one `query.probe` span plus exactly one
 * terminal marker), the disposition fold (campaign.queries.* counters
 * partition the query set), the exporter/progress surfaces, the
 * profiler report — and the guarantee that none of it perturbs the
 * campaign's deterministic graph output.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "instrument/instrument.h"
#include "lang/compiler.h"
#include "obs/exporter.h"
#include "query/campaign.h"
#include "query/profile.h"

namespace ldx {
namespace {

using query::CampaignConfig;
using query::CampaignResult;

/** Compile + instrument once per source text. */
const ir::Module &
instrumentedModule(const std::string &source)
{
    static std::map<std::string, std::unique_ptr<ir::Module>> cache;
    auto it = cache.find(source);
    if (it == cache.end()) {
        auto module = lang::compileSource(source);
        instrument::CounterInstrumenter pass(*module);
        pass.run();
        it = cache.emplace(source, std::move(module)).first;
    }
    return *it->second;
}

const char *kTelemetryProgram = R"(
int main() {
    char secret[16];
    getenv("SECRET", secret, 16);
    char buf[8];
    int fd = open("/data.txt", 0);
    read(fd, buf, 4);
    char out[8];
    itoa(secret[0] + buf[0], out);
    print(out, strlen(out));
    return 0;
}
)";

os::WorldSpec
telemetryWorld()
{
    os::WorldSpec world;
    world.env["SECRET"] = "abc";
    world.files["/data.txt"] = "data";
    return world;
}

/** Thread-safe in-memory sink (workers emit concurrently). */
class CollectingSink : public obs::TraceSink
{
  public:
    void
    emit(const obs::TraceRecord &rec) override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        records_.push_back(rec);
    }

    void setLaneName(int, const std::string &) override {}
    void flush() override {}

    std::vector<obs::TraceRecord>
    records() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return records_;
    }

  private:
    mutable std::mutex mutex_;
    std::vector<obs::TraceRecord> records_;
};

/** Span id carried by @p rec (-1 when absent). */
std::int64_t
spanOf(const obs::TraceRecord &rec)
{
    for (const auto &[k, v] : rec.numArgs)
        if (k == "span")
            return v;
    return -1;
}

/**
 * Per-query span census of @p sink: probe count and terminal-marker
 * count (`query.cached` / `query.exec` / `query.cancelled`) per span
 * id, plus the exec-span count for callers that pin dispositions.
 */
struct SpanCensus
{
    std::map<std::int64_t, int> probes;
    std::map<std::int64_t, int> terminals;
    std::map<std::int64_t, int> execs;
};

SpanCensus
census(const CollectingSink &sink)
{
    SpanCensus c;
    for (const obs::TraceRecord &rec : sink.records()) {
        std::int64_t span = spanOf(rec);
        if (rec.name == "query.probe")
            ++c.probes[span];
        else if (rec.name == "query.cached" ||
                 rec.name == "query.cancelled")
            ++c.terminals[span];
        else if (rec.name == "query.exec") {
            ++c.terminals[span];
            ++c.execs[span];
        }
    }
    return c;
}

/**
 * The load-bearing invariants, checked after every campaign below:
 * exactly one probe span and one terminal marker per query, and the
 * mutually exclusive campaign.queries.* counters partition the set.
 */
void
checkInvariants(const CampaignResult &res, const CollectingSink &sink,
                const obs::Registry &reg)
{
    SpanCensus c = census(sink);
    for (std::size_t i = 0; i < res.queries.size(); ++i) {
        auto span = static_cast<std::int64_t>(i);
        EXPECT_EQ(c.probes[span], 1) << "query " << i;
        EXPECT_EQ(c.terminals[span], 1) << "query " << i;
    }
    EXPECT_EQ(c.probes.size(), res.queries.size());
    EXPECT_EQ(c.terminals.size(), res.queries.size());

    obs::MetricsSnapshot snap = reg.snapshot();
    std::uint64_t folded =
        snap.counterOr("campaign.queries.completed") +
        snap.counterOr("campaign.queries.cached") +
        snap.counterOr("campaign.queries.timed_out") +
        snap.counterOr("campaign.queries.cancelled") +
        snap.counterOr("campaign.queries.failed");
    EXPECT_EQ(folded, res.queries.size());
    EXPECT_EQ(snap.counterOr("campaign.queries.total"),
              res.queries.size());
    EXPECT_EQ(snap.gaugeOr("campaign.queries.planned"),
              static_cast<double>(res.queries.size()));
}

CampaignConfig
baseConfig(obs::Registry *reg, obs::TraceSink *sink)
{
    CampaignConfig cfg;
    cfg.registry = reg;
    cfg.traceSink = sink;
    return cfg;
}

// ---------------------------------------------------------------------
// Span + fold invariants across dispositions
// ---------------------------------------------------------------------

class TelemetryJobs : public ::testing::TestWithParam<int>
{};

TEST_P(TelemetryJobs, CompletedQueriesSpanAndFold)
{
    obs::Registry reg;
    CollectingSink sink;
    CampaignConfig cfg = baseConfig(&reg, &sink);
    cfg.jobs = GetParam();
    CampaignResult res = runCampaign(
        instrumentedModule(kTelemetryProgram), telemetryWorld(), cfg);

    ASSERT_EQ(res.queries.size(), 6u); // 2 sources x 3 policies
    checkInvariants(res, sink, reg);

    obs::MetricsSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counterOr("campaign.queries.completed"), 6u);
    EXPECT_EQ(snap.counterOr("campaign.queries.cached"), 0u);
    EXPECT_EQ(census(sink).execs.size(), 6u);

    // The engine-tally fold matches the per-query verdicts.
    std::uint64_t aligned = 0, diffs = 0, findings = 0;
    for (const auto &v : res.verdicts) {
        ASSERT_TRUE(v.has_value());
        aligned += v->alignedSyscalls;
        diffs += v->syscallDiffs;
        findings += v->findings;
    }
    EXPECT_EQ(snap.counterOr("campaign.dual.aligned_syscalls"), aligned);
    EXPECT_EQ(snap.counterOr("campaign.dual.syscall_diffs"), diffs);
    EXPECT_EQ(snap.counterOr("campaign.dual.findings"), findings);
    EXPECT_GT(aligned, 0u);

    // Exec latency histogram saw every executed query.
    for (const obs::HistogramSnapshot &h : snap.histograms)
        if (h.name == "campaign.query_seconds")
            EXPECT_EQ(h.count, 6u);
}

TEST_P(TelemetryJobs, CachedQueriesSpanAndFold)
{
    obs::Registry reg;
    CollectingSink sink;
    CampaignConfig cfg = baseConfig(nullptr, nullptr);
    std::string dir = std::filesystem::temp_directory_path() /
                      ("ldx_telem_cache_j" +
                       std::to_string(GetParam()));
    std::filesystem::remove_all(dir);
    cfg.cacheDir = dir;
    runCampaign(instrumentedModule(kTelemetryProgram),
                telemetryWorld(), cfg);

    cfg = baseConfig(&reg, &sink);
    cfg.jobs = GetParam();
    cfg.cacheDir = dir;
    CampaignResult res = runCampaign(
        instrumentedModule(kTelemetryProgram), telemetryWorld(), cfg);
    std::filesystem::remove_all(dir);

    EXPECT_EQ(res.dualExecutions, 0u);
    checkInvariants(res, sink, reg);
    obs::MetricsSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counterOr("campaign.queries.cached"), 6u);
    EXPECT_EQ(snap.counterOr("campaign.queries.completed"), 0u);
    EXPECT_TRUE(census(sink).execs.empty());
}

TEST_P(TelemetryJobs, PreCancelledQueriesSpanAndFold)
{
    obs::Registry reg;
    CollectingSink sink;
    std::atomic<bool> cancel{true}; // latch set before the pool starts
    CampaignConfig cfg = baseConfig(&reg, &sink);
    cfg.jobs = GetParam();
    cfg.cancel = &cancel;
    CampaignResult res = runCampaign(
        instrumentedModule(kTelemetryProgram), telemetryWorld(), cfg);

    checkInvariants(res, sink, reg);
    obs::MetricsSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counterOr("campaign.queries.cancelled"), 6u);
    EXPECT_EQ(res.cancelledQueries, 6u);
    EXPECT_TRUE(census(sink).execs.empty());
}

TEST_P(TelemetryJobs, TimedOutQueriesSpanAndFold)
{
    obs::Registry reg;
    CollectingSink sink;
    CampaignConfig cfg = baseConfig(&reg, &sink);
    cfg.jobs = GetParam();
    // The threaded supervisor polls the wall-clock cap unconditionally,
    // so a sub-microsecond deadline reliably times every query out.
    cfg.threaded = true;
    cfg.deadlineSeconds = 1e-9;
    CampaignResult res = runCampaign(
        instrumentedModule(kTelemetryProgram), telemetryWorld(), cfg);

    checkInvariants(res, sink, reg);
    obs::MetricsSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counterOr("campaign.queries.timed_out"), 6u);
    EXPECT_EQ(res.timedOutQueries, 6u);
    // Timed-out queries still executed: their terminal is query.exec.
    EXPECT_EQ(census(sink).execs.size(), 6u);
}

TEST_P(TelemetryJobs, MidCampaignCancelKeepsInvariants)
{
    // Flip the latch while the pool is draining — the moment the
    // first query completes — and check that whatever mix of
    // completed/cancelled results is still folded and span-covered
    // exactly once per query (the SIGINT drain path).
    obs::Registry reg;
    CollectingSink sink;
    std::atomic<bool> cancel{false};
    std::atomic<bool> watcherStop{false};
    std::thread watcher([&] {
        while (!watcherStop.load()) {
            if (reg.snapshot().counterOr("campaign.sched.completed") >=
                1) {
                cancel.store(true);
                return;
            }
            std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
    });

    CampaignConfig cfg = baseConfig(&reg, &sink);
    cfg.jobs = GetParam();
    cfg.queueCap = 1; // admit slowly so the latch can beat submission
    cfg.cancel = &cancel;
    CampaignResult res = runCampaign(
        instrumentedModule(kTelemetryProgram), telemetryWorld(), cfg);
    watcherStop.store(true);
    watcher.join();

    checkInvariants(res, sink, reg);
    obs::MetricsSnapshot snap = reg.snapshot();
    // Disposition split is timing-dependent; the partition is not.
    EXPECT_EQ(snap.counterOr("campaign.queries.completed") +
                  snap.counterOr("campaign.queries.cancelled") +
                  snap.counterOr("campaign.queries.timed_out"),
              res.queries.size());
    EXPECT_EQ(snap.counterOr("campaign.queries.cancelled"),
              res.cancelledQueries);
}

INSTANTIATE_TEST_SUITE_P(Jobs, TelemetryJobs, ::testing::Values(1, 8),
                         [](const auto &info) {
                             return "jobs" +
                                    std::to_string(info.param);
                         });

// ---------------------------------------------------------------------
// Telemetry must not perturb the deterministic graph
// ---------------------------------------------------------------------

TEST(TelemetryDeterminism, GraphIsByteIdenticalWithTelemetryOn)
{
    CampaignConfig plain;
    CampaignResult a = runCampaign(
        instrumentedModule(kTelemetryProgram), telemetryWorld(), plain);

    obs::Registry reg;
    CollectingSink sink;
    CampaignConfig cfg = baseConfig(&reg, &sink);
    cfg.jobs = 8;
    CampaignResult b = runCampaign(
        instrumentedModule(kTelemetryProgram), telemetryWorld(), cfg);

    EXPECT_EQ(a.graph.toJson(), b.graph.toJson());
    EXPECT_EQ(a.graph.toDot(), b.graph.toDot());
}

// ---------------------------------------------------------------------
// Scheduler telemetry details
// ---------------------------------------------------------------------

TEST(SchedulerTelemetry, WorkerLanesAndQueueWait)
{
    obs::Registry reg;
    CollectingSink sink;
    CampaignConfig cfg = baseConfig(&reg, &sink);
    cfg.jobs = 2;
    CampaignResult res = runCampaign(
        instrumentedModule(kTelemetryProgram), telemetryWorld(), cfg);

    for (const obs::TraceRecord &rec : sink.records()) {
        if (rec.name == "query.exec" || rec.name == "query.queue-wait") {
            EXPECT_GE(rec.lane, obs::kWorkerLaneBase);
            EXPECT_LT(rec.lane, obs::kWorkerLaneBase + cfg.jobs);
        } else if (rec.name == "query.probe") {
            EXPECT_EQ(rec.lane, obs::kPipelineLane);
        }
    }
    // Every executed outcome has a worker, a start stamp, and a
    // non-negative queue wait.
    for (const query::RunOutcome &o : res.outcomes) {
        ASSERT_EQ(o.status, query::RunStatus::Done);
        EXPECT_GE(o.worker, 0);
        EXPECT_GT(o.startUs, 0);
        EXPECT_GE(o.queueWaitSeconds, 0.0);
    }

    obs::MetricsSnapshot snap = reg.snapshot();
    bool saw_wait = false;
    for (const obs::HistogramSnapshot &h : snap.histograms)
        if (h.name == "campaign.queue_wait_seconds") {
            saw_wait = true;
            EXPECT_EQ(h.count, res.queries.size());
        }
    EXPECT_TRUE(saw_wait);
    EXPECT_EQ(snap.gaugeOr("campaign.sched.active_workers", -1.0), 0.0);
    double util = snap.gaugeOr("campaign.sched.utilization", -1.0);
    EXPECT_GE(util, 0.0);
    EXPECT_LE(util, 1.0);
    EXPECT_GE(snap.gaugeOr("campaign.sched.worker.0.busy_seconds", -1.0),
              0.0);
    EXPECT_GE(snap.gaugeOr("campaign.sched.worker.1.busy_seconds", -1.0),
              0.0);
}

// ---------------------------------------------------------------------
// Profiler report
// ---------------------------------------------------------------------

TEST(ProfileReport, SchemaAndCounts)
{
    obs::Registry reg;
    CampaignConfig cfg = baseConfig(&reg, nullptr);
    cfg.jobs = 2;
    CampaignResult res = runCampaign(
        instrumentedModule(kTelemetryProgram), telemetryWorld(), cfg);

    query::ProfileOptions popt;
    popt.topN = 3;
    std::string json = profileJson(res, reg.snapshot(), popt);

    EXPECT_NE(json.find("\"schema\":\"ldx-campaign-profile-v2\""),
              std::string::npos);
    EXPECT_NE(json.find("\"total\":6"), std::string::npos);
    EXPECT_NE(json.find("\"completed\":6"), std::string::npos);
    EXPECT_NE(json.find("\"latency_seconds\""), std::string::npos);
    EXPECT_NE(json.find("\"queue_wait_seconds\""), std::string::npos);
    EXPECT_NE(json.find("\"p99\""), std::string::npos);
    EXPECT_NE(json.find("\"jobs\":2"), std::string::npos);
    EXPECT_NE(json.find("\"phases\""), std::string::npos);
    EXPECT_NE(json.find("campaign.execute"), std::string::npos);

    // Top-N is honoured: ranks 1..3 present, rank 4 absent.
    EXPECT_NE(json.find("\"rank\":3"), std::string::npos);
    EXPECT_EQ(json.find("\"rank\":4"), std::string::npos);
    // Slowest entries carry the per-phase breakdown.
    EXPECT_NE(json.find("\"queue_wait_seconds\":"), std::string::npos);
    EXPECT_NE(json.find("\"worker\":"), std::string::npos);
    EXPECT_NE(json.find("\"policy\":"), std::string::npos);
}

TEST(ProfileReport, EmptyCampaignIsWellFormed)
{
    CampaignResult res;
    obs::Registry reg;
    std::string json = profileJson(res, reg.snapshot());
    EXPECT_NE(json.find("\"schema\":\"ldx-campaign-profile-v2\""),
              std::string::npos);
    EXPECT_NE(json.find("\"total\":0"), std::string::npos);
    // Zero-sample stats pin to 0, not NaN/garbage.
    EXPECT_NE(json.find("\"p99\":0"), std::string::npos);
    EXPECT_EQ(json.find("nan"), std::string::npos);
    EXPECT_NE(json.find("\"slowest\":[]"), std::string::npos);
}

// ---------------------------------------------------------------------
// Exporter + progress against a live campaign
// ---------------------------------------------------------------------

TEST(CampaignExporter, CapturesFinalCampaignState)
{
    std::string dir = std::filesystem::temp_directory_path() /
                      "ldx_telem_exporter";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    std::string jsonl = dir + "/metrics.jsonl";
    std::string prom = dir + "/metrics.prom";

    obs::Registry reg;
    obs::ExporterConfig ecfg;
    ecfg.jsonlPath = jsonl;
    ecfg.promPath = prom;
    ecfg.intervalMs = 5;
    obs::Exporter exporter(reg, ecfg);
    ASSERT_TRUE(exporter.start());

    CampaignConfig cfg = baseConfig(&reg, nullptr);
    cfg.jobs = 2;
    CampaignResult res = runCampaign(
        instrumentedModule(kTelemetryProgram), telemetryWorld(), cfg);
    exporter.stop();

    EXPECT_GE(exporter.samples(), 1u);
    // The final JSONL sample reflects the post-drain registry.
    std::ifstream in(jsonl);
    std::string line, last;
    std::uint64_t lines = 0;
    while (std::getline(in, line))
        if (!line.empty()) {
            last = line;
            ++lines;
        }
    EXPECT_EQ(lines, exporter.samples());
    EXPECT_NE(last.find("\"campaign.queries.completed\":6"),
              std::string::npos);
    EXPECT_NE(last.find("\"ts_us\":"), std::string::npos);

    // The exposition file is complete and carries the same state.
    std::ifstream pin(prom);
    std::stringstream pss;
    pss << pin.rdbuf();
    EXPECT_NE(pss.str().find("ldx_campaign_queries_completed 6"),
              std::string::npos);
    EXPECT_NE(pss.str().find(
                  "# TYPE ldx_campaign_query_seconds histogram"),
              std::string::npos);
    std::filesystem::remove_all(dir);
    (void)res;
}

TEST(CampaignProgress, RenderLineTracksRegistry)
{
    obs::Registry reg;
    std::ostringstream out;
    obs::ProgressMeter meter(reg, out);
    // No campaign yet: renders zeros, no division blowups.
    EXPECT_NE(meter.renderLine().find("0/0 queries"),
              std::string::npos);

    reg.gauge("campaign.queries.planned").set(6);
    reg.counter("campaign.sched.completed").inc(3);
    reg.counter("campaign.cache.hits").inc(1);
    reg.counter("campaign.cache.misses").inc(5);
    reg.gauge("campaign.sched.active_workers").set(2);
    std::string line = meter.renderLine();
    EXPECT_NE(line.find("4/6 queries"), std::string::npos);
    EXPECT_NE(line.find("2 workers"), std::string::npos);

    // start/stop is clean and leaves a newline-terminated final line.
    meter.start();
    meter.stop();
    std::string rendered = out.str();
    ASSERT_FALSE(rendered.empty());
    EXPECT_EQ(rendered.back(), '\n');
    EXPECT_NE(rendered.find("4/6 queries"), std::string::npos);
}

// ---------------------------------------------------------------------
// Concurrency stress: snapshots vs. live writers
// ---------------------------------------------------------------------

// Snapshotting a histogram while writer threads observe into it must
// always yield an internally consistent copy: right bucket shape,
// monotonically growing totals, and finite percentiles — never a
// torn vector or NaN. (The count header may lag the bucket total on
// a torn read; percentile() ranks against the buckets for exactly
// that reason.)
TEST(RegistryStress, HistogramSnapshotsUnderConcurrentWriters)
{
    constexpr int kWriters = 4;
    constexpr int kObservationsPerWriter = 50'000;

    obs::Registry reg;
    obs::Histogram &hist =
        reg.histogram("stress.hist", {1.0, 10.0, 100.0});

    std::atomic<bool> go{false};
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
        writers.emplace_back([&, w] {
            while (!go.load(std::memory_order_acquire)) {
            }
            for (int i = 0; i < kObservationsPerWriter; ++i)
                hist.observe(static_cast<double>((w + i) % 4) * 50.0);
        });
    }
    go.store(true, std::memory_order_release);

    std::uint64_t last_total = 0;
    for (int round = 0; round < 200; ++round) {
        obs::MetricsSnapshot snap = reg.snapshot();
        ASSERT_EQ(snap.histograms.size(), 1u);
        const obs::HistogramSnapshot &h = snap.histograms[0];
        ASSERT_EQ(h.bounds.size(), 3u);
        ASSERT_EQ(h.counts.size(), 4u);
        std::uint64_t total = 0;
        for (std::uint64_t c : h.counts)
            total += c;
        // Buckets only grow, and each is read atomically, so the
        // bucket total is non-decreasing across snapshots.
        EXPECT_GE(total, last_total);
        last_total = total;
        EXPECT_LE(total, std::uint64_t(kWriters) *
                             kObservationsPerWriter);
        double p99 = h.percentile(99.0);
        EXPECT_TRUE(p99 == p99); // not NaN
        EXPECT_GE(p99, 0.0);
        EXPECT_LE(p99, 100.0); // last finite bound
    }
    for (std::thread &t : writers)
        t.join();

    // Quiescent final snapshot: exact totals.
    obs::MetricsSnapshot snap = reg.snapshot();
    const obs::HistogramSnapshot &h = snap.histograms[0];
    std::uint64_t total = 0;
    for (std::uint64_t c : h.counts)
        total += c;
    EXPECT_EQ(total, std::uint64_t(kWriters) * kObservationsPerWriter);
    EXPECT_EQ(h.count, total);
}

// A scraper reading the Prometheus file while the exporter rewrites
// it every tick must always see a complete document: the write-to-
// temp + rename protocol never exposes a torn file.
TEST(ExporterStress, PrometheusRewriteIsAtomicUnderReader)
{
    std::string dir = std::filesystem::temp_directory_path() /
                      "ldx_telem_atomic";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    std::string prom = dir + "/metrics.prom";

    obs::Registry reg;
    obs::Counter &head = reg.counter("aaa_first");
    // Sorted last in the exposition: its presence proves the read
    // caught a complete document, not a prefix.
    obs::Counter &sentinel = reg.counter("zzz_sentinel");
    head.inc();
    sentinel.inc();

    obs::ExporterConfig ecfg;
    ecfg.promPath = prom;
    ecfg.intervalMs = 1;
    ecfg.build.version = "test";
    ecfg.build.dispatch = "threaded";
    obs::Exporter exporter(reg, ecfg);
    ASSERT_TRUE(exporter.start());

    // Writers keep the document churning while the reader scrapes.
    std::atomic<bool> stop{false};
    std::thread writer([&] {
        while (!stop.load(std::memory_order_acquire)) {
            head.inc();
            sentinel.inc();
        }
    });

    // Wait out the first tick so every reader round has a document.
    while (exporter.samples() == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    int reads = 0;
    for (int round = 0; round < 400; ++round) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        std::ifstream in(prom, std::ios::binary);
        if (!in)
            continue; // rename may be mid-flight on this very round
        std::stringstream ss;
        ss << in.rdbuf();
        std::string doc = ss.str();
        if (doc.empty())
            continue;
        ++reads;
        // Complete head-to-tail: build info first, sentinel last.
        EXPECT_EQ(doc.rfind("# TYPE ldx_build_info gauge\n", 0), 0u);
        EXPECT_NE(doc.find("ldx_build_info{version=\"test\","
                           "dispatch=\"threaded\","),
                  std::string::npos);
        EXPECT_NE(doc.find("\nldx_zzz_sentinel "), std::string::npos);
        EXPECT_EQ(doc.back(), '\n');
    }
    stop.store(true, std::memory_order_release);
    writer.join();
    exporter.stop();
    EXPECT_GT(reads, 0);

    // The final document also reads complete, and no temp file leaks.
    std::ifstream in(prom, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    EXPECT_NE(ss.str().find("\nldx_zzz_sentinel "), std::string::npos);
    EXPECT_FALSE(std::filesystem::exists(prom + ".tmp"));
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------
// SIGINT-drain teardown: the sinks still produce valid artifacts
// ---------------------------------------------------------------------

// A campaign drained by the SIGINT latch must still leave a valid
// Chrome trace (closed JSON array) and a final exporter sample — the
// CLI keeps its handler installed through this whole teardown.
TEST(CampaignDrain, ChromeTraceAndExporterCompleteOnCancel)
{
    std::string dir = std::filesystem::temp_directory_path() /
                      "ldx_telem_drain";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    std::string trace = dir + "/trace.json";
    std::string prom = dir + "/metrics.prom";

    obs::Registry reg;
    obs::ExporterConfig ecfg;
    ecfg.promPath = prom;
    ecfg.intervalMs = 1000; // only the final stop() sample lands
    obs::Exporter exporter(reg, ecfg);
    ASSERT_TRUE(exporter.start());

    std::atomic<bool> cancel{true}; // pre-canceled: drain immediately
    {
        std::ofstream out(trace, std::ios::binary);
        auto sink = obs::makeTraceSink("chrome", out);
        ASSERT_NE(sink, nullptr);
        CampaignConfig cfg = baseConfig(&reg, sink.get());
        cfg.cancel = &cancel;
        CampaignResult res = runCampaign(
            instrumentedModule(kTelemetryProgram), telemetryWorld(),
            cfg);
        EXPECT_GT(res.cancelledQueries, 0u);
        exporter.stop();
        sink->flush();
    }

    // The Chrome document parses head-to-tail: array closed.
    std::ifstream tin(trace, std::ios::binary);
    std::stringstream tss;
    tss << tin.rdbuf();
    std::string doc = tss.str();
    ASSERT_FALSE(doc.empty());
    EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(doc.find("\n]}\n"), std::string::npos);

    // The final Prometheus sample carries the drained state.
    std::ifstream pin(prom, std::ios::binary);
    std::stringstream pss;
    pss << pin.rdbuf();
    EXPECT_NE(pss.str().find("ldx_campaign_queries_cancelled"),
              std::string::npos);
    EXPECT_GE(exporter.samples(), 1u);
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace ldx
