/**
 * @file
 * Tests for the obs layer: registry semantics (counters, gauges,
 * histograms, snapshots), trace sink output well-formedness, phase
 * timer nesting — and the load-bearing invariant that the metrics
 * registry totals agree exactly with the legacy DualResult counters.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "instrument/instrument.h"
#include "lang/compiler.h"
#include "ldx/engine.h"
#include "obs/exporter.h"
#include "obs/phase.h"
#include "obs/registry.h"
#include "obs/scope.h"
#include "obs/trace.h"

namespace ldx {
namespace {

using core::DualEngine;
using core::EngineConfig;
using core::SourceSpec;

// ----------------------------------------------------------- registry

TEST(RegistryTest, CounterIncrementAndLookup)
{
    obs::Registry reg;
    obs::Counter &c = reg.counter("a.b");
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);
    // Same name resolves to the same instrument.
    EXPECT_EQ(&reg.counter("a.b"), &c);
    EXPECT_EQ(reg.counter("a.b").value(), 42u);
}

TEST(RegistryTest, CounterIsThreadSafe)
{
    obs::Registry reg;
    obs::Counter &c = reg.counter("hot");
    constexpr int kThreads = 4;
    constexpr int kIncs = 50000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&c] {
            for (int i = 0; i < kIncs; ++i)
                c.inc();
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(c.value(),
              static_cast<std::uint64_t>(kThreads) * kIncs);
}

TEST(RegistryTest, GaugeHoldsLastValue)
{
    obs::Registry reg;
    reg.gauge("g").set(1.5);
    reg.gauge("g").set(-2.25);
    EXPECT_DOUBLE_EQ(reg.gauge("g").value(), -2.25);
}

TEST(RegistryTest, HistogramBucketsAndOverflow)
{
    obs::Registry reg;
    obs::Histogram &h = reg.histogram("h", {1.0, 10.0, 100.0});
    h.observe(0.5);    // bucket 0: [0, 1)
    h.observe(5.0);    // bucket 1: [1, 10)
    h.observe(10.0);   // bucket 2: [10, 100) — bounds are lower-inclusive
    h.observe(1000.0); // overflow bucket
    EXPECT_EQ(h.count(), 4u);
    EXPECT_DOUBLE_EQ(h.sum(), 1015.5);
    EXPECT_EQ(h.numBuckets(), 4u);
    EXPECT_EQ(h.bucketCount(0), 1u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(2), 1u);
    EXPECT_EQ(h.bucketCount(3), 1u);
}

TEST(RegistryTest, SnapshotAndAccessors)
{
    obs::Registry reg;
    reg.counter("c1").inc(7);
    reg.gauge("g1").set(3.5);
    reg.histogram("h1", {1.0, 2.0}).observe(1.5);
    obs::MetricsSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counterOr("c1"), 7u);
    EXPECT_EQ(snap.counterOr("missing", 99), 99u);
    EXPECT_DOUBLE_EQ(snap.gaugeOr("g1"), 3.5);
    ASSERT_EQ(snap.histograms.size(), 1u);
    EXPECT_EQ(snap.histograms[0].count, 1u);

    std::string json = snap.toJson();
    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    EXPECT_NE(json.find("\"c1\":7"), std::string::npos);
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
}

TEST(RegistryTest, HistogramPercentileEstimate)
{
    obs::Registry reg;
    obs::Histogram &h = reg.histogram("p", {10.0, 20.0, 30.0});
    for (int i = 0; i < 100; ++i)
        h.observe(5.0); // all in the first bucket
    obs::MetricsSnapshot snap = reg.snapshot();
    double p50 = snap.histograms[0].percentile(50.0);
    EXPECT_GE(p50, 0.0);
    EXPECT_LE(p50, 10.0);
    // Everything below the last bound: p99 stays in bucket 0 too.
    EXPECT_LE(snap.histograms[0].percentile(99.0), 10.0);
}

TEST(RegistryTest, HistogramPercentileZeroSamplesPinsToZero)
{
    // An idle stream must report 0, never a stale bucket bound: the
    // exporter and profiler render percentiles unconditionally.
    obs::Registry reg;
    reg.histogram("empty", obs::latencySecondsBounds());
    obs::MetricsSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.histograms[0].percentile(50.0), 0.0);
    EXPECT_EQ(snap.histograms[0].percentile(99.0), 0.0);
    EXPECT_EQ(snap.histograms[0].percentile(0.0), 0.0);
    EXPECT_EQ(snap.histograms[0].percentile(100.0), 0.0);
}

TEST(RegistryTest, HistogramPercentileTornSnapshotRanksBucketTotal)
{
    // A snapshot can observe count > 0 with the bucket increment not
    // yet visible (the two RMWs are independent). Percentile must rank
    // against the bucket total, not the count header — a torn
    // snapshot reports 0, not the last bound (60s on the latency
    // grid).
    obs::HistogramSnapshot h;
    h.name = "torn";
    h.bounds = obs::latencySecondsBounds();
    h.counts.assign(h.bounds.size() + 1, 0);
    h.count = 1; // header ticked, buckets not yet
    h.sum = 0.05;
    EXPECT_EQ(h.percentile(50.0), 0.0);
    EXPECT_EQ(h.percentile(99.0), 0.0);
}

// -------------------------------------------------------- trace sinks

obs::TraceRecord
makeRecord(const std::string &name, int lane)
{
    obs::TraceRecord rec;
    rec.name = name;
    rec.lane = lane;
    rec.tid = 1;
    rec.tsUs = 123;
    rec.numArgs = {{"sys", 7}};
    rec.strArgs = {{"detail", "a\"b\n"}};
    return rec;
}

TEST(TraceSinkTest, JsonlOneObjectPerLine)
{
    std::ostringstream os;
    obs::JsonlTraceSink sink(os);
    sink.setLaneName(obs::kMasterLane, "master");
    sink.emit(makeRecord("copy", obs::kMasterLane));
    sink.emit(makeRecord("execute", obs::kSlaveLane));
    sink.flush();

    std::istringstream in(os.str());
    std::string line;
    int lines = 0;
    while (std::getline(in, line)) {
        ASSERT_FALSE(line.empty());
        EXPECT_EQ(line.front(), '{');
        EXPECT_EQ(line.back(), '}');
        ++lines;
    }
    EXPECT_EQ(lines, 3); // lane metadata line + two records
    // The quote and newline in strArgs must be escaped.
    EXPECT_NE(os.str().find("a\\\"b\\n"), std::string::npos);
}

TEST(TraceSinkTest, ChromeTraceIsOneJsonObject)
{
    std::ostringstream os;
    {
        obs::ChromeTraceSink sink(os);
        sink.setLaneName(obs::kMasterLane, "master");
        sink.setLaneName(obs::kSlaveLane, "slave");
        sink.emit(makeRecord("copy", obs::kMasterLane));
        obs::TraceRecord dur = makeRecord("master-run", obs::kMasterLane);
        dur.phase = 'X';
        dur.durUs = 55;
        sink.emit(dur);
        sink.flush();
    }
    std::string out = os.str();
    EXPECT_EQ(out.rfind("{\"traceEvents\":[", 0), 0u);
    EXPECT_NE(out.find("\"ph\":\"M\""), std::string::npos);
    EXPECT_NE(out.find("\"process_name\""), std::string::npos);
    EXPECT_NE(out.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(out.find("\"dur\":55"), std::string::npos);
    // flush() closes the array/object.
    std::string tail = out.substr(out.size() - 3);
    EXPECT_NE(tail.find("]}"), std::string::npos);
}

TEST(TraceSinkTest, MakeTraceSinkByName)
{
    std::ostringstream os;
    EXPECT_NE(obs::makeTraceSink("jsonl", os), nullptr);
    EXPECT_NE(obs::makeTraceSink("chrome", os), nullptr);
    EXPECT_EQ(obs::makeTraceSink("xml", os), nullptr);
}

TEST(TraceSinkTest, ScopeWithoutSinkDropsRecords)
{
    obs::Registry reg;
    obs::Scope scope(reg, nullptr);
    EXPECT_FALSE(scope.tracing());
    scope.emit(makeRecord("ignored", 0)); // must not crash
}

// -------------------------------------------------------- phase timer

TEST(PhaseTimerTest, NestingDepthsAndSamples)
{
    obs::PhaseTimer timer;
    timer.begin("outer");
    timer.begin("inner");
    timer.end();
    timer.end();
    timer.record("worker", 1, 0, 0.5);

    auto samples = timer.samples();
    ASSERT_EQ(samples.size(), 3u);
    // Completion order: inner closes first.
    EXPECT_EQ(samples[0].name, "inner");
    EXPECT_EQ(samples[0].depth, 1);
    EXPECT_EQ(samples[1].name, "outer");
    EXPECT_EQ(samples[1].depth, 0);
    EXPECT_GE(samples[1].seconds, samples[0].seconds);
    EXPECT_EQ(samples[2].name, "worker");
    EXPECT_DOUBLE_EQ(timer.total("worker"), 0.5);
}

TEST(PhaseTimerTest, TimeReturnsCallableResult)
{
    obs::PhaseTimer timer;
    int v = timer.time("calc", [] { return 41 + 1; });
    EXPECT_EQ(v, 42);
    timer.time("side-effect", [] {});
    EXPECT_EQ(timer.samples().size(), 2u);
}

TEST(PhaseTimerTest, MirrorsIntoSink)
{
    std::ostringstream os;
    obs::JsonlTraceSink sink(os);
    obs::PhaseTimer timer(&sink);
    timer.begin("parse");
    timer.end();
    EXPECT_NE(os.str().find("\"parse\""), std::string::npos);
    EXPECT_NE(os.str().find("\"X\""), std::string::npos);
}

// ----------------------------------------- engine metrics integration

const char *kLeakProgram = R"(
int main() {
    char secret[16];
    getenv("SECRET", secret, 16);
    int grade = 0;
    if (secret[0] == 'a') { grade = 1; } else { grade = 2; }
    char out[8];
    itoa(grade, out);
    print(out, strlen(out));
    int fd = open("/log.txt", 1);
    write(fd, out, strlen(out));
    close(fd);
    return 0;
}
)";

core::DualResult
dualRun(EngineConfig cfg)
{
    auto module = lang::compileSource(kLeakProgram);
    instrument::CounterInstrumenter pass(*module);
    pass.run();
    os::WorldSpec world;
    world.env["SECRET"] = "abc";
    cfg.wallClockCap = 20.0;
    DualEngine engine(*module, world, cfg);
    auto res = engine.run();
    EXPECT_FALSE(res.deadlocked);
    return res;
}

void
expectMetricsMatchResult(const core::DualResult &res)
{
    EXPECT_EQ(res.metrics.counterOr("dual.syscalls.aligned"),
              res.alignedSyscalls);
    EXPECT_EQ(res.metrics.counterOr("dual.syscalls.diff"),
              res.syscallDiffs);
    EXPECT_EQ(res.metrics.counterOr("dual.syscalls.slave_total"),
              res.totalSlaveSyscalls);
    EXPECT_EQ(res.metrics.counterOr("dual.barrier.pairings"),
              res.barrierPairings);
    EXPECT_EQ(res.metrics.counterOr("dual.findings"),
              res.findings.size());
    EXPECT_DOUBLE_EQ(res.metrics.gaugeOr("dual.wall_seconds"),
                     res.wallSeconds);
    // Side stats flow through too.
    EXPECT_GT(res.metrics.counterOr("vm.master.instructions"), 0u);
    EXPECT_GT(res.metrics.counterOr("vm.slave.instructions"), 0u);
    EXPECT_GT(res.metrics.counterOr("os.master.executes"), 0u);
}

TEST(EngineObsTest, MetricsMatchResultCleanRun)
{
    auto res = dualRun({});
    EXPECT_FALSE(res.causality());
    expectMetricsMatchResult(res);
    EXPECT_GT(res.metrics.counterOr("dual.align.copies"), 0u);
    EXPECT_EQ(res.metrics.counterOr("dual.syscalls.diff"), 0u);
}

TEST(EngineObsTest, MetricsMatchResultMutatedRun)
{
    EngineConfig cfg;
    cfg.sources = {SourceSpec::env("SECRET")};
    auto res = dualRun(cfg);
    EXPECT_TRUE(res.causality());
    expectMetricsMatchResult(res);
}

TEST(EngineObsTest, MetricsMatchResultThreadedRun)
{
    EngineConfig cfg;
    cfg.sources = {SourceSpec::env("SECRET")};
    cfg.threaded = true;
    auto res = dualRun(cfg);
    expectMetricsMatchResult(res);
}

TEST(EngineObsTest, PhasesCoverThePipeline)
{
    auto res = dualRun({});
    ASSERT_FALSE(res.phases.empty());
    bool saw_run = false;
    for (const auto &p : res.phases)
        saw_run |= p.name == "dual-run";
    EXPECT_TRUE(saw_run);
}

TEST(EngineObsTest, ExternalRegistryAccumulatesAcrossRuns)
{
    obs::Registry reg;
    EngineConfig cfg;
    cfg.registry = &reg;
    auto first = dualRun(cfg);
    std::uint64_t after_one =
        reg.counter("dual.syscalls.aligned").value();
    EXPECT_EQ(after_one, first.alignedSyscalls);
    dualRun(cfg);
    EXPECT_EQ(reg.counter("dual.syscalls.aligned").value(),
              2 * after_one);
}

TEST(EngineObsTest, ChromeTraceHasPerSideLanes)
{
    std::ostringstream os;
    obs::ChromeTraceSink sink(os);
    EngineConfig cfg;
    cfg.sources = {SourceSpec::env("SECRET")};
    cfg.traceSink = &sink;
    dualRun(cfg);
    sink.flush();
    std::string out = os.str();
    EXPECT_NE(out.find("\"pid\":0"), std::string::npos); // master lane
    EXPECT_NE(out.find("\"pid\":1"), std::string::npos); // slave lane
    EXPECT_NE(out.find("\"copy\""), std::string::npos);
}

// ------------------------------------------- flight-recorder rings

TEST(FlightRecorderTest, RecordsBelowCapacityWithoutDrops)
{
    obs::FlightRecorder rec(16);
    for (int i = 0; i < 10; ++i) {
        obs::RecEvent e;
        e.kind = obs::RecKind::SyscallExecute;
        e.cnt = i;
        rec.record(0, e);
    }
    EXPECT_EQ(rec.total(0), 10u);
    EXPECT_EQ(rec.dropped(0), 0u);
    EXPECT_EQ(rec.total(1), 0u); // sides are independent
    auto snap = rec.snapshot(0);
    ASSERT_EQ(snap.size(), 10u);
    for (std::size_t i = 0; i < snap.size(); ++i) {
        EXPECT_EQ(snap[i].cnt, static_cast<std::int64_t>(i));
        EXPECT_EQ(snap[i].seq, i);
        EXPECT_EQ(snap[i].side, 0);
    }
}

TEST(FlightRecorderTest, WraparoundDropsOldestFirst)
{
    constexpr std::size_t kCap = 8;
    constexpr std::uint64_t kTotal = 21;
    obs::FlightRecorder rec(kCap);
    for (std::uint64_t i = 0; i < kTotal; ++i) {
        obs::RecEvent e;
        e.kind = obs::RecKind::SyscallCopy;
        e.cnt = static_cast<std::int64_t>(i);
        rec.record(1, e);
    }
    // Exact drop accounting: everything past the capacity is lost.
    EXPECT_EQ(rec.total(1), kTotal);
    EXPECT_EQ(rec.dropped(1), kTotal - kCap);
    auto snap = rec.snapshot(1);
    ASSERT_EQ(snap.size(), kCap);
    // Survivors are the newest kCap events, returned oldest-first.
    for (std::size_t i = 0; i < kCap; ++i) {
        EXPECT_EQ(snap[i].seq, kTotal - kCap + i);
        EXPECT_EQ(snap[i].cnt,
                  static_cast<std::int64_t>(kTotal - kCap + i));
    }
}

TEST(FlightRecorderTest, SequenceAndTimestampAreMonotonic)
{
    obs::FlightRecorder rec(4);
    for (int i = 0; i < 9; ++i)
        rec.record(0, obs::RecEvent{});
    auto snap = rec.snapshot(0);
    ASSERT_EQ(snap.size(), 4u);
    for (std::size_t i = 1; i < snap.size(); ++i) {
        EXPECT_EQ(snap[i].seq, snap[i - 1].seq + 1);
        EXPECT_GE(snap[i].tsUs, snap[i - 1].tsUs);
    }
}

TEST(FlightRecorderTest, ZeroCapacityClampsToOne)
{
    obs::FlightRecorder rec(0);
    EXPECT_EQ(rec.capacity(), 1u);
    rec.record(0, obs::RecEvent{});
    rec.record(0, obs::RecEvent{});
    EXPECT_EQ(rec.total(0), 2u);
    EXPECT_EQ(rec.dropped(0), 1u);
    EXPECT_EQ(rec.snapshot(0).size(), 1u);
}

TEST(FlightRecorderTest, DivergentKindClassification)
{
    EXPECT_TRUE(obs::recKindDivergent(obs::RecKind::SyscallDecouple));
    EXPECT_TRUE(obs::recKindDivergent(obs::RecKind::SinkDiff));
    EXPECT_TRUE(obs::recKindDivergent(obs::RecKind::SinkVanish));
    EXPECT_TRUE(obs::recKindDivergent(obs::RecKind::BarrierSkip));
    EXPECT_TRUE(obs::recKindDivergent(obs::RecKind::LockDiverge));
    EXPECT_TRUE(obs::recKindDivergent(obs::RecKind::Trap));
    EXPECT_TRUE(obs::recKindDivergent(obs::RecKind::WatchdogExpire));
    EXPECT_FALSE(obs::recKindDivergent(obs::RecKind::SyscallExecute));
    EXPECT_FALSE(obs::recKindDivergent(obs::RecKind::SyscallCopy));
    EXPECT_FALSE(obs::recKindDivergent(obs::RecKind::SinkAligned));
    EXPECT_FALSE(obs::recKindDivergent(obs::RecKind::Mutation));
    EXPECT_FALSE(obs::recKindDivergent(obs::RecKind::Block));
}

TEST(FlightRecorderTest, DualRunPublishesDropAccounting)
{
    EngineConfig cfg;
    cfg.sources = {SourceSpec::env("SECRET")};
    cfg.recorderCapacity = 2; // force overflow on any real run
    auto res = dualRun(cfg);
    ASSERT_TRUE(res.divergence.present);
    EXPECT_GT(res.metrics.counterOr("recorder.dropped"), 0u);
    EXPECT_EQ(res.metrics.counterOr("recorder.dropped"),
              res.divergence.droppedEvents[0] +
                  res.divergence.droppedEvents[1]);
    EXPECT_EQ(res.divergence.events[0].size(), 2u);
    EXPECT_EQ(res.divergence.events[1].size(), 2u);
}

// -------------------------------------- --metrics=json stable schema

/** `"key":` present with a value of the expected JSON type. */
void
expectJsonKey(const std::string &json, const std::string &key,
              const char *type)
{
    std::size_t pos = json.find("\"" + key + "\":");
    ASSERT_NE(pos, std::string::npos) << key << " missing\n" << json;
    char c = json[pos + key.size() + 3];
    std::string t = type;
    if (t == "bool") {
        EXPECT_TRUE(c == 't' || c == 'f') << key;
    } else if (t == "number") {
        EXPECT_TRUE((c >= '0' && c <= '9') || c == '-') << key;
    } else if (t == "string") {
        EXPECT_EQ(c, '"') << key;
    } else if (t == "array") {
        EXPECT_EQ(c, '[') << key;
    } else if (t == "object") {
        EXPECT_EQ(c, '{') << key;
    }
}

TEST(ResultJsonTest, StableTopLevelSchema)
{
    EngineConfig cfg;
    cfg.sources = {SourceSpec::env("SECRET")};
    auto res = dualRun(cfg);
    std::string json = core::resultJson(res, res.phases);
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    expectJsonKey(json, "causality", "bool");
    expectJsonKey(json, "wall_seconds", "number");
    expectJsonKey(json, "findings", "array");
    expectJsonKey(json, "divergence", "object");
    expectJsonKey(json, "present", "bool");
    expectJsonKey(json, "outcome", "string");
    expectJsonKey(json, "summary", "string");
    expectJsonKey(json, "dropped", "number");
    expectJsonKey(json, "phases", "array");
    expectJsonKey(json, "metrics", "object");
}

TEST(ResultJsonTest, SchemaHoldsOnCleanRunToo)
{
    // No mutated sources: divergence.present=false, but every key is
    // still there — consumers never need to branch on key presence.
    auto res = dualRun({});
    std::string json = core::resultJson(res, res.phases);
    expectJsonKey(json, "causality", "bool");
    expectJsonKey(json, "divergence", "object");
    expectJsonKey(json, "present", "bool");
    expectJsonKey(json, "outcome", "string");
    expectJsonKey(json, "summary", "string");
    expectJsonKey(json, "dropped", "number");
    EXPECT_NE(json.find("\"present\":false"), std::string::npos);
}

TEST(ResultJsonTest, PhasesJsonShapesEachSample)
{
    obs::PhaseSample s;
    s.name = "dual-run";
    s.depth = 1;
    s.startUs = 42;
    s.seconds = 0.25;
    std::string json = core::phasesJson({s});
    EXPECT_NE(json.find("\"name\":\"dual-run\""), std::string::npos);
    EXPECT_NE(json.find("\"depth\":1"), std::string::npos);
    EXPECT_NE(json.find("\"start_us\":42"), std::string::npos);
    EXPECT_NE(json.find("\"seconds\":0.25"), std::string::npos);
}

// ----------------------------------------------------------- exporter

TEST(PrometheusTest, RendersAllInstrumentKinds)
{
    obs::Registry reg;
    reg.counter("campaign.cache.hits").inc(7);
    reg.gauge("campaign.sched.utilization").set(0.5);
    obs::Histogram &h =
        reg.histogram("campaign.query_seconds", {1.0, 10.0});
    h.observe(0.5);
    h.observe(0.5);
    h.observe(5.0);

    std::string text = obs::renderPrometheus(reg.snapshot());
    // Names are sanitized ([a-zA-Z0-9_]) and ldx_-prefixed, with one
    // TYPE line per metric.
    EXPECT_NE(text.find("# TYPE ldx_campaign_cache_hits counter\n"
                        "ldx_campaign_cache_hits 7\n"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE ldx_campaign_sched_utilization gauge"),
              std::string::npos);
    EXPECT_NE(text.find("ldx_campaign_sched_utilization 0.5"),
              std::string::npos);
    // Histogram buckets are cumulative and end in +Inf.
    EXPECT_NE(
        text.find("ldx_campaign_query_seconds_bucket{le=\"1\"} 2"),
        std::string::npos);
    EXPECT_NE(
        text.find("ldx_campaign_query_seconds_bucket{le=\"10\"} 3"),
        std::string::npos);
    EXPECT_NE(
        text.find("ldx_campaign_query_seconds_bucket{le=\"+Inf\"} 3"),
        std::string::npos);
    EXPECT_NE(text.find("ldx_campaign_query_seconds_sum 6"),
              std::string::npos);
    EXPECT_NE(text.find("ldx_campaign_query_seconds_count 3"),
              std::string::npos);
    EXPECT_EQ(text.find("campaign."), std::string::npos);
}

TEST(ExporterTest, WritesJsonlSeriesAndAtomicExposition)
{
    std::string dir = std::filesystem::temp_directory_path() /
                      "ldx_obs_exporter";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    std::string jsonl = dir + "/m.jsonl";
    std::string prom = dir + "/m.prom";

    obs::Registry reg;
    reg.counter("ticks").inc(3);

    obs::ExporterConfig cfg;
    cfg.jsonlPath = jsonl;
    cfg.promPath = prom;
    cfg.intervalMs = 2;
    {
        obs::Exporter exporter(reg, cfg);
        ASSERT_TRUE(exporter.start());
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        reg.counter("ticks").inc(39);
        exporter.stop();
        // Idempotent: a second stop (and the destructor) is a no-op.
        exporter.stop();
        EXPECT_GE(exporter.samples(), 1u);
    }

    // Every line is one self-contained snapshot; the last one carries
    // the final registry state (the stop() sample).
    std::ifstream in(jsonl);
    std::string line, last;
    std::uint64_t lines = 0;
    while (std::getline(in, line))
        if (!line.empty()) {
            last = line;
            ++lines;
        }
    EXPECT_GE(lines, 1u);
    EXPECT_EQ(last.find("{\"ts_us\":"), 0u);
    EXPECT_NE(last.find("\"seq\":"), std::string::npos);
    EXPECT_NE(last.find("\"ticks\":42"), std::string::npos);

    // The exposition file holds the final state, with no leftover
    // temp file from the atomic-replace protocol.
    std::ifstream pin(prom);
    std::stringstream pss;
    pss << pin.rdbuf();
    EXPECT_NE(pss.str().find("ldx_ticks 42"), std::string::npos);
    EXPECT_FALSE(std::filesystem::exists(prom + ".tmp"));
    std::filesystem::remove_all(dir);
}

TEST(ExporterTest, UnwritablePathFailsAtStart)
{
    obs::Registry reg;
    obs::ExporterConfig cfg;
    cfg.jsonlPath = "/nonexistent-dir/metrics.jsonl";
    obs::Exporter exporter(reg, cfg);
    EXPECT_FALSE(exporter.start());
    EXPECT_NE(exporter.error().find("cannot write"),
              std::string::npos);
    exporter.stop(); // inert: never started
    EXPECT_EQ(exporter.samples(), 0u);
}

} // namespace
} // namespace ldx
