/**
 * @file
 * Batch causality-inference engine tests (src/query/): baseline
 * enumeration and classification, scheduler semantics, the result
 * cache (LRU, persistence, record format), and the campaign's
 * determinism contract — byte-identical graphs across worker counts
 * and drivers, and zero dual executions on a warm cache.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "instrument/instrument.h"
#include "lang/compiler.h"
#include "query/campaign.h"
#include "workloads/workloads.h"

namespace ldx {
namespace {

using query::CampaignConfig;
using query::CampaignResult;
using query::ShardedResultCache;

/** The cache an offline campaign builds: one shard, one LRU. */
std::unique_ptr<ShardedResultCache>
oneShardCache(std::size_t capacity, const std::string &dir = "")
{
    return std::make_unique<ShardedResultCache>(capacity, 1, dir,
                                                nullptr);
}

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

const char *kMixedProgram = R"(
int main() {
    char secret[16];
    getenv("SECRET", secret, 16);
    char buf[8];
    int fd = open("/data.txt", 0);
    read(fd, buf, 4);
    int t = time();
    int r = random();
    char out[8];
    itoa(secret[0] + buf[0], out);
    print(out, strlen(out));
    return 0;
}
)";

os::WorldSpec
mixedWorld()
{
    os::WorldSpec world;
    world.env["SECRET"] = "abc";
    world.files["/data.txt"] = "data";
    return world;
}

// ---------------------------------------------------------------------
// Enumeration
// ---------------------------------------------------------------------

TEST(Enumerate, ClassifiesSourcesAndSinks)
{
    query::BaselineEnumeration base = query::enumerateBaseline(
        instrumentedModule(kMixedProgram), mixedWorld(), {});

    std::map<std::string, const query::SourceCandidate *> byId;
    for (const query::SourceCandidate &s : base.sources)
        byId[s.id] = &s;

    ASSERT_TRUE(byId.count("src:env:env:SECRET"));
    EXPECT_TRUE(byId["src:env:env:SECRET"]->queryable);
    ASSERT_TRUE(byId.count("src:file:path:/data.txt"));
    EXPECT_TRUE(byId["src:file:path:/data.txt"]->queryable);
    ASSERT_TRUE(byId.count("src:clock:nondet:clock"));
    EXPECT_FALSE(byId["src:clock:nondet:clock"]->queryable);
    ASSERT_TRUE(byId.count("src:rand:nondet:rand"));
    EXPECT_FALSE(byId["src:rand:nondet:rand"]->queryable);

    ASSERT_EQ(base.sinks.size(), 1u);
    EXPECT_EQ(base.sinks[0].id, "sink:console");
    EXPECT_EQ(base.sinks[0].events.size(), 1u);

    EXPECT_EQ(base.queryableSources().size(), 2u);
    EXPECT_FALSE(base.trapped);
    EXPECT_EQ(base.exitCode, 0);
}

TEST(Enumerate, IsDeterministic)
{
    auto a = query::enumerateBaseline(instrumentedModule(kMixedProgram),
                                      mixedWorld(), {});
    auto b = query::enumerateBaseline(instrumentedModule(kMixedProgram),
                                      mixedWorld(), {});
    ASSERT_EQ(a.totalEvents, b.totalEvents);
    ASSERT_EQ(a.events.size(), b.events.size());
    for (std::size_t i = 0; i < a.events.size(); ++i) {
        EXPECT_EQ(a.events[i].id, b.events[i].id);
        EXPECT_EQ(a.events[i].sysNo, b.events[i].sysNo);
        EXPECT_EQ(a.events[i].resource, b.events[i].resource);
        EXPECT_EQ(a.events[i].payloadHash, b.events[i].payloadHash);
    }
    ASSERT_EQ(a.sources.size(), b.sources.size());
    for (std::size_t i = 0; i < a.sources.size(); ++i)
        EXPECT_EQ(a.sources[i].id, b.sources[i].id);
}

TEST(Enumerate, EventCapDropsTailButKeepsAggregation)
{
    query::EnumerateOptions opts;
    opts.eventCap = 2;
    auto base = query::enumerateBaseline(
        instrumentedModule(kMixedProgram), mixedWorld(), opts);
    EXPECT_EQ(base.events.size(), 2u);
    EXPECT_GT(base.droppedEvents, 0u);
    EXPECT_EQ(base.totalEvents,
              base.events.size() + base.droppedEvents);
    // Aggregation still saw the dropped events.
    EXPECT_EQ(base.sinks.size(), 1u);
}

// ---------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------

TEST(Scheduler, RunsEveryIndexExactlyOnce)
{
    std::vector<std::atomic<int>> hits(64);
    query::SharedPool pool({4, nullptr});
    query::SchedulerConfig cfg;
    cfg.queueCap = 2; // admission control engaged
    auto outcomes = pool.runTenant(
        hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); }, cfg);
    ASSERT_EQ(outcomes.size(), hits.size());
    for (std::size_t i = 0; i < hits.size(); ++i) {
        EXPECT_EQ(hits[i].load(), 1) << i;
        EXPECT_EQ(outcomes[i].status, query::RunStatus::Done) << i;
        EXPECT_GE(outcomes[i].worker, 0);
        EXPECT_LT(outcomes[i].worker, 4);
    }
}

TEST(Scheduler, ExceptionBecomesFailedOutcome)
{
    query::SharedPool pool({2, nullptr});
    auto outcomes = pool.runTenant(
        4,
        [&](std::size_t i) {
            if (i == 2)
                throw std::runtime_error("query exploded");
        },
        query::SchedulerConfig{});
    EXPECT_EQ(outcomes[0].status, query::RunStatus::Done);
    EXPECT_EQ(outcomes[2].status, query::RunStatus::Failed);
    EXPECT_EQ(outcomes[2].error, "query exploded");
}

TEST(Scheduler, PreSetCancelDrainsWithoutRunning)
{
    std::atomic<bool> cancel{true};
    std::atomic<int> ran{0};
    query::SharedPool pool({2, nullptr});
    query::SchedulerConfig cfg;
    cfg.cancel = &cancel;
    auto outcomes = pool.runTenant(
        8, [&](std::size_t) { ran.fetch_add(1); }, cfg);
    EXPECT_EQ(ran.load(), 0);
    for (const query::RunOutcome &o : outcomes)
        EXPECT_EQ(o.status, query::RunStatus::Cancelled);
}

// Fair dequeue: a tenant that arrives behind another tenant's long
// backlog gets every other worker visit, so its items do not wait
// for that backlog to drain.
TEST(SharedPool, LateTenantIsServedBeforeAnEarlierBacklogDrains)
{
    constexpr std::size_t kBacklog = 10;
    obs::Registry pool_reg;
    query::SharedPool pool({1, &pool_reg});
    auto inflight = [&] {
        return pool_reg.snapshot().gaugeOr("serve.queries_inflight");
    };

    std::mutex mu;
    std::condition_variable cv;
    bool a_started = false, released = false;
    std::vector<std::string> order;
    auto record = [&](std::string what) {
        std::lock_guard<std::mutex> lock(mu);
        order.push_back(std::move(what));
    };

    std::thread a([&] {
        pool.runTenant(
            kBacklog,
            [&](std::size_t i) {
                if (i == 0) {
                    std::unique_lock<std::mutex> lock(mu);
                    a_started = true;
                    cv.notify_all();
                    cv.wait(lock, [&] { return released; });
                }
                record("A" + std::to_string(i));
            },
            query::SchedulerConfig{});
    });
    {
        // The only worker is now parked inside A's first item.
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return a_started; });
    }
    while (inflight() < kBacklog) // A's whole backlog is queued
        std::this_thread::yield();

    std::thread b([&] {
        pool.runTenant(
            2, [&](std::size_t i) { record("B" + std::to_string(i)); },
            query::SchedulerConfig{});
    });
    while (inflight() < kBacklog + 2) // B's items are queued too
        std::this_thread::yield();
    {
        std::lock_guard<std::mutex> lock(mu);
        released = true;
    }
    cv.notify_all();
    a.join();
    b.join();

    ASSERT_EQ(order.size(), kBacklog + 2);
    auto pos = [&](const std::string &what) {
        return std::find(order.begin(), order.end(), what) -
               order.begin();
    };
    // One worker alternating tenants: A0 (already running), A1, B0,
    // A2, B1, then the rest of A's backlog.
    EXPECT_LT(pos("B0"), pos("A3"));
    EXPECT_LT(pos("B1"), pos("A4"));
}

// ---------------------------------------------------------------------
// Cache
// ---------------------------------------------------------------------

query::CacheKey
keyN(int n)
{
    query::CacheKey k;
    k.programHash = 1;
    k.worldHash = 2;
    k.sourceId = "src:env:env:K" + std::to_string(n) + "@whole";
    k.policy = "off-by-one";
    return k;
}

query::QueryVerdict
verdictN(int n)
{
    query::QueryVerdict v;
    v.causality = true;
    v.quality = query::VerdictQuality::Decoupled;
    v.edges.push_back({"sink:console", "sink-value-diff",
                       static_cast<std::uint64_t>(n)});
    v.masterExit = 0;
    v.slaveExit = n;
    v.alignedSyscalls = 10 + n;
    v.syscallDiffs = 1;
    v.findings = 1;
    return v;
}

TEST(Cache, LruEvictsLeastRecentlyUsed)
{
    auto cache = oneShardCache(2);
    cache->store(keyN(1), verdictN(1));
    cache->store(keyN(2), verdictN(2));
    EXPECT_TRUE(cache->lookup(keyN(1)).has_value()); // refresh 1
    cache->store(keyN(3), verdictN(3));              // evicts 2
    EXPECT_EQ(cache->evictions(), 1u);
    EXPECT_FALSE(cache->lookup(keyN(2)).has_value());
    ASSERT_TRUE(cache->lookup(keyN(1)).has_value());
    ASSERT_TRUE(cache->lookup(keyN(3)).has_value());
    EXPECT_EQ(*cache->lookup(keyN(3)), verdictN(3));
}

TEST(Cache, RecordRoundTripsAndRejectsCorruption)
{
    query::QueryVerdict v = verdictN(7);
    v.edges.push_back({"sink:ret-token", "ret-token-diff", 2});
    std::string text = query::serializeVerdict(v);
    auto parsed = query::parseVerdict(text);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_TRUE(*parsed == v);

    EXPECT_FALSE(query::parseVerdict("not a record").has_value());
    EXPECT_FALSE(query::parseVerdict("").has_value());
}

// A torn write must read as a clean miss, never a partial verdict.
// The v2 record ends with a checksummed `end` sentinel, so EVERY
// proper prefix is invalid — including ones cut at a line boundary,
// which v1 would have accepted silently (dropping trailing edges).
TEST(Cache, TruncatedRecordIsRejectedAtEveryLength)
{
    query::QueryVerdict v = verdictN(7);
    v.edges.push_back({"sink:ret-token", "ret-token-diff", 2});
    std::string text = query::serializeVerdict(v);
    ASSERT_TRUE(query::parseVerdict(text).has_value());

    for (std::size_t len = 0; len < text.size(); ++len) {
        EXPECT_FALSE(
            query::parseVerdict(text.substr(0, len)).has_value())
            << "prefix of " << len << " bytes parsed";
    }
    // Flipping any body byte breaks the checksum.
    std::string flipped = text;
    flipped[text.size() / 2] ^= 0x20;
    EXPECT_FALSE(query::parseVerdict(flipped).has_value());
}

TEST(Cache, TornDiskRecordIsACleanMiss)
{
    std::filesystem::path dir =
        std::filesystem::temp_directory_path() / "ldx_torn_cache_test";
    std::filesystem::remove_all(dir);
    oneShardCache(8, dir.string())->store(keyN(1), verdictN(1));
    // Tear the record mid-way, as a crash between write and rename
    // never could (the write is to a temp file) but a short disk or
    // an external truncation still can.
    std::filesystem::path record;
    for (const auto &e : std::filesystem::directory_iterator(dir))
        record = e.path();
    ASSERT_FALSE(record.empty());
    std::string text;
    {
        std::ifstream in(record, std::ios::binary);
        std::ostringstream buf;
        buf << in.rdbuf();
        text = buf.str();
    }
    {
        std::ofstream out(record,
                          std::ios::binary | std::ios::trunc);
        out << text.substr(0, text.size() / 2);
    }
    auto fresh = oneShardCache(8, dir.string());
    EXPECT_FALSE(fresh->lookup(keyN(1)).has_value());
    EXPECT_EQ(fresh->hits(), 0u);
    EXPECT_EQ(fresh->misses(), 1u);
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------
// Sharded cache (the `ldx serve` process-wide tier)
// ---------------------------------------------------------------------

TEST(ShardedCache, LookupStoreAndCapacitySplit)
{
    query::ShardedResultCache cache(8, 3, "", nullptr);
    EXPECT_EQ(cache.shardCount(), 3u);
    cache.store(keyN(1), verdictN(1));
    auto v = cache.lookup(keyN(1));
    ASSERT_TRUE(v.has_value());
    EXPECT_TRUE(*v == verdictN(1));
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_FALSE(cache.lookup(keyN(999)).has_value());
    EXPECT_EQ(cache.misses(), 1u);

    // Shards never exceed the global capacity even when it does not
    // divide evenly: per-shard caps sum to exactly the global cap.
    query::ShardedResultCache tiny(2, 8, "", nullptr);
    EXPECT_LE(tiny.shardCount(), 2u);
    for (int n = 0; n < 64; ++n)
        tiny.store(keyN(n), verdictN(n));
    EXPECT_LE(tiny.size(), 2u);
}

// The serve contention contract: 8 threads hammering the same and
// disjoint keys with concurrent lookup/store never lose an entry
// under the cap, and report hit/miss totals that add up.
TEST(ShardedCache, ConcurrentLookupStoreStress)
{
    constexpr int kThreads = 8;
    constexpr int kSharedKeys = 4;
    constexpr int kPrivateKeys = 8;
    ShardedResultCache cache(4096, 8, "", nullptr);

    std::atomic<int> lookups{0};
    std::atomic<int> stores{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            auto probeOrFill = [&](int id) {
                std::optional<query::QueryVerdict> v =
                    cache.lookup(keyN(id));
                lookups.fetch_add(1);
                if (v) {
                    EXPECT_TRUE(*v == verdictN(id));
                } else {
                    EXPECT_FALSE(cache.store(keyN(id), verdictN(id)));
                    stores.fetch_add(1);
                }
            };
            // Same keys from every thread: racing misses each store
            // the same verdict.
            for (int n = 0; n < kSharedKeys; ++n)
                probeOrFill(n);
            // Disjoint keys per thread: a miss, then a hit.
            for (int n = 0; n < kPrivateKeys; ++n) {
                int id = 1000 + t * kPrivateKeys + n;
                probeOrFill(id);
                probeOrFill(id);
            }
        });
    }
    for (std::thread &th : threads)
        th.join();

    EXPECT_EQ(cache.size(),
              static_cast<std::size_t>(kSharedKeys +
                                       kThreads * kPrivateKeys));
    EXPECT_EQ(cache.evictions(), 0u);
    // Metric parity: every lookup is exactly one hit or one miss, and
    // every miss was followed by a store.
    EXPECT_EQ(cache.hits() + cache.misses(),
              static_cast<std::uint64_t>(lookups.load()));
    EXPECT_EQ(cache.misses(), static_cast<std::uint64_t>(stores.load()));
    EXPECT_GE(cache.hits(),
              static_cast<std::uint64_t>(kThreads * kPrivateKeys));
}

TEST(ShardedCache, GlobalLruCapHoldsUnderContention)
{
    constexpr std::size_t kCap = 16;
    ShardedResultCache cache(kCap, 4, "", nullptr);
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t)
        threads.emplace_back([&, t] {
            for (int n = 0; n < 100; ++n) {
                int id = t * 1000 + n;
                if (!cache.lookup(keyN(id)))
                    cache.store(keyN(id), verdictN(id));
            }
        });
    for (std::thread &th : threads)
        th.join();
    EXPECT_LE(cache.size(), kCap);
    EXPECT_GT(cache.evictions(), 0u);
    EXPECT_EQ(cache.hits() + cache.misses(), 800u);
}

TEST(Cache, DiskTierSurvivesANewInstance)
{
    std::filesystem::path dir =
        std::filesystem::temp_directory_path() / "ldx_query_cache_test";
    std::filesystem::remove_all(dir);

    oneShardCache(8, dir.string())->store(keyN(1), verdictN(1));
    auto fresh = oneShardCache(8, dir.string());
    auto v = fresh->lookup(keyN(1));
    ASSERT_TRUE(v.has_value());
    EXPECT_TRUE(*v == verdictN(1));
    EXPECT_EQ(fresh->hits(), 1u);
    std::filesystem::remove_all(dir);
}

TEST(Cache, WorldHashCoversEveryInputKind)
{
    os::WorldSpec a = mixedWorld();
    os::WorldSpec b = a;
    EXPECT_EQ(query::hashWorld(a), query::hashWorld(b));
    b.env["SECRET"] = "abd";
    EXPECT_NE(query::hashWorld(a), query::hashWorld(b));

    os::WorldSpec c = a;
    c.files["/data.txt"] = "datb";
    EXPECT_NE(query::hashWorld(a), query::hashWorld(c));

    os::WorldSpec d = a;
    d.incoming.push_back({"GET /"});
    EXPECT_NE(query::hashWorld(a), query::hashWorld(d));
}

// ---------------------------------------------------------------------
// Campaign
// ---------------------------------------------------------------------

CampaignConfig
fastConfig()
{
    CampaignConfig cfg;
    cfg.deadlineSeconds = 20.0;
    return cfg;
}

TEST(Campaign, FindsTheLeakInTheDemoProgram)
{
    CampaignResult res = query::runCampaign(
        instrumentedModule(kMixedProgram), mixedWorld(), fastConfig());
    // 2 queryable sources x 3 default policies.
    EXPECT_EQ(res.queries.size(), 6u);
    EXPECT_EQ(res.dualExecutions, 6u);
    EXPECT_TRUE(res.anyCausality());
    bool env_edge = false;
    for (const query::GraphEdge &e : res.graph.edges)
        env_edge |= e.from == "src:env:env:SECRET" &&
                    e.to == "sink:console";
    EXPECT_TRUE(env_edge) << res.graph.toJson();
}

TEST(Campaign, GraphIsByteIdenticalAcrossJobsAndDrivers)
{
    const ir::Module &module = instrumentedModule(kMixedProgram);
    CampaignConfig base = fastConfig();

    CampaignConfig jobs8 = base;
    jobs8.jobs = 8;
    jobs8.queueCap = 2;

    CampaignConfig threaded = base;
    threaded.jobs = 4;
    threaded.threaded = true;

    std::string ref =
        query::runCampaign(module, mixedWorld(), base).graph.toJson();
    EXPECT_EQ(ref,
              query::runCampaign(module, mixedWorld(), jobs8)
                  .graph.toJson());
    EXPECT_EQ(ref,
              query::runCampaign(module, mixedWorld(), threaded)
                  .graph.toJson());
}

TEST(Campaign, WarmCacheDoesZeroDualExecutions)
{
    std::filesystem::path dir = std::filesystem::temp_directory_path() /
                                "ldx_query_campaign_cache";
    std::filesystem::remove_all(dir);

    const ir::Module &module = instrumentedModule(kMixedProgram);
    CampaignConfig cfg = fastConfig();
    cfg.cacheDir = dir.string();

    CampaignResult cold = query::runCampaign(module, mixedWorld(), cfg);
    EXPECT_EQ(cold.cacheHits, 0u);
    EXPECT_EQ(cold.dualExecutions, cold.queries.size());

    CampaignResult warm = query::runCampaign(module, mixedWorld(), cfg);
    EXPECT_EQ(warm.dualExecutions, 0u);
    EXPECT_EQ(warm.cacheHits, warm.queries.size());
    EXPECT_EQ(cold.graph.toJson(), warm.graph.toJson());

    std::filesystem::remove_all(dir);
}

TEST(Campaign, CancelledCampaignReportsCancelledQueries)
{
    std::atomic<bool> cancel{true};
    CampaignConfig cfg = fastConfig();
    cfg.cancel = &cancel;
    CampaignResult res = query::runCampaign(
        instrumentedModule(kMixedProgram), mixedWorld(), cfg);
    EXPECT_EQ(res.dualExecutions, 0u);
    EXPECT_EQ(res.cancelledQueries, res.queries.size());
    EXPECT_FALSE(res.anyCausality());
}

TEST(Campaign, MetricsLandInTheRegistry)
{
    obs::Registry registry;
    CampaignConfig cfg = fastConfig();
    cfg.registry = &registry;
    CampaignResult res = query::runCampaign(
        instrumentedModule(kMixedProgram), mixedWorld(), cfg);
    obs::MetricsSnapshot snap = registry.snapshot();
    EXPECT_EQ(snap.counterOr("campaign.dual.executions"),
              res.dualExecutions);
    EXPECT_EQ(snap.counterOr("campaign.queries.total"),
              res.queries.size());
    EXPECT_EQ(snap.counterOr("campaign.cache.misses"),
              res.cacheMisses);
    EXPECT_EQ(snap.counterOr("campaign.sched.completed"),
              res.queries.size());
    // Phase timing covered the pipeline.
    bool saw_execute = false;
    for (const obs::PhaseSample &p : res.phases)
        saw_execute |= p.name == "campaign.execute";
    EXPECT_TRUE(saw_execute);
}

// Acceptance: every vulnerable workload's campaign reports an edge
// from the known injected source to an observable sink.
TEST(Campaign, VulnerableWorkloadsReportTheInjectedEdge)
{
    const char *names[] = {"gif2png",  "mp3info", "prozilla",
                           "yopsweb",  "ngircd",  "gzip-alloc"};
    for (const char *name : names) {
        const workloads::Workload *w = workloads::findWorkload(name);
        ASSERT_NE(w, nullptr) << name;
        CampaignConfig cfg = fastConfig();
        cfg.sinks = w->sinks;
        cfg.policies = {core::MutationStrategy::OffByOne};
        CampaignResult res =
            query::runCampaign(workloads::workloadModule(*w, true),
                               w->world(w->defaultScale), cfg);
        EXPECT_TRUE(res.anyCausality()) << name;

        ASSERT_FALSE(w->sources.empty()) << name;
        std::string key = w->sources.front().resourceKey();
        bool from_injected = false;
        for (const query::GraphEdge &e : res.graph.edges)
            from_injected |= key.empty()
                                 ? e.from.find("incoming") !=
                                       std::string::npos
                                 : e.from.find(key) !=
                                       std::string::npos;
        EXPECT_TRUE(from_injected)
            << name << ": no edge from " << key << " in "
            << res.graph.toJson();
    }
}

} // namespace
} // namespace ldx
