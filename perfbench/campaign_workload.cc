/**
 * @file
 * campaign-cold — the `ldx campaign` path. One op is one
 * query::runCampaign with a fresh in-memory cache and the default
 * config except jobs = 1, over every built-in workload at default
 * scale, every promoted golden-corpus program and the generated pool
 * (generatorPool()). The seed sets the order; the mix is fixed.
 *
 * 483.xalancbmk appears once: its three whole-value /doc.xml queries
 * retire few instructions yet spend about 7 s in lockstep-driver idle
 * rounds, the stall path this workload exists to expose. At
 * --seconds 20 every golden-corpus program (the query-rich fuzzer
 * programs, three of them threaded at about 0.2 s a campaign) appears
 * 15 times and every other program twice: 267 ops. The tail rule then
 * picks p95, the 14th-slowest op, which lands in the upper third of the
 * cluster of the threaded corpus programs and 456.hmmer (47 ops), where
 * it reads the same program mix whatever the seed; the median lands
 * among the many 1-4 ms campaigns.
 */
#include <atomic>
#include <fstream>
#include <sstream>

#include "bench.h"
#include "fuzz/generator.h"
#include "ldx/engine.h"
#include "query/campaign.h"
#include "workloads/corpus/corpus.h"
#include "workloads/workloads.h"

namespace perfbench {
namespace {

using namespace ldx;

/**
 * Repeats of each golden-corpus program, and of every other program
 * but kStallProgram, per 20 --seconds. At --seconds 20 a run takes
 * about 17 s on a 4-core x86-64 host (Release build).
 */
constexpr int kCorpusRepeatsPer20s = 15;
constexpr int kRepeatsPer20s = 2;

/**
 * In the op list once, and left out of the warm-up pass (it warms
 * nothing the others do not).
 */
constexpr const char *kStallProgram = "483.xalancbmk";

/** One campaign program; exactly one of the three sources is set. */
struct Program
{
    std::string name;
    const workloads::Workload *builtin = nullptr;
    const workloads::CorpusEntry *corpus = nullptr;
    const PoolProgram *pool = nullptr;

    // Built by setup().
    std::unique_ptr<ir::Module> module{};
    os::WorldSpec world{};
    std::string golden{}; ///< corpus entries: expected graph JSON
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** Per-op numbers the traced loop keeps for the per-layer rows. */
struct TracedCampaign
{
    std::size_t queries = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::map<std::string, double> phases;
    std::vector<double> execSeconds;
    std::vector<double> queueWaitSeconds;
};

class CampaignWorkload : public Workload
{
  public:
    explicit CampaignWorkload(const Options &opt) : opt_(opt)
    {
        const int repeats = std::max(1, opt.seconds * kRepeatsPer20s / 20);
        const int corpus_repeats =
            std::max(1, opt.seconds * kCorpusRepeatsPer20s / 20);
        std::vector<int> count;
        for (const workloads::Workload &w : workloads::allWorkloads()) {
            programs_.push_back({.name = w.name, .builtin = &w});
            count.push_back(w.name == kStallProgram ? 1 : repeats);
        }
        for (const workloads::CorpusEntry &e : workloads::corpusEntries()) {
            programs_.push_back({.name = e.name, .corpus = &e});
            count.push_back(corpus_repeats);
        }
        for (const PoolProgram &g : generatorPool()) {
            programs_.push_back({.name = g.name, .pool = &g});
            count.push_back(repeats);
        }
        for (std::size_t i = 0; i < programs_.size(); ++i)
            ops_.insert(ops_.end(), static_cast<std::size_t>(count[i]), i);
        shuffleBySeed(ops_, opt.seed);
        for (std::size_t p : ops_)
            labels_.push_back(programs_[p].name);
    }

    void
    setup() override
    {
        for (Program &p : programs_) {
            if (p.builtin) {
                p.module = compileInstrumented(p.builtin->source, nullptr);
                p.world = p.builtin->world(p.builtin->defaultScale);
            } else if (p.corpus) {
                p.module = compileInstrumented(p.corpus->source, nullptr);
                p.world = fuzz::ProgramGenerator::worldFor(p.corpus->seed);
                p.golden = readFile(opt_.corpusDir + "/" + p.name +
                                    ".golden.json");
            } else {
                p.module = compileInstrumented(p.pool->source, nullptr);
                p.world = p.pool->world;
            }
        }
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
        for (const Program &p : programs_) {
            if (p.name == kStallProgram)
                continue;
            query::CampaignResult res =
                query::runCampaign(*p.module, p.world, config(p, 1));
            if (!check(p, res, res.graph.toJson(), error))
                break;
        }
        return error;
    }

    OpResult
    runOp(std::size_t i, Tracer *tr) override
    {
        std::int64_t t0 = nowNs();
        const Program &p = programs_[ops_[i]];
        std::atomic<std::int64_t> first{-1};
        std::atomic<std::uint64_t> verdicts{0};
        query::CampaignConfig cc = config(p, 1);
        cc.onVerdict = [&](const query::CampaignQuery &,
                           const query::QueryVerdict &, bool) {
            verdicts.fetch_add(1, std::memory_order_relaxed);
            std::int64_t none = -1;
            first.compare_exchange_strong(none, nowNs());
        };
        int span = tr ? tr->open("query.runCampaign") : -1;
        query::CampaignResult res =
            query::runCampaign(*p.module, p.world, cc);
        if (tr) {
            tr->close(span);
            traced_.push_back(attach(*tr, res, span));
            queriesOf_[ops_[i]] = res.queries;
        }
        std::string json;
        {
            SpanGuard g(tr, "query.graph.json");
            json = res.graph.toJson();
        }

        OpResult r;
        r.verdicts = verdicts.load();
        if (first.load() >= 0)
            r.firstVerdictSeconds =
                static_cast<double>(first.load() - t0) * 1e-9;
        r.queriesPlanned = res.queries.size();
        r.dualExecutions = res.dualExecutions;
        r.retiredInstrs = res.baseline.instructions + res.prefixInstrs;
        r.ok = check(p, res, json, r.error);
        return r;
    }

    void
    perLayer(Tracer &tr, MetricMap &out,
             std::vector<std::string> &errors) override
    {
        std::vector<std::string> sources;
        for (const Program &p : programs_)
            sources.push_back(p.builtin  ? p.builtin->source
                              : p.corpus ? p.corpus->source
                                         : p.pool->source);
        frontEndRows(tr, sources, out);

        std::vector<double> enumerate, plan, aggregate, exec, wait,
            probe_us;
        std::uint64_t hits = 0, lookups = 0;
        for (const TracedCampaign &t : traced_) {
            enumerate.push_back(phaseOr(t, "campaign.enumerate"));
            plan.push_back(phaseOr(t, "campaign.plan"));
            aggregate.push_back(phaseOr(t, "campaign.aggregate"));
            if (t.queries)
                probe_us.push_back(phaseOr(t, "campaign.probe-cache") /
                                   static_cast<double>(t.queries) * 1e6);
            exec.insert(exec.end(), t.execSeconds.begin(),
                        t.execSeconds.end());
            wait.insert(wait.end(), t.queueWaitSeconds.begin(),
                        t.queueWaitSeconds.end());
            hits += t.hits;
            lookups += t.hits + t.misses;
        }
        out["query.enumerate_ms"] = {mean(enumerate) * 1e3, "ms"};
        out["query.plan_ms"] = {mean(plan) * 1e3, "ms"};
        out["query.aggregate_ms"] = {mean(aggregate) * 1e3, "ms"};
        out["query.exec_p50_ms"] = {percentile(exec, 50) * 1e3, "ms"};
        out["query.exec_tail_ms"] = {
            percentile(exec, tailPercentile(exec.size())) * 1e3, "ms"};
        out["query.queue_wait_p50_ms"] = {percentile(wait, 50) * 1e3,
                                          "ms"};
        out["query.graph.json_ms"] = {
            mean(tr.durations("query.graph.json")) * 1e3, "ms"};
        out["query.cache.hit_ratio"] = {
            lookups ? static_cast<double>(hits) /
                          static_cast<double>(lookups)
                    : 0.0,
            "ratio"};
        out["query.cache.probe_us"] = {mean(probe_us), "us"};
        traced_.clear();

        // Traced-only passes over each program once: the campaign's
        // queries replayed as plain dual runs (the campaign keeps each
        // run's registry private, so its driver counters are only
        // visible this way), and the campaign again at jobs = 2.
        std::uint64_t op = kAuxOp + programs_.size();
        DualTally tally;
        std::vector<double> wait2;
        for (std::size_t i = 0; i < programs_.size(); ++i) {
            const Program &p = programs_[i];
            const query::CampaignConfig base = config(p, 1);
            tr.beginOp(op++);
            for (const query::CampaignQuery &q : queriesOf_[i]) {
                core::EngineConfig ecfg;
                ecfg.sinks = base.sinks;
                ecfg.sources = {q.spec};
                ecfg.strategy = q.strategy;
                ecfg.flightRecorder = false;
                ecfg.wallClockCap = base.deadlineSeconds;
                std::int64_t t0 = nowNs();
                core::DualEngine engine(*p.module, p.world, ecfg);
                core::DualResult d = engine.run();
                tally.add(d, static_cast<double>(nowNs() - t0) * 1e-9);
                tr.attach("ldx.engine.run", t0, nowNs(), -1);
            }
            query::CampaignResult two =
                query::runCampaign(*p.module, p.world, config(p, 2));
            std::string err;
            if (!check(p, two, two.graph.toJson(), err))
                errors.push_back("jobs=2 " + err);
            for (std::size_t q = 0; q < two.outcomes.size(); ++q)
                if (!two.fromCache[q])
                    wait2.push_back(two.outcomes[q].queueWaitSeconds);
        }
        tally.emit(out);
        out["query.sched.queue_wait_p50_ms_jobs2"] = {
            percentile(wait2, 50) * 1e3, "ms"};
    }

  private:
    static query::CampaignConfig
    config(const Program &p, int jobs)
    {
        query::CampaignConfig cc;
        if (p.builtin)
            cc.sinks = p.builtin->sinks;
        cc.jobs = jobs;
        return cc;
    }

    static double
    phaseOr(const TracedCampaign &t, const std::string &name)
    {
        auto it = t.phases.find(name);
        return it == t.phases.end() ? 0.0 : it->second;
    }

    /** Attach the campaign's phases and executed queries as spans. */
    static TracedCampaign
    attach(Tracer &tr, const query::CampaignResult &res, int span)
    {
        TracedCampaign t;
        t.queries = res.queries.size();
        t.hits = res.cacheHits;
        t.misses = res.cacheMisses;
        std::vector<int> ids = tr.attachPhases(res.phases, span);
        int exec_span = span;
        for (std::size_t k = 0; k < res.phases.size(); ++k) {
            t.phases[res.phases[k].name] += res.phases[k].seconds;
            if (res.phases[k].name == "campaign.execute")
                exec_span = ids[k];
        }
        // jobs = 1: executed queries run back to back, so their spans
        // never overlap. Queue waits overlap earlier queries' runs and
        // are reported as numbers only.
        for (std::size_t q = 0; q < res.outcomes.size(); ++q) {
            const query::RunOutcome &o = res.outcomes[q];
            if (res.fromCache[q] || o.startUs == 0)
                continue;
            std::int64_t start = obsUsToNs(o.startUs);
            tr.attach("query.exec", start,
                      start + static_cast<std::int64_t>(o.seconds * 1e9),
                      exec_span);
            t.execSeconds.push_back(o.seconds);
            t.queueWaitSeconds.push_back(o.queueWaitSeconds);
        }
        return t;
    }

    static bool
    check(const Program &p, const query::CampaignResult &res,
          const std::string &json, std::string &error)
    {
        if (res.failedQueries || res.timedOutQueries ||
            res.cancelledQueries) {
            error = p.name + ": " + std::to_string(res.failedQueries) +
                    " failed, " + std::to_string(res.timedOutQueries) +
                    " timed out, " +
                    std::to_string(res.cancelledQueries) + " cancelled";
        } else if (!p.golden.empty() && json != p.golden) {
            error = p.name + ": graph differs from its golden";
        } else if (p.builtin && p.builtin->category ==
                                    workloads::Category::Vulnerable) {
            // The edge from the injected source (an incoming connection
            // when the source has no resource key).
            std::string key = p.builtin->sources.front().resourceKey();
            bool found = false;
            for (const query::GraphEdge &e : res.graph.edges)
                found |= e.from.find(key.empty() ? "incoming" : key) !=
                         std::string::npos;
            if (!found)
                error = p.name + ": no edge from the injected source";
        }
        return error.empty();
    }

    Options opt_;
    std::vector<Program> programs_;
    std::vector<std::size_t> ops_; ///< program index per op
    std::vector<std::string> labels_;
    std::vector<TracedCampaign> traced_;
    std::map<std::size_t, std::vector<query::CampaignQuery>> queriesOf_;
};

} // namespace

std::unique_ptr<Workload>
makeCampaignWorkload(const Options &opt)
{
    return std::make_unique<CampaignWorkload>(opt);
}

} // namespace perfbench
