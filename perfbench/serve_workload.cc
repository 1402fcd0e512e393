/**
 * @file
 * serve-mixed — the `ldx submit` path. An in-process serve::Server
 * (one pool worker) listens on a Unix socket in the run directory; the
 * benchmark holds one client connection and speaks ldx-serve-v1 itself
 * through serve/protocol.h and serve/wire.h, so it can timestamp every
 * frame. One op is one submit round trip: submit, accepted, the
 * verdict stream, graph, done.
 *
 * The op list mixes three kinds of job in fixed proportions (the seed
 * sets the order and the cold jobs' nonces):
 *  - warm: a resubmit of a job primed during set-up — the built-in
 *    workloads (but three, see leftOutOfWarmSet), every golden-corpus
 *    entry, and every generator-pool program on its base world. All
 *    verdicts are cache hits and the job runs zero dual executions.
 *  - cold: a pool program sent as inline source with its world plus an
 *    env var naming the op (a nonce the program never reads). The
 *    nonce changes the world hash, so every query misses the cache,
 *    while the program's execution, and so its cost, stays fixed.
 *  - snapshot: a cold job with "snapshot": true.
 * Each round holds every warm job kWarmPerRound times and every pool
 * program (generatorPool()) once cold and once as a snapshot job.
 *
 * Every streamed graph is checked byte for byte against the offline
 * query::runCampaign graph of the same job, computed during set-up;
 * for a cold job only the world_hash member differs from its pool
 * program's reference, and it must equal query::hashWorld of the
 * job's world.
 */
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <thread>

#include "bench.h"
#include "fuzz/generator.h"
#include "query/cache.h"
#include "query/campaign.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "workloads/corpus/corpus.h"
#include "workloads/workloads.h"

namespace perfbench {
namespace {

using namespace ldx;

/**
 * Rounds per --seconds, and warm resubmits of each warm job per round.
 * A round (2 x 53 warm ops, every pool program cold and as a snapshot
 * job: 138 ops) takes about 220 ms on a 4-core x86-64 host (Release
 * build). Warm ops are 77% of the list, so the median lies well inside
 * the warm cluster rather than where it meets the cold jobs; the op
 * count stays below 10,000, so the tail rule picks p99, which lands
 * among the slowest snapshot jobs.
 */
constexpr int kRoundsPerSecond = 3;
constexpr int kWarmPerRound = 2;

/**
 * Built-ins left out of the warm set. 483.xalancbmk's priming
 * campaign alone takes about 7 s. A warm resubmit of 456.hmmer or
 * 429.mcf is dominated by the daemon's baseline enumeration run
 * (5-20 ms, slower than a cold pool job), so those two would own the
 * tail of a workload meant to time the cache, framing and the
 * snapshot path; campaign-cold runs all three.
 */
bool
leftOutOfWarmSet(const std::string &name)
{
    return name == "483.xalancbmk" || name == "456.hmmer" ||
           name == "429.mcf";
}

constexpr const char *kNonceVar = "LDXBENCH_NONCE";

enum class Kind
{
    Warm,
    Cold,
    Snapshot,
};

/** One job the benchmark can submit, with its offline reference. */
struct Job
{
    std::string label;
    serve::SubmitRequest req; ///< id and nonce filled per op
    /** Offline reference graph, split around the world_hash value. */
    std::string refHead;
    std::string refHash;
    std::string refTail;
    std::uint64_t refInstrs = 0; ///< baseline + prefix instructions
};

/** One op: a job and its kind; cold ops carry their nonce. */
struct Op
{
    std::size_t job = 0;
    Kind kind = Kind::Warm;
    std::string nonce;
};

/** A frame as read off the socket, with its arrival time. */
struct Frame
{
    std::string line;
    std::int64_t atNs = 0;
};

/** Per-op figures the traced loop keeps for the per-layer rows. */
struct TracedSubmit
{
    Kind kind = Kind::Warm;
    double seconds = 0.0;
    double acceptedSeconds = 0.0;
    std::uint64_t bytes = 0;
    std::uint64_t queries = 0;
    std::uint64_t cached = 0;
};

class ServeWorkload : public Workload
{
  public:
    explicit ServeWorkload(const Options &opt) : opt_(opt)
    {
        buildJobs();
        std::vector<Op> round;
        for (std::size_t j = 0; j < jobs_.size(); ++j)
            round.insert(round.end(), kWarmPerRound, Op{j, Kind::Warm, ""});
        for (std::size_t j = firstPool_; j < jobs_.size(); ++j) {
            round.push_back({j, Kind::Cold, ""});
            round.push_back({j, Kind::Snapshot, ""});
        }
        for (int r = 0; r < opt.seconds * kRoundsPerSecond; ++r)
            ops_.insert(ops_.end(), round.begin(), round.end());
        shuffleBySeed(ops_, opt.seed);
        for (std::size_t i = 0; i < ops_.size(); ++i) {
            Op &op = ops_[i];
            if (op.kind != Kind::Warm)
                op.nonce = std::to_string(opt.seed) + "." + std::to_string(i);
            labels_.push_back(std::string(kindName(op.kind)) + ":" +
                              jobs_[op.job].label +
                              (op.nonce.empty() ? "" : "@" + op.nonce));
        }
    }

    ~ServeWorkload() override { teardown(); }

    void
    setup() override
    {
        computeReferences();
        startDaemon();
        // Prime the warm set through the daemon's shared cache.
        for (std::size_t j = 0; j < jobs_.size(); ++j) {
            OpResult r = submit({j, Kind::Warm, ""}, nullptr, false);
            if (!r.ok)
                throw std::runtime_error("priming " + jobs_[j].label +
                                         ": " + r.error);
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
        // Every job warm, and every pool program cold and snapshot
        // under warm-up nonces the op list never uses.
        std::vector<Op> ops;
        for (std::size_t j = 0; j < jobs_.size(); ++j)
            ops.push_back({j, Kind::Warm, ""});
        for (std::size_t j = firstPool_; j < jobs_.size(); ++j) {
            ops.push_back({j, Kind::Cold, "warmup.c" + std::to_string(j)});
            ops.push_back(
                {j, Kind::Snapshot, "warmup.s" + std::to_string(j)});
        }
        for (const Op &op : ops) {
            OpResult r = submit(op, nullptr, op.kind == Kind::Warm);
            if (!r.ok)
                return jobs_[op.job].label + ": " + r.error;
        }
        return "";
    }

    OpResult
    runOp(std::size_t i, Tracer *tr) override
    {
        return submit(ops_[i], tr, ops_[i].kind == Kind::Warm);
    }

    void
    perLayer(Tracer &tr, MetricMap &out,
             std::vector<std::string> &errors) override
    {
        std::vector<std::string> sources;
        for (const PoolProgram &p : generatorPool())
            sources.push_back(p.source);
        frontEndRows(tr, sources, out);

        std::vector<double> accepted, warm, snap, bytes;
        std::uint64_t queries = 0, cached = 0;
        for (const TracedSubmit &t : traced_) {
            accepted.push_back(t.acceptedSeconds);
            bytes.push_back(static_cast<double>(t.bytes));
            queries += t.queries;
            cached += t.cached;
            if (t.kind == Kind::Warm)
                warm.push_back(t.seconds);
            if (t.kind == Kind::Snapshot)
                snap.push_back(t.seconds);
        }
        traced_.clear();
        out["serve.accepted_ms"] = {median(accepted) * 1e3, "ms"};
        out["serve.warm_roundtrip_p50_ms"] = {median(warm) * 1e3, "ms"};
        out["serve.wire.parse_us"] = {
            mean(tr.durations("serve.wire.parse")) * 1e6, "us"};
        out["serve.frame_bytes"] = {mean(bytes), "B"};
        out["query.cache.hit_ratio"] = {
            queries ? static_cast<double>(cached) /
                          static_cast<double>(queries)
                    : 0.0,
            "ratio"};
        out["ldx.snapshot.job_ms"] = {median(snap) * 1e3, "ms"};

        // Traced-only replays of the daemon's campaign path without
        // the framing: every warm job against a primed sharded cache
        // (the daemon's cache type), and every snapshot pool program.
        query::ShardedResultCache cache(4096, 8, "", nullptr);
        std::vector<double> enumerate, plan, aggregate, probe_us;
        std::uint64_t prefix_runs = 0, forks = 0, saved = 0;
        std::uint64_t op = kAuxOp + generatorPool().size();
        for (std::size_t j = 0; j < jobs_.size(); ++j) {
            tr.beginOp(op++);
            Resolved job = resolve(jobs_[j].req);
            query::CampaignConfig cc;
            cc.sinks = job.sinks;
            cc.sharedCache = &cache;
            query::runCampaign(*job.module, job.world, cc); // prime
            int span = tr.open("query.runCampaign");
            query::CampaignResult res =
                query::runCampaign(*job.module, job.world, cc);
            tr.close(span);
            tr.attachPhases(res.phases, span);
            if (res.cacheHits != res.queries.size())
                errors.push_back(jobs_[j].label + ": replay missed cache");
            for (const obs::PhaseSample &p : res.phases) {
                if (p.name == "campaign.enumerate")
                    enumerate.push_back(p.seconds);
                else if (p.name == "campaign.plan")
                    plan.push_back(p.seconds);
                else if (p.name == "campaign.aggregate")
                    aggregate.push_back(p.seconds);
                else if (p.name == "campaign.probe-cache" &&
                         !res.queries.empty())
                    probe_us.push_back(
                        p.seconds /
                        static_cast<double>(res.queries.size()) * 1e6);
            }
        }
        for (std::size_t j = firstPool_; j < jobs_.size(); ++j) {
            tr.beginOp(op++);
            Resolved job = resolve(jobs_[j].req);
            query::CampaignConfig cc;
            cc.snapshot = true;
            SpanGuard g(&tr, "query.runCampaign.snapshot");
            query::CampaignResult res =
                query::runCampaign(*job.module, job.world, cc);
            serve::SubmitRequest base = jobs_[j].req;
            if (!graphMatches(jobs_[j], base, res.graph.toJson()))
                errors.push_back(jobs_[j].label +
                                 ": snapshot graph differs");
            prefix_runs += res.snapshotPrefixRuns;
            forks += res.snapshotForks;
            saved += res.snapshotInstrsSaved;
        }
        out["query.enumerate_ms"] = {mean(enumerate) * 1e3, "ms"};
        out["query.plan_ms"] = {mean(plan) * 1e3, "ms"};
        out["query.aggregate_ms"] = {mean(aggregate) * 1e3, "ms"};
        out["query.cache.probe_us"] = {mean(probe_us), "us"};
        out["ldx.snapshot.prefix_runs"] = {static_cast<double>(prefix_runs),
                                           "count"};
        out["ldx.snapshot.forks"] = {static_cast<double>(forks), "count"};
        out["ldx.snapshot.instrs_saved"] = {static_cast<double>(saved),
                                            "count"};
    }

    void
    teardown() override
    {
        if (fd_ >= 0) {
            ::close(fd_);
            fd_ = -1;
        }
        if (server_) {
            shutdown_.store(true);
            thread_.join();
            server_.reset();
        }
        readBuf_.clear();
    }

  private:
    /** A job resolved the way the daemon resolves it. */
    struct Resolved
    {
        const ir::Module *module = nullptr;
        std::unique_ptr<ir::Module> owned;
        os::WorldSpec world;
        core::SinkConfig sinks;
    };

    static const char *
    kindName(Kind k)
    {
        return k == Kind::Warm ? "warm" : k == Kind::Cold ? "cold" : "snap";
    }

    void
    buildJobs()
    {
        for (const workloads::Workload &w : workloads::allWorkloads()) {
            if (leftOutOfWarmSet(w.name))
                continue;
            Job j;
            j.label = w.name;
            j.req.workload = w.name;
            jobs_.push_back(std::move(j));
        }
        for (const workloads::CorpusEntry &e : workloads::corpusEntries()) {
            Job j;
            j.label = e.name;
            j.req.workload = e.name;
            jobs_.push_back(std::move(j));
        }
        firstPool_ = jobs_.size();
        for (const PoolProgram &p : generatorPool()) {
            Job j;
            j.label = p.name;
            j.req.source = p.source;
            j.req.env = p.world.env;
            j.req.files = p.world.files;
            jobs_.push_back(std::move(j));
        }
    }

    /** Resolve @p req like the daemon: built-in, corpus, or inline. */
    static Resolved
    resolve(const serve::SubmitRequest &req)
    {
        Resolved r;
        if (const workloads::Workload *w =
                workloads::findWorkload(req.workload)) {
            r.module = &workloads::workloadModule(*w, true);
            r.world = w->world(w->defaultScale);
            r.sinks = w->sinks;
            return r;
        }
        std::string source = req.source;
        for (const workloads::CorpusEntry &e : workloads::corpusEntries())
            if (e.name == req.workload) {
                source = e.source;
                r.world = fuzz::ProgramGenerator::worldFor(e.seed);
            }
        r.owned = compileInstrumented(source, nullptr);
        r.module = r.owned.get();
        for (const auto &[k, v] : req.env)
            r.world.env[k] = v;
        for (const auto &[k, v] : req.files)
            r.world.files[k] = v;
        return r;
    }

    void
    computeReferences()
    {
        for (Job &j : jobs_) {
            Resolved job = resolve(j.req);
            query::CampaignConfig cc;
            cc.sinks = job.sinks;
            query::CampaignResult res =
                query::runCampaign(*job.module, job.world, cc);
            std::string json = res.graph.toJson();
            std::string hash = std::to_string(res.worldHash);
            std::string key = "\"world_hash\":\"" + hash + "\"";
            std::size_t at = json.find(key);
            if (at == std::string::npos)
                throw std::runtime_error(j.label + ": no world_hash");
            std::size_t value = at + key.size() - hash.size() - 1;
            j.refHead = json.substr(0, value);
            j.refHash = hash;
            j.refTail = json.substr(value + hash.size());
            j.refInstrs = res.baseline.instructions + res.prefixInstrs;
        }
    }

    void
    startDaemon()
    {
        socketPath_ = opt_.runDir + "/ldxbench-" +
                      std::to_string(::getpid()) + ".sock";
        serve::ServeConfig cfg;
        cfg.socketPath = socketPath_;
        cfg.jobs = 1;
        cfg.version = "perfbench";
        cfg.shutdown = &shutdown_;
        shutdown_.store(false);
        server_ = std::make_unique<serve::Server>(cfg);
        std::string err;
        if (!server_->start(&err)) {
            server_.reset();
            throw std::runtime_error("daemon: " + err);
        }
        thread_ = std::thread([this] { server_->serve(); });

        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::memcpy(addr.sun_path, socketPath_.c_str(),
                    socketPath_.size() + 1);
        if (fd_ < 0 ||
            ::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                      sizeof addr) != 0)
            throw std::runtime_error("cannot connect to " + socketPath_);
        writeLine(serve::renderHello(""));
        Frame hello = readFrame();
        std::optional<serve::JsonValue> v = serve::parseJson(hello.line);
        if (!v || v->stringOr("type", "") != "hello")
            throw std::runtime_error("no hello from the daemon");
    }

    void
    writeLine(std::string line)
    {
        line += '\n';
        std::size_t off = 0;
        while (off < line.size()) {
            ssize_t n = ::send(fd_, line.data() + off, line.size() - off,
                               MSG_NOSIGNAL);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                throw std::runtime_error("daemon connection lost on send");
            off += static_cast<std::size_t>(n);
        }
    }

    Frame
    readFrame()
    {
        for (;;) {
            std::size_t nl = readBuf_.find('\n', scanned_);
            if (nl != std::string::npos) {
                Frame f{readBuf_.substr(0, nl), nowNs()};
                readBuf_.erase(0, nl + 1);
                scanned_ = 0;
                return f;
            }
            scanned_ = readBuf_.size();
            char buf[65536];
            ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                throw std::runtime_error("daemon connection lost");
            readBuf_.append(buf, static_cast<std::size_t>(n));
        }
    }

    /** One submit round trip over the connection, checked. */
    OpResult
    submit(const Op &op, Tracer *tr, bool expect_warm)
    {
        const Job &job = jobs_[op.job];
        std::int64_t t0 = nowNs();
        OpResult r;
        serve::SubmitRequest req = job.req;
        req.id = "op" + std::to_string(++seq_);
        req.snapshot = op.kind == Kind::Snapshot;
        if (!op.nonce.empty())
            req.env[kNonceVar] = op.nonce;
        std::uint64_t bytes = 0;
        double accepted_s = 0.0;
        {
            SpanGuard g(tr, "serve.write");
            writeLine(serve::renderSubmit(req));
        }
        int wait_span = tr ? tr->open("serve.await_accepted") : -1;
        int stream_span = -1;
        std::string graph;
        bool done = false;
        std::uint64_t planned = 0, verdicts = 0;
        while (!done) {
            Frame f = readFrame();
            bytes += f.line.size() + 1;
            if (wait_span >= 0) {
                tr->close(wait_span);
                wait_span = -1;
                stream_span = tr->open("serve.stream");
            }
            std::optional<serve::JsonValue> v;
            {
                SpanGuard g(tr, "serve.wire.parse");
                v = serve::parseJson(f.line);
            }
            if (!v || !v->isObject()) {
                r.error = "malformed frame";
                break;
            }
            std::string type = v->stringOr("type", "");
            if (type != "error" && v->stringOr("id", "") != req.id) {
                r.error = "frame for another job: " + type;
                break;
            }
            if (type == "accepted") {
                planned = v->uintOr("queries", 0);
                accepted_s = static_cast<double>(f.atNs - t0) * 1e-9;
            } else if (type == "verdict") {
                if (verdicts++ == 0)
                    r.firstVerdictSeconds =
                        static_cast<double>(f.atNs - t0) * 1e-9;
            } else if (type == "graph") {
                graph = v->stringOr("json", "");
            } else if (type == "done") {
                done = true;
                r.dualExecutions = v->uintOr("executed", 0);
                std::uint64_t cached = v->uintOr("cached", 0);
                if (v->uintOr("failed", 1) || v->uintOr("cancelled", 1) ||
                    v->uintOr("timed_out", 1))
                    r.error = "failed, cancelled or timed-out queries";
                else if (expect_warm &&
                         (r.dualExecutions || cached != planned))
                    r.error = "warm job ran dual executions";
                else if (!expect_warm && op.kind != Kind::Warm && cached)
                    r.error = "cold job hit the cache";
                if (tr)
                    traced_.push_back({op.kind,
                                       static_cast<double>(f.atNs - t0) *
                                           1e-9,
                                       accepted_s, bytes, planned, cached});
            } else {
                r.error = type + " frame: " + v->stringOr("message", "") +
                          v->stringOr("reason", "");
                break;
            }
        }
        if (stream_span >= 0)
            tr->close(stream_span);
        if (wait_span >= 0)
            tr->close(wait_span);
        if (!done && r.error.empty())
            r.error = "no done frame";
        if (!done) // the stream is out of step: nothing after is valid
            throw std::runtime_error(req.id + ": " + r.error);
        r.verdicts = verdicts;
        r.queriesPlanned = planned;
        r.retiredInstrs = job.refInstrs;
        if (r.error.empty() && verdicts != planned)
            r.error = "verdict frames " + std::to_string(verdicts) +
                      " != planned " + std::to_string(planned);
        if (r.error.empty() && !graphMatches(job, req, graph))
            r.error = "graph differs from the offline campaign graph";
        r.ok = r.error.empty();
        return r;
    }

    /** The served graph equals the job's offline reference graph. */
    static bool
    graphMatches(const Job &job, const serve::SubmitRequest &req,
                 const std::string &graph)
    {
        std::string hash = job.refHash;
        if (req.env.count(kNonceVar)) {
            os::WorldSpec world;
            world.env = req.env;
            world.files = req.files;
            hash = std::to_string(query::hashWorld(world));
        }
        return graph.size() ==
                   job.refHead.size() + hash.size() + job.refTail.size() &&
               graph.compare(0, job.refHead.size(), job.refHead) == 0 &&
               graph.compare(job.refHead.size(), hash.size(), hash) == 0 &&
               graph.compare(job.refHead.size() + hash.size(),
                             job.refTail.size(), job.refTail) == 0;
    }

    Options opt_;
    std::vector<Job> jobs_;
    std::size_t firstPool_ = 0;
    std::vector<Op> ops_;
    std::vector<std::string> labels_;
    std::vector<TracedSubmit> traced_;

    std::string socketPath_;
    std::atomic<bool> shutdown_{false};
    std::unique_ptr<serve::Server> server_;
    std::thread thread_;
    int fd_ = -1;
    std::string readBuf_;
    std::size_t scanned_ = 0;
    std::uint64_t seq_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeServeWorkload(const Options &opt)
{
    return std::make_unique<ServeWorkload>(opt);
}

} // namespace perfbench
