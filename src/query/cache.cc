#include "query/cache.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <list>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>

#include "ir/printer.h"
#include "obs/recorder.h"

namespace ldx::query {

namespace {

// v2 added the trailing `end\t<fnv1a>` sentinel; v1 records (no
// sentinel) deliberately fail to parse and are recomputed.
constexpr const char *kRecordMagic = "ldx-campaign-cache v2";

void
appendKv(std::string &out, const std::string &k, const std::string &v)
{
    out += k;
    out += '\t';
    out += v;
    out += '\n';
}

} // namespace

std::string
CacheKey::digest() const
{
    // Fold the structured key into one collision-resistant-enough
    // name: two fnv1a passes over the textual rendering.
    std::string text = std::to_string(programHash) + "|" +
                       std::to_string(worldHash) + "|" + sourceId +
                       "|" + policy;
    std::uint64_t h1 = obs::fnv1a(text);
    std::uint64_t h2 = obs::fnv1a(text + "#2");
    char buf[64];
    std::snprintf(buf, sizeof buf, "%016llx%016llx",
                  static_cast<unsigned long long>(h1),
                  static_cast<unsigned long long>(h2));
    return buf;
}

std::string
canonicalWorld(const os::WorldSpec &world)
{
    // std::map iteration gives a canonical order for files/peers/env.
    std::string out;
    for (const auto &[path, data] : world.files)
        appendKv(out, "file:" + path, data);
    for (const auto &[host, script] : world.peers) {
        std::string resp;
        for (const std::string &r : script.responses) {
            resp += std::to_string(r.size());
            resp += ':';
            resp += r;
        }
        appendKv(out, "peer:" + host,
                 (script.echo ? "echo|" : "script|") + resp);
    }
    for (const os::IncomingConn &conn : world.incoming)
        appendKv(out, "incoming", conn.request);
    for (const auto &[name, value] : world.env)
        appendKv(out, "env:" + name, value);
    appendKv(out, "pid", std::to_string(world.pid));
    appendKv(out, "clock",
             std::to_string(world.clockBase) + "+" +
                 std::to_string(world.clockStepPerQuery));
    appendKv(out, "rdtsc", std::to_string(world.rdtscSeed));
    appendKv(out, "random", std::to_string(world.randomSeed));
    appendKv(out, "heap", std::to_string(world.heapBaseJitter));
    return out;
}

std::uint64_t
hashWorld(const os::WorldSpec &world)
{
    return obs::fnv1a(canonicalWorld(world));
}

std::uint64_t
hashProgram(const ir::Module &module)
{
    std::ostringstream ss;
    ir::printModule(ss, module);
    return obs::fnv1a(ss.str());
}

std::string
serializeVerdict(const QueryVerdict &v)
{
    std::string out = kRecordMagic;
    out += '\n';
    appendKv(out, "causality", v.causality ? "1" : "0");
    appendKv(out, "quality", verdictQualityName(v.quality));
    appendKv(out, "master_exit", std::to_string(v.masterExit));
    appendKv(out, "slave_exit", std::to_string(v.slaveExit));
    appendKv(out, "master_trapped", v.masterTrapped ? "1" : "0");
    appendKv(out, "slave_trapped", v.slaveTrapped ? "1" : "0");
    appendKv(out, "aligned", std::to_string(v.alignedSyscalls));
    appendKv(out, "diffs", std::to_string(v.syscallDiffs));
    appendKv(out, "findings", std::to_string(v.findings));
    for (const EdgeEvidence &e : v.edges)
        appendKv(out, "edge",
                 e.sinkId + "\t" + e.kind + "\t" +
                     std::to_string(e.count));
    // End sentinel: a checksum of the full body. A writer killed
    // mid-record — even exactly at a line boundary — leaves a file
    // without a matching sentinel, which parses as a clean miss.
    appendKv(out, "end", std::to_string(obs::fnv1a(out)));
    return out;
}

std::optional<QueryVerdict>
parseVerdict(const std::string &text)
{
    // The final line must be the end sentinel, and its checksum must
    // cover everything before it. Anything else is a torn or foreign
    // record and reads as a miss.
    if (text.empty() || text.back() != '\n')
        return std::nullopt;
    std::size_t prev = text.rfind('\n', text.size() - 2);
    std::size_t lastStart = prev == std::string::npos ? 0 : prev + 1;
    std::string last =
        text.substr(lastStart, text.size() - 1 - lastStart);
    if (last.rfind("end\t", 0) != 0)
        return std::nullopt;
    std::string body = text.substr(0, lastStart);
    if (last.substr(4) != std::to_string(obs::fnv1a(body)))
        return std::nullopt;

    std::istringstream in(body);
    std::string line;
    if (!std::getline(in, line) || line != kRecordMagic)
        return std::nullopt;
    QueryVerdict v;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        auto tab = line.find('\t');
        if (tab == std::string::npos)
            return std::nullopt;
        std::string key = line.substr(0, tab);
        std::string val = line.substr(tab + 1);
        try {
            if (key == "causality") {
                v.causality = val == "1";
            } else if (key == "quality") {
                if (val == "clean")
                    v.quality = VerdictQuality::Clean;
                else if (val == "decoupled")
                    v.quality = VerdictQuality::Decoupled;
                else if (val == "timed-out")
                    v.quality = VerdictQuality::TimedOut;
                else
                    return std::nullopt;
            } else if (key == "master_exit") {
                v.masterExit = std::stoll(val);
            } else if (key == "slave_exit") {
                v.slaveExit = std::stoll(val);
            } else if (key == "master_trapped") {
                v.masterTrapped = val == "1";
            } else if (key == "slave_trapped") {
                v.slaveTrapped = val == "1";
            } else if (key == "aligned") {
                v.alignedSyscalls = std::stoull(val);
            } else if (key == "diffs") {
                v.syscallDiffs = std::stoull(val);
            } else if (key == "findings") {
                v.findings = std::stoull(val);
            } else if (key == "edge") {
                auto t1 = val.find('\t');
                auto t2 = val.find('\t', t1 + 1);
                if (t1 == std::string::npos || t2 == std::string::npos)
                    return std::nullopt;
                EdgeEvidence e;
                e.sinkId = val.substr(0, t1);
                e.kind = val.substr(t1 + 1, t2 - t1 - 1);
                e.count = std::stoull(val.substr(t2 + 1));
                v.edges.push_back(std::move(e));
            }
            // Unknown keys are skipped so v2 readers stay compatible.
        } catch (const std::exception &) {
            return std::nullopt;
        }
    }
    return v;
}

// ---------------------------------------------------------------
// ShardedResultCache
// ---------------------------------------------------------------

namespace {

std::string
recordPath(const std::string &dir, const CacheKey &key)
{
    return dir + "/" + key.digest() + ".ldxq";
}

std::optional<QueryVerdict>
loadFromDisk(const std::string &dir, const CacheKey &key)
{
    std::ifstream in(recordPath(dir, key), std::ios::binary);
    if (!in)
        return std::nullopt;
    std::ostringstream ss;
    ss << in.rdbuf();
    return parseVerdict(ss.str());
}

/** Persist one record; returns whether it landed. */
bool
storeToDisk(const std::string &dir, const CacheKey &key,
            const QueryVerdict &verdict)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    std::string path = recordPath(dir, key);
    // Write-to-temp + atomic rename: a reader never observes a
    // half-written record, and concurrent writers of the same key
    // each land a complete record (last rename wins). The temp name
    // is per-thread-unique so concurrent writers don't tear each
    // other's temp files either.
    std::string tmp =
        path + ".tmp." +
        std::to_string(std::hash<std::thread::id>{}(
                           std::this_thread::get_id()) &
                       0xffffff);
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            return false;
        out << serializeVerdict(verdict);
        if (!out) {
            out.close();
            std::filesystem::remove(tmp, ec);
            return false;
        }
    }
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        std::filesystem::remove(tmp, ec);
        return false;
    }
    return true;
}

} // namespace

/** One LRU partition; every member is guarded by `mutex`. */
struct ShardedResultCache::Shard
{
    using Entry = std::pair<CacheKey, QueryVerdict>;

    explicit Shard(std::size_t cap) : capacity(cap) {}

    /** The in-memory verdict for @p key (refreshed to most recent). */
    const QueryVerdict *
    find(const CacheKey &key)
    {
        auto it = index.find(key);
        if (it == index.end())
            return nullptr;
        lru.splice(lru.begin(), lru, it->second);
        return &it->second->second;
    }

    /** Insert or refresh; returns whether the LRU tail was evicted. */
    bool
    insert(const CacheKey &key, const QueryVerdict &verdict)
    {
        if (auto it = index.find(key); it != index.end()) {
            it->second->second = verdict;
            lru.splice(lru.begin(), lru, it->second);
            return false;
        }
        bool evicted = index.size() >= capacity;
        if (evicted) {
            index.erase(lru.back().first);
            lru.pop_back();
        }
        lru.emplace_front(key, verdict);
        index.emplace(key, lru.begin());
        return evicted;
    }

    std::mutex mutex;
    std::size_t capacity;
    std::list<Entry> lru; ///< most recently used first
    std::map<CacheKey, std::list<Entry>::iterator> index;
};

ShardedResultCache::ShardedResultCache(std::size_t capacity,
                                       std::size_t shards,
                                       std::string dir,
                                       obs::Registry *registry)
    : dir_(std::move(dir)), registry_(registry)
{
    if (capacity == 0)
        capacity = 1;
    if (shards == 0)
        shards = 1;
    if (shards > capacity)
        shards = capacity; // keep every shard cap >= 1 exact
    // Split the global cap across shards; the remainder goes to the
    // first shards so the caps sum to exactly `capacity`.
    std::size_t base = capacity / shards;
    std::size_t extra = capacity % shards;
    shards_.reserve(shards);
    for (std::size_t i = 0; i < shards; ++i)
        shards_.push_back(
            std::make_unique<Shard>(base + (i < extra ? 1 : 0)));
}

ShardedResultCache::~ShardedResultCache() = default;

ShardedResultCache::Shard &
ShardedResultCache::shardFor(const CacheKey &key)
{
    if (shards_.size() == 1)
        return *shards_[0];
    return *shards_[obs::fnv1a(key.digest()) % shards_.size()];
}

void
ShardedResultCache::book(const char *name, obs::Registry *tenant)
{
    if (registry_)
        registry_->counter(std::string("serve.cache.") + name).inc();
    if (tenant)
        tenant->counter(std::string("campaign.cache.") + name).inc();
}

std::optional<QueryVerdict>
ShardedResultCache::lookup(const CacheKey &key, obs::Registry *tenant)
{
    Shard &shard = shardFor(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (const QueryVerdict *v = shard.find(key)) {
        ++hits_;
        book("hits", tenant);
        return *v;
    }
    if (!dir_.empty()) {
        if (std::optional<QueryVerdict> disk = loadFromDisk(dir_, key)) {
            ++hits_;
            book("hits", tenant);
            book("disk_loads", tenant);
            // Promote into the memory tier without re-writing disk.
            if (shard.insert(key, *disk)) {
                ++evictions_;
                book("evictions", tenant);
            }
            return disk;
        }
    }
    ++misses_;
    book("misses", tenant);
    return std::nullopt;
}

bool
ShardedResultCache::store(const CacheKey &key,
                          const QueryVerdict &verdict,
                          obs::Registry *tenant)
{
    Shard &shard = shardFor(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    bool evicted = shard.insert(key, verdict);
    if (evicted) {
        ++evictions_;
        book("evictions", tenant);
    }
    if (!dir_.empty() && storeToDisk(dir_, key, verdict))
        book("disk_stores", tenant);
    return evicted;
}

std::size_t
ShardedResultCache::size() const
{
    std::size_t total = 0;
    for (const auto &s : shards_) {
        std::lock_guard<std::mutex> lock(s->mutex);
        total += s->index.size();
    }
    return total;
}

} // namespace ldx::query
