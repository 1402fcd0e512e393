/**
 * @file
 * Result cache for the batch causality-inference engine.
 *
 * A campaign query's verdict is fully determined by (program, world,
 * source, mutation policy) — the dual-execution protocol makes the
 * verdict independent of the driver, worker count, and completion
 * order — so verdicts are cached under exactly that key:
 *
 *   (program hash, world hash, source id, policy)
 *
 * The in-memory tier is a bounded, sharded LRU map. When a cache
 * directory is configured, verdicts are additionally persisted as
 * small text records (one file per key, named by the key hash), so a
 * re-run of the same campaign — or an overlapping campaign over the
 * same program/world — performs zero dual executions for the shared
 * queries. Hit/miss/eviction tallies land in the campaign's metrics
 * registry (campaign.cache.*).
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/registry.h"
#include "query/verdict.h"

namespace ldx::query {

/** Cache key of one query. */
struct CacheKey
{
    std::uint64_t programHash = 0; ///< fnv1a of the printed IR
    std::uint64_t worldHash = 0;   ///< fnv1a of the canonical world
    std::string sourceId;          ///< SourceCandidate::id + offset
    std::string policy;            ///< mutationStrategyName

    /** Stable file/hash name of this key. */
    std::string digest() const;

    bool
    operator<(const CacheKey &o) const
    {
        if (programHash != o.programHash)
            return programHash < o.programHash;
        if (worldHash != o.worldHash)
            return worldHash < o.worldHash;
        if (sourceId != o.sourceId)
            return sourceId < o.sourceId;
        return policy < o.policy;
    }
};

/** Canonical world serialization backing CacheKey::worldHash. */
std::string canonicalWorld(const os::WorldSpec &world);

/** fnv1a of the canonical serialization of @p world. */
std::uint64_t hashWorld(const os::WorldSpec &world);

/** fnv1a of the printed IR of @p module. */
std::uint64_t hashProgram(const ir::Module &module);

/**
 * Concurrent bounded verdict cache: N independently locked shards,
 * each an LRU map, all sharing one optional disk tier. The global
 * in-memory cap is split across shards so the whole structure never
 * holds more than @p capacity entries. Keys are routed to shards by
 * digest hash, so every thread agrees on the owning shard and the
 * per-shard lock serializes that key. An offline campaign uses one
 * shard, which is exactly a single LRU; `ldx serve` shares one
 * many-shard instance across tenants.
 *
 * Concurrent misses on one key are not merged: each caller that
 * misses executes its query and stores an identical verdict (the
 * verdict is a function of the key), so the bytes never differ.
 *
 * Metrics are double-booked: every operation bumps the process-wide
 * registry passed to the constructor under `serve.cache.*`, and the
 * optional per-call @p tenant registry under `campaign.cache.*`, so
 * a campaign reports the same counters whichever instance it uses.
 */
class ShardedResultCache
{
  public:
    /**
     * @param capacity  global in-memory entry cap (>= 1)
     * @param shards    shard count (clamped to [1, capacity])
     * @param dir       shared persistence directory ("" = memory
     *                  only); it is created on first store
     * @param registry  process-wide metrics registry (may be null)
     */
    ShardedResultCache(std::size_t capacity, std::size_t shards,
                       std::string dir, obs::Registry *registry);
    ~ShardedResultCache();

    ShardedResultCache(const ShardedResultCache &) = delete;
    ShardedResultCache &operator=(const ShardedResultCache &) = delete;

    /** Verdict for @p key, or nullopt. Counts a hit or a miss. */
    std::optional<QueryVerdict> lookup(const CacheKey &key,
                                       obs::Registry *tenant = nullptr);

    /**
     * Insert (or refresh) @p verdict under @p key. Returns whether
     * the insert evicted the shard's least recently used entry.
     */
    bool store(const CacheKey &key, const QueryVerdict &verdict,
               obs::Registry *tenant = nullptr);

    std::size_t shardCount() const { return shards_.size(); }
    std::size_t size() const;
    std::uint64_t hits() const { return hits_.load(); }
    std::uint64_t misses() const { return misses_.load(); }
    std::uint64_t evictions() const { return evictions_.load(); }

  private:
    struct Shard;

    Shard &shardFor(const CacheKey &key);
    /** Bump serve.cache.@p name and the tenant's campaign.cache.@p name. */
    void book(const char *name, obs::Registry *tenant);

    std::vector<std::unique_ptr<Shard>> shards_;
    std::string dir_;
    obs::Registry *registry_;
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> evictions_{0};
};

/**
 * Serialize @p verdict as the versioned text record used by the disk
 * tier (docs/CAMPAIGN.md "Cache key & record format"). Records end
 * with an `end\t<fnv1a>` sentinel line covering everything before
 * it, so a record truncated by a killed or crashed writer — even at
 * a clean line boundary — parses as corrupt rather than as a
 * shorter-but-valid verdict.
 */
std::string serializeVerdict(const QueryVerdict &verdict);

/** Parse a record; nullopt on version mismatch or corruption. */
std::optional<QueryVerdict> parseVerdict(const std::string &text);

} // namespace ldx::query
