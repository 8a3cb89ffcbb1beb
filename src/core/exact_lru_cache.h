#ifndef XYSIG_CORE_EXACT_LRU_CACHE_H
#define XYSIG_CORE_EXACT_LRU_CACHE_H

/// \file exact_lru_cache.h
/// Thread-safe, LRU-bounded map from exact string keys to immutable values:
/// the one cache body behind GoldenSignatureCache (golden_cache.h),
/// StimulusTraceCache (trace_cache.h), XPairLaneCache (pipeline.h) and the
/// scheduler's JobResultCache (server/job_cache.h).
///
/// Keys are exact (hexfloat-formatted fingerprints), so a hit is
/// bit-identical to recomputing. find_or_compute runs `compute` outside the
/// lock (it can be slow); if two threads race on the same missing key both
/// compute, the first insertion wins and both return the same stored
/// object — with exact keys the duplicates are bit-identical anyway. For
/// the same reason insert() keeps an entry that already exists. Hits
/// refresh recency; returned shared_ptrs keep evicted values alive for
/// callers that still hold them.
///
/// Two bounds hold after every insertion, both constants of the
/// instantiation: at most kCapacity entries, and a summed weight of at most
/// kWeightCeiling, where the Weigh policy
/// prices an entry as Weigh::weigh(key, value). Least-recently-used
/// entries are evicted until both hold, and an entry heavier than the
/// ceiling on its own is never stored (find_or_compute still returns it).
/// The default policy, Weightless, leaves only the entry bound.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/annotated_mutex.h"

namespace xysig::core {

/// The weigh policy of a cache bounded by its entry count alone.
struct Weightless {
    static constexpr std::size_t kCeiling = SIZE_MAX;
    template <class V>
    [[nodiscard]] static std::size_t weigh(const std::string& /*key*/,
                                           const V& /*value*/) noexcept {
        return 0;
    }
};

template <class V, std::size_t Capacity, class Weigh = Weightless>
class ExactLruCache {
public:
    static_assert(Capacity >= 1);
    static constexpr std::size_t kCapacity = Capacity;
    static constexpr std::size_t kWeightCeiling = Weigh::kCeiling;

    /// The process-wide instance of this instantiation.
    [[nodiscard]] static ExactLruCache& instance() {
        static ExactLruCache cache;
        return cache;
    }

    /// Returns the value cached under `key`, computing and inserting it on a
    /// miss (see the file comment for the race and eviction rules).
    [[nodiscard]] std::shared_ptr<const V> find_or_compute(
        const std::string& key, const std::function<V()>& compute)
        EXCLUDES(mutex_) {
        {
            MutexLock lock(mutex_);
            if (auto hit = touch_locked(key))
                return hit;
        }
        auto computed = std::make_shared<const V>(compute());
        MutexLock lock(mutex_);
        if (auto hit = touch_locked(key))
            return hit; // lost a benign race; the first insertion wins
        ++misses_;
        return emplace_locked(key, std::move(computed));
    }

    /// The value cached under `key`, refreshing its recency (a hit), or
    /// null (a miss).
    [[nodiscard]] std::shared_ptr<const V> find(const std::string& key)
        EXCLUDES(mutex_) {
        MutexLock lock(mutex_);
        auto hit = touch_locked(key);
        if (hit == nullptr)
            ++misses_;
        return hit;
    }

    /// Stores `value` under `key` unless the key is already present, in
    /// which case the existing entry is kept. Counts neither a hit nor a
    /// miss.
    void insert(const std::string& key, V value) EXCLUDES(mutex_) {
        auto stored = std::make_shared<const V>(std::move(value));
        MutexLock lock(mutex_);
        if (!map_.contains(key))
            emplace_locked(key, std::move(stored));
    }

    /// Maximum number of retained entries.
    [[nodiscard]] static constexpr std::size_t capacity() noexcept {
        return kCapacity;
    }

    /// Statistics (tests, the `stats` wire event, capacity tuning).
    [[nodiscard]] std::size_t size() const EXCLUDES(mutex_) {
        MutexLock lock(mutex_);
        return map_.size();
    }
    [[nodiscard]] std::size_t hits() const EXCLUDES(mutex_) {
        MutexLock lock(mutex_);
        return hits_;
    }
    [[nodiscard]] std::size_t misses() const EXCLUDES(mutex_) {
        MutexLock lock(mutex_);
        return misses_;
    }
    [[nodiscard]] std::size_t evictions() const EXCLUDES(mutex_) {
        MutexLock lock(mutex_);
        return evictions_;
    }
    /// Summed Weigh::weigh of the stored entries (<= kWeightCeiling).
    [[nodiscard]] std::size_t weight() const EXCLUDES(mutex_) {
        MutexLock lock(mutex_);
        return weight_;
    }

    /// Drops every entry and resets the counters and the weight (test
    /// isolation).
    void clear() EXCLUDES(mutex_) {
        MutexLock lock(mutex_);
        map_.clear();
        lru_.clear();
        hits_ = misses_ = evictions_ = weight_ = 0;
    }

private:
    struct Entry {
        std::string key;
        std::shared_ptr<const V> value;
        std::size_t weight;
    };
    /// MRU-first recency list; the map points into it.
    using LruList = std::list<Entry>;

    /// The entry under `key` moved to the MRU end and counted as a hit, or
    /// null when absent.
    [[nodiscard]] std::shared_ptr<const V> touch_locked(const std::string& key)
        REQUIRES(mutex_) {
        const auto it = map_.find(key);
        if (it == map_.end())
            return nullptr;
        ++hits_;
        lru_.splice(lru_.begin(), lru_, it->second);
        return it->second->value;
    }

    /// Inserts a new MRU entry (the key must be absent) unless it alone
    /// outweighs the ceiling, and evicts down to both bounds; returns the
    /// value either way.
    std::shared_ptr<const V> emplace_locked(const std::string& key,
                                            std::shared_ptr<const V> value)
        REQUIRES(mutex_) {
        const std::size_t w = Weigh::weigh(key, *value);
        if (w > kWeightCeiling)
            return value;
        lru_.push_front({key, std::move(value), w});
        map_.emplace(key, lru_.begin());
        weight_ += w;
        evict_to_bounds_locked();
        return lru_.front().value;
    }

    void evict_to_bounds_locked() REQUIRES(mutex_) {
        while (map_.size() > kCapacity || weight_ > kWeightCeiling) {
            weight_ -= lru_.back().weight;
            map_.erase(lru_.back().key);
            lru_.pop_back();
            ++evictions_;
        }
    }

    mutable Mutex mutex_;
    LruList lru_ GUARDED_BY(mutex_);
    std::unordered_map<std::string, typename LruList::iterator> map_
        GUARDED_BY(mutex_);
    std::size_t weight_ GUARDED_BY(mutex_) = 0;
    std::size_t hits_ GUARDED_BY(mutex_) = 0;
    std::size_t misses_ GUARDED_BY(mutex_) = 0;
    std::size_t evictions_ GUARDED_BY(mutex_) = 0;
};

} // namespace xysig::core

#endif // XYSIG_CORE_EXACT_LRU_CACHE_H
