#include "server/job_cache.h"

#include <algorithm>

#include "common/contracts.h"
#include "core/trace_cache.h"

namespace xysig::server {

std::string pipeline_fingerprint(const core::SignaturePipeline& pipe) {
    const std::string bank_fp = pipe.bank().fingerprint();
    if (bank_fp.empty())
        return {}; // a custom monitor without a fingerprint is uncacheable
    const core::PipelineOptions& opts = pipe.options();
    // xylint: exact-compare(sigma=0 is the exact no-noise switch; any other value disables caching)
    if (opts.noise_sigma != 0.0 || opts.quantise)
        return {}; // noise draws / capture options are not in the key scheme
    // Discrete appends, not a `"x" + std::string&&` chain: that pattern hits
    // GCC's -Wrestrict false positive at -O3 under the -Werror hardening lane.
    std::string fp = "bank{";
    fp += bank_fp;
    fp += "}|";
    fp += core::stimulus_fingerprint(pipe.stimulus());
    fp += "|spp=" + std::to_string(opts.samples_per_period);
    fp += "|ck=";
    fp += opts.compiled_kernels ? '1' : '0';
    // Results from different sampling modes differ within the fast-math
    // ULP tolerance; they must never be served for each other.
    fp += "|fm=";
    fp += opts.fast_math ? '1' : '0';
    return fp;
}

JobResultCache::JobResultCache(std::size_t capacity)
    : capacity_(std::max<std::size_t>(1, capacity)) {}

std::optional<JobResultCache::Hit>
JobResultCache::lookup(const std::string& key, std::size_t first,
                       std::size_t count) {
    MutexLock lock(mutex_);
    const auto [lo, hi] = map_.equal_range(key);
    auto best = map_.end();
    for (auto it = lo; it != hi; ++it) {
        const Entry& e = *it->second;
        if (first < e.first || first + count > e.first + e.count)
            continue; // does not cover the request
        if (best == map_.end() || e.count < best->second->count)
            best = it; // prefer the tightest covering range
    }
    if (best == map_.end()) {
        ++misses_;
        return std::nullopt;
    }
    ++hits_;
    lru_.splice(lru_.begin(), lru_, best->second); // refresh recency
    return Hit{best->second->results, best->second->first};
}

void JobResultCache::insert(const std::string& key, std::size_t first,
                            std::vector<SweepResult> results) {
    XYSIG_EXPECTS(!key.empty());
    const std::size_t count = results.size();
    MutexLock lock(mutex_);
    const auto [lo, hi] = map_.equal_range(key);
    std::vector<LruList::iterator> contained;
    for (auto it = lo; it != hi; ++it) {
        const Entry& e = *it->second;
        if (e.first <= first && first + count <= e.first + e.count)
            return; // an existing entry already covers the new range
        if (first <= e.first && e.first + e.count <= first + count)
            contained.push_back(it->second);
    }
    // The new range supersedes strictly contained ones: dropping them is
    // not an eviction (their members live on inside the superset).
    for (const auto it : contained)
        erase_locked(it);
    lru_.push_front(Entry{
        key, first, count,
        std::make_shared<const std::vector<SweepResult>>(std::move(results))});
    map_.emplace(key, lru_.begin());
    evict_to_capacity_locked();
}

void JobResultCache::erase_locked(LruList::iterator it) {
    const auto [lo, hi] = map_.equal_range(it->key);
    for (auto m = lo; m != hi; ++m) {
        if (m->second == it) {
            map_.erase(m);
            break;
        }
    }
    lru_.erase(it);
}

void JobResultCache::evict_to_capacity_locked() {
    while (lru_.size() > capacity_) {
        erase_locked(std::prev(lru_.end()));
        ++evictions_;
    }
}

void JobResultCache::set_capacity(std::size_t capacity) {
    MutexLock lock(mutex_);
    capacity_ = std::max<std::size_t>(1, capacity);
    evict_to_capacity_locked();
}

std::size_t JobResultCache::capacity() const {
    MutexLock lock(mutex_);
    return capacity_;
}

std::size_t JobResultCache::size() const {
    MutexLock lock(mutex_);
    return lru_.size();
}

std::size_t JobResultCache::hits() const {
    MutexLock lock(mutex_);
    return hits_;
}

std::size_t JobResultCache::misses() const {
    MutexLock lock(mutex_);
    return misses_;
}

std::size_t JobResultCache::evictions() const {
    MutexLock lock(mutex_);
    return evictions_;
}

void JobResultCache::clear() {
    MutexLock lock(mutex_);
    lru_.clear();
    map_.clear();
    hits_ = misses_ = evictions_ = 0;
}

} // namespace xysig::server
