// ExactLruCache bounds, through its GoldenSignatureCache instantiation: a
// long-lived sweep service sees an unbounded stream of distinct golden
// fingerprints, so the cache must evict (LRU) instead of leaking one
// chronogram per fingerprint forever. The find/insert rows pin the API the
// scheduler's JobResultCache uses, and the WeighedCacheLru rows its second
// bound, the summed weight of a weigh policy.

#include "core/golden_cache.h"

#include <string>

#include <gtest/gtest.h>

namespace xysig::core {
namespace {

/// Distinct, recognisable chronogram per key.
capture::Chronogram make_chronogram(unsigned code) {
    return capture::Chronogram(1.0, 6, {{0.0, code}});
}

/// GoldenSignatureCache's body at a bound small enough to evict.
template <std::size_t Capacity>
using ChronogramCache = ExactLruCache<capture::Chronogram, Capacity>;

TEST(GoldenCacheLru, EvictsLeastRecentlyUsedBeyondCapacity) {
    ChronogramCache<2> cache;

    int computes = 0;
    const auto get = [&](const std::string& key, unsigned code) {
        return cache.find_or_compute(key, [&] {
            ++computes;
            return make_chronogram(code);
        });
    };

    (void)get("a", 1);
    (void)get("b", 2);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(computes, 2);
    EXPECT_EQ(cache.evictions(), 0u);

    // Touch "a" so "b" becomes the LRU entry, then insert "c".
    EXPECT_EQ(get("a", 1)->events()[0].code, 1u);
    (void)get("c", 3);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.evictions(), 1u);

    // "a" and "c" hit; "b" was evicted and recomputes.
    EXPECT_EQ(computes, 3);
    (void)get("a", 1);
    (void)get("c", 3);
    EXPECT_EQ(computes, 3);
    EXPECT_EQ(get("b", 2)->events()[0].code, 2u);
    EXPECT_EQ(computes, 4);
    EXPECT_EQ(cache.evictions(), 2u); // inserting "b" evicted the LRU ("a")
}

TEST(GoldenCacheLru, EvictedEntriesStayAliveForHolders) {
    ChronogramCache<1> cache;
    const auto held =
        cache.find_or_compute("x", [] { return make_chronogram(7); });
    (void)cache.find_or_compute("y", [] { return make_chronogram(8); });
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.evictions(), 1u);
    // The shared_ptr returned before eviction is still valid.
    EXPECT_EQ(held->events()[0].code, 7u);

    // So is one returned by find once insert evicts its entry.
    const auto found = cache.find("y");
    cache.insert("z", make_chronogram(9));
    EXPECT_EQ(cache.evictions(), 2u);
    EXPECT_EQ(cache.find("y"), nullptr);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->events()[0].code, 8u);
}

TEST(GoldenCacheLru, StatsAndClear) {
    ChronogramCache<4> cache;
    (void)cache.find_or_compute("k", [] { return make_chronogram(1); });
    (void)cache.find_or_compute("k", [] { return make_chronogram(1); });
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 0u);
    EXPECT_EQ(cache.evictions(), 0u);
}

TEST(GoldenCacheLru, FindCountsHitsAndMissesAndRefreshesRecency) {
    ChronogramCache<2> cache;
    EXPECT_EQ(cache.find("a"), nullptr);
    EXPECT_EQ(cache.misses(), 1u);
    cache.insert("a", make_chronogram(1));
    cache.insert("b", make_chronogram(2));
    EXPECT_EQ(cache.misses(), 1u); // inserts count neither hits nor misses
    EXPECT_EQ(cache.hits(), 0u);

    // A hit refreshes recency: "b" becomes the LRU victim when "c" arrives.
    const auto a = cache.find("a");
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a->events()[0].code, 1u);
    EXPECT_EQ(cache.hits(), 1u);
    cache.insert("c", make_chronogram(3));
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_EQ(cache.find("b"), nullptr);
    EXPECT_NE(cache.find("a"), nullptr);
    EXPECT_NE(cache.find("c"), nullptr);
    EXPECT_EQ(cache.hits(), 3u);
    EXPECT_EQ(cache.misses(), 2u);

    // find_or_compute still counts one miss per computation, after a find
    // already counted its own.
    EXPECT_EQ(cache.find("d"), nullptr);
    (void)cache.find_or_compute("d", [] { return make_chronogram(4); });
    EXPECT_EQ(cache.misses(), 4u);
}

TEST(GoldenCacheLru, InsertKeepsAnExistingEntry) {
    ChronogramCache<4> cache;
    cache.insert("k", make_chronogram(1));
    const auto first = cache.find("k");
    cache.insert("k", make_chronogram(2));
    EXPECT_EQ(cache.size(), 1u);
    const auto again = cache.find("k");
    EXPECT_EQ(again, first); // the same stored object, not a replacement
    EXPECT_EQ(again->events()[0].code, 1u);
    EXPECT_EQ(cache.evictions(), 0u);
}

TEST(GoldenCacheLru, ProcessWideInstanceIsBounded) {
    // The instance used by SignaturePipeline::set_golden must never be
    // unbounded (that is the sweep-service leak this PR closes).
    EXPECT_GE(GoldenSignatureCache::instance().capacity(), 1u);
    EXPECT_LE(GoldenSignatureCache::instance().capacity(), 1u << 20);
}

/// A string weighs its length, against a 10-byte ceiling.
struct LengthWeigh {
    static constexpr std::size_t kCeiling = 10;
    [[nodiscard]] static std::size_t weigh(const std::string& /*key*/,
                                           const std::string& value) noexcept {
        return value.size();
    }
};
using WeighedCache = ExactLruCache<std::string, 8, LengthWeigh>;

TEST(WeighedCacheLru, EvictsLeastRecentlyUsedUntilTheWeightFits) {
    WeighedCache cache;
    cache.insert("a", "aaaa");
    cache.insert("b", "bbbb");
    EXPECT_EQ(cache.weight(), 8u);
    EXPECT_NE(cache.find("a"), nullptr); // "b" is now the LRU entry
    cache.insert("c", "ccc");            // 11 > 10: "b" goes
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.weight(), 7u);
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_EQ(cache.find("b"), nullptr);
    EXPECT_EQ(*cache.find("a"), "aaaa");
    cache.insert("d", "dddddddddd"); // exactly the ceiling: everything else goes
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.weight(), 10u);
    EXPECT_EQ(cache.evictions(), 3u);
}

TEST(WeighedCacheLru, EntryBoundStillHolds) {
    ExactLruCache<std::string, 2, LengthWeigh> cache;
    cache.insert("a", "a");
    cache.insert("b", "b");
    cache.insert("c", "c");
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.weight(), 2u);
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_EQ(cache.find("a"), nullptr);
}

TEST(WeighedCacheLru, OverCeilingValueIsReturnedButNeverStored) {
    WeighedCache cache;
    cache.insert("small", "ab");
    const std::string heavy(11, 'x');
    int computes = 0;
    const auto get = [&] {
        return cache.find_or_compute("heavy", [&] {
            ++computes;
            return heavy;
        });
    };
    EXPECT_EQ(*get(), heavy);
    EXPECT_EQ(*get(), heavy);
    EXPECT_EQ(computes, 2); // never a hit
    cache.insert("heavy", heavy);
    EXPECT_EQ(cache.find("heavy"), nullptr);
    // Storing nothing evicts nothing.
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.weight(), 2u);
    EXPECT_EQ(cache.evictions(), 0u);
}

TEST(WeighedCacheLru, ClearResetsTheWeight) {
    WeighedCache cache;
    cache.insert("a", "aaaa");
    cache.insert("b", "bb");
    EXPECT_EQ(cache.weight(), 6u);
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.weight(), 0u);
    cache.insert("c", "cccccccccc"); // the full ceiling fits again
    EXPECT_EQ(cache.weight(), 10u);
    EXPECT_EQ(cache.evictions(), 0u);
}

TEST(WeighedCacheLru, UnweighedCachesWeighNothing) {
    GoldenSignatureCache cache;
    cache.insert("k", make_chronogram(1));
    EXPECT_EQ(cache.weight(), 0u);
}

} // namespace
} // namespace xysig::core
