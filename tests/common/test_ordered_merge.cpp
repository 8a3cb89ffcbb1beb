// OrderedMerge, the one reorder buffer behind core::run_universe and
// server::FanoutDriver: ascending contiguous delivery while producers are
// live, ascending delivery with gaps once they are done, producer
// retirement, a throwing consumer and the owner's wait.

#include "common/ordered_merge.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <numeric>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/annotated_mutex.h"

namespace xysig {
namespace {

using namespace std::chrono_literals;

/// Values delivered so far, readable from another thread.
struct Seen {
    Mutex mutex;
    std::vector<std::size_t> values GUARDED_BY(mutex);

    void add(std::size_t v) {
        MutexLock lock(mutex);
        values.push_back(v);
    }
    [[nodiscard]] std::vector<std::size_t> snapshot() {
        MutexLock lock(mutex);
        return values;
    }
};

TEST(OrderedMerge, ShuffledProducersDeliverZeroOneTwoInOrder) {
    constexpr std::size_t kValues = 2000;
    constexpr std::size_t kProducers = 4;
    OrderedMerge<std::size_t> merge(kProducers);
    std::vector<std::thread> producers;
    for (std::size_t p = 0; p < kProducers; ++p)
        producers.emplace_back([&merge, p] {
            std::vector<std::size_t> mine;
            for (std::size_t i = p; i < kValues; i += kProducers)
                mine.push_back(i);
            std::mt19937 rng(static_cast<std::mt19937::result_type>(p + 1));
            std::shuffle(mine.begin(), mine.end(), rng);
            for (const std::size_t i : mine) {
                merge.publish(i, i * 10);
                if (i % 97 == 0)
                    std::this_thread::yield();
            }
            merge.done();
        });

    std::vector<std::size_t> order;
    merge.deliver([&](std::size_t&& value) { order.push_back(value / 10); });
    for (std::thread& t : producers)
        t.join();

    std::vector<std::size_t> expected(kValues);
    std::iota(expected.begin(), expected.end(), std::size_t{0});
    EXPECT_EQ(order, expected);
}

TEST(OrderedMerge, AnEarlyRetiredProducerLeavesAGapTheRestStillAscends) {
    // Two producers. The first publishes 0 and retires before it reaches 1;
    // the second publishes 4, 3, 2 and stays live. Nothing past the gap is
    // delivered until the second retires too.
    OrderedMerge<std::size_t> merge(2);
    Seen seen;
    std::thread consumer([&] {
        merge.deliver([&](std::size_t&& value) { seen.add(value); });
    });
    merge.publish(0, 0);
    merge.done();
    for (const std::size_t i : {4u, 3u, 2u})
        merge.publish(i, i);

    const auto deadline = std::chrono::steady_clock::now() + 10s;
    while (seen.snapshot().empty() && std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(1ms);
    std::this_thread::sleep_for(50ms);
    EXPECT_EQ(seen.snapshot(), (std::vector<std::size_t>{0}));

    merge.done();
    consumer.join();
    EXPECT_EQ(seen.snapshot(), (std::vector<std::size_t>{0, 2, 3, 4}));
}

TEST(OrderedMerge, DoneRetiresProducersThatNeverStarted) {
    // The owner started one of three producers (a failed submit, say) and
    // retires the other two itself.
    OrderedMerge<std::size_t> merge(3);
    std::thread producer([&merge] {
        merge.publish(1, 1);
        merge.publish(0, 0);
        merge.done();
    });
    merge.done(2);
    std::vector<std::size_t> order;
    merge.deliver([&](std::size_t&& value) { order.push_back(value); });
    producer.join();
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1}));
}

TEST(OrderedMerge, AThrowingConsumerPropagatesAndWaitDoneOutlastsProducers) {
    constexpr std::size_t kProducers = 2;
    OrderedMerge<std::size_t> merge(kProducers);
    std::atomic<std::size_t> finished{0};
    std::vector<std::thread> producers;
    for (std::size_t p = 0; p < kProducers; ++p)
        producers.emplace_back([&merge, &finished, p] {
            for (std::size_t i = p; i < 20; i += kProducers)
                merge.publish(i, i);
            std::this_thread::sleep_for(20ms);
            finished.fetch_add(1);
            merge.done(); // the producer's last touch
        });

    std::vector<std::size_t> order;
    EXPECT_THROW(merge.deliver([&](std::size_t&& value) {
                     if (value == 3)
                         throw std::runtime_error("consumer failed");
                     order.push_back(value);
                 }),
                 std::runtime_error);
    merge.wait_done();
    EXPECT_EQ(finished.load(), kProducers);
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2}));
    for (std::thread& t : producers)
        t.join();
}

TEST(OrderedMerge, WithZeroProducersDeliverReturnsAtOnce) {
    OrderedMerge<std::size_t> merge(0);
    std::size_t calls = 0;
    merge.deliver([&](std::size_t&&) { ++calls; });
    merge.wait_done();
    EXPECT_EQ(calls, 0u);
}

} // namespace
} // namespace xysig
