// Thread-pool subsystem tests: the pool's drain-then-join lifecycle and
// the parallel_for primitive (coverage, exception propagation, nesting).

#include "common/parallel.h"

#include <atomic>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

namespace xysig {
namespace {

TEST(ThreadPool, DestructorDrainsQueuedTasks) {
    std::atomic<int> counter{0};
    {
        ThreadPool pool(3);
        EXPECT_EQ(pool.thread_count(), 3u);
        for (int i = 0; i < 100; ++i)
            pool.submit([&counter] { ++counter; });
        // The destructor must finish the queue before joining.
    }
    EXPECT_EQ(counter.load(), 100);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
    for (const unsigned threads : {0u, 1u, 2u, 4u, 16u}) {
        std::vector<std::atomic<int>> hits(257);
        for (auto& h : hits)
            h = 0;
        parallel_for(0, hits.size(), [&](std::size_t i) { ++hits[i]; }, threads);
        for (std::size_t i = 0; i < hits.size(); ++i)
            EXPECT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
    }
}

TEST(ParallelFor, EmptyAndSingleRanges) {
    int calls = 0;
    parallel_for(5, 5, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    parallel_for(7, 8, [&](std::size_t i) {
        ++calls;
        EXPECT_EQ(i, 7u);
    });
    EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, PropagatesFirstBodyException) {
    EXPECT_THROW(
        parallel_for(
            0, 1000,
            [](std::size_t i) {
                if (i == 137)
                    throw std::invalid_argument("body boom");
            },
            4),
        std::invalid_argument);
    // The engine stays usable after a failed loop.
    std::atomic<int> counter{0};
    parallel_for(0, 64, [&](std::size_t) { ++counter; }, 4);
    EXPECT_EQ(counter.load(), 64);
}

TEST(ParallelFor, NestedCallsDegradeToSerialWithoutDeadlock) {
    EXPECT_FALSE(in_parallel_region());
    std::vector<std::atomic<int>> hits(64 * 16);
    for (auto& h : hits)
        h = 0;
    parallel_for(
        0, 64,
        [&](std::size_t outer) {
            EXPECT_TRUE(in_parallel_region());
            parallel_for(0, 16, [&](std::size_t inner) {
                ++hits[outer * 16 + inner];
            });
        },
        4);
    EXPECT_FALSE(in_parallel_region());
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "slot " << i;
}

TEST(ParallelFor, FromDirectPoolTasksDegradesToSerialWithoutDeadlock) {
    // Tasks submitted straight to a pool (not via parallel_for) that then
    // call parallel_for must not block waiting for helper tasks no worker
    // is free to run: inside any pool worker the loop runs serially.
    std::vector<std::atomic<int>> hits(4 * 64);
    for (auto& h : hits)
        h = 0;
    {
        ThreadPool pool(2);
        for (int task = 0; task < 4; ++task)
            pool.submit([&hits, task] {
                parallel_for(0, 64, [&](std::size_t i) {
                    ++hits[static_cast<std::size_t>(task) * 64 + i];
                });
            });
    } // the destructor runs every task before joining
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "slot " << i;
}

TEST(WorkUnitSize, EighthOfAWorkerShareClampedToOneAndSixtyFour) {
    struct Row {
        std::size_t items;
        unsigned workers;
        std::size_t want;
    };
    for (const Row row : {Row{16, 4, 1}, Row{29, 4, 1}, Row{1000, 2, 62},
                          Row{2000, 4, 62}, Row{100000, 4, 64}, Row{0, 4, 1},
                          Row{5, 0, 1}})
        EXPECT_EQ(work_unit_size(row.items, row.workers), row.want)
            << row.items << " items on " << row.workers << " workers";
}

TEST(ParallelFor, MoreThreadsThanWorkIsFine) {
    std::atomic<int> counter{0};
    parallel_for(0, 3, [&](std::size_t) { ++counter; }, 64);
    EXPECT_EQ(counter.load(), 3);
}

} // namespace
} // namespace xysig
