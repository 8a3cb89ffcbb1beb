#ifndef XYSIG_COMMON_PARALLEL_H
#define XYSIG_COMMON_PARALLEL_H

/// \file parallel.h
/// Thread-pool subsystem backing the batch evaluation engine.
///
/// The Monte-Carlo studies and fault-universe sweeps evaluate thousands of
/// independent (CUT, RNG stream) samples; this header provides the two
/// primitives they build on:
///  * ThreadPool — a fixed set of workers draining a FIFO task queue;
///  * parallel_for — a blocking data-parallel loop on a process-wide shared
///    pool, with chunked work stealing, exception propagation to the
///    caller, and serial fallback for nested invocations.
///
/// Determinism contract: parallel_for imposes no ordering on body
/// invocations, so callers keep results reproducible by writing each index
/// to its own output slot and deriving randomness from pre-forked
/// per-index streams (see mc::run_monte_carlo_parallel).

#include <algorithm>
#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/annotated_mutex.h"

namespace xysig {

/// Worker count used when a caller passes threads == 0: the hardware
/// concurrency, but at least 4 so oversubscription demos and thread-count
/// sweeps behave the same on small CI machines.
[[nodiscard]] unsigned default_thread_count() noexcept;

/// Fixed-size worker pool with a FIFO task queue.
///
/// Its callers (parallel_for, core::run_universe) queue at most one task
/// per worker and wait on their own completion state, so the pool offers
/// no wait, no queue bound and no error channel: a task must not throw
/// (one that does terminates the process). The destructor runs every
/// queued task, then joins the workers.
class ThreadPool {
public:
    /// \param threads worker count; 0 means default_thread_count()
    explicit ThreadPool(unsigned threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /// Enqueues a task for the next free worker.
    void submit(std::function<void()> task) EXCLUDES(mutex_);

    /// The pool's worker count, fixed at construction.
    [[nodiscard]] unsigned thread_count() const noexcept {
        return static_cast<unsigned>(workers_.size());
    }

    /// Process-wide pool used by parallel_for. Created on first use with
    /// default_thread_count() workers; never destroyed before exit.
    [[nodiscard]] static ThreadPool& shared();

private:
    void worker_loop() EXCLUDES(mutex_);

    Mutex mutex_;
    std::deque<std::function<void()>> queue_ GUARDED_BY(mutex_);
    CondVar cv_task_; ///< signalled when work is available or stopping
    bool stopping_ GUARDED_BY(mutex_) = false;
    /// Filled by the constructor and joined by the destructor; no worker
    /// touches it, so it needs no lock.
    std::vector<std::thread> workers_;
};

/// Items per work unit when `workers` threads claim contiguous units of
/// `items` dynamically: about eight units per worker, so ragged item costs
/// balance while claims stay amortised, and never more than 64 items, so a
/// job of a few dozen items still reaches every worker and a huge one
/// parks only a few units of out-of-order results. The one sizing rule of
/// parallel_for and core::run_universe; no result depends on it.
[[nodiscard]] constexpr std::size_t work_unit_size(std::size_t items,
                                                   unsigned workers) noexcept {
    return std::clamp<std::size_t>(
        items / (8u * std::size_t{std::max(workers, 1u)}), 1, 64);
}

/// True while the current thread is executing inside a parallel_for body or
/// is any ThreadPool worker; nested parallel_for calls (and
/// BatchNdfEvaluator) detect this and run on the calling thread instead of
/// deadlocking on the shared pool.
[[nodiscard]] bool in_parallel_region() noexcept;

/// Runs body(i) for every i in [begin, end), distributing contiguous chunks
/// of work_unit_size() indices over up to `threads` workers (0 means
/// default_thread_count()). Blocks until the whole range is done. The
/// calling thread participates as one of the workers, so progress is
/// guaranteed even when the shared pool is saturated. Calls from inside a
/// parallel_for body or from any ThreadPool worker thread degrade to a
/// serial loop (a worker blocking on helper tasks could otherwise starve
/// the pool into deadlock). If any body invocation throws, remaining
/// chunks are abandoned and the first exception is rethrown on the caller.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  unsigned threads = 0);

} // namespace xysig

#endif // XYSIG_COMMON_PARALLEL_H
