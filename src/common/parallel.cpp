#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <utility>

#include "common/contracts.h"

namespace xysig {

namespace {

thread_local bool t_in_parallel_region = false;
thread_local bool t_is_pool_worker = false;

/// RAII flag so exceptions unwind the nesting marker correctly.
struct RegionGuard {
    bool previous;
    RegionGuard() : previous(t_in_parallel_region) { t_in_parallel_region = true; }
    ~RegionGuard() { t_in_parallel_region = previous; }
};

} // namespace

unsigned default_thread_count() noexcept {
    const unsigned hw = std::thread::hardware_concurrency();
    return std::max(hw, 4u);
}

bool in_parallel_region() noexcept {
    return t_in_parallel_region || t_is_pool_worker;
}

ThreadPool::ThreadPool(unsigned threads) {
    const unsigned count = threads == 0 ? default_thread_count() : threads;
    workers_.reserve(count);
    for (unsigned i = 0; i < count; ++i)
        workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
    {
        MutexLock lock(mutex_);
        stopping_ = true;
    }
    cv_task_.notify_all();
    for (auto& w : workers_)
        w.join();
}

void ThreadPool::worker_loop() {
    t_is_pool_worker = true;
    for (;;) {
        std::function<void()> task;
        {
            MutexLock lock(mutex_);
            cv_task_.wait(lock, [this]() REQUIRES(mutex_) {
                return stopping_ || !queue_.empty();
            });
            if (queue_.empty())
                return; // stopping_ and drained
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();
    }
}

void ThreadPool::submit(std::function<void()> task) {
    XYSIG_EXPECTS(task != nullptr);
    {
        MutexLock lock(mutex_);
        queue_.push_back(std::move(task));
    }
    cv_task_.notify_one();
}

ThreadPool& ThreadPool::shared() {
    // Leaked on purpose: workers must outlive all static destructors that
    // might still evaluate batches during teardown.
    static ThreadPool* pool = new ThreadPool();
    return *pool;
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  unsigned threads) {
    if (begin >= end)
        return;
    const std::size_t n = end - begin;
    const unsigned requested = threads == 0 ? default_thread_count() : threads;
    const unsigned workers =
        static_cast<unsigned>(std::min<std::size_t>(requested, n));

    // Serial fallback for nested loops AND for calls made from any pool
    // worker (e.g. a task submitted directly to ThreadPool::shared() that
    // calls into the batch engine): a worker that blocked waiting for
    // helper tasks could starve the queue of the very workers needed to
    // run them.
    if (workers <= 1 || in_parallel_region()) {
        RegionGuard guard;
        for (std::size_t i = begin; i < end; ++i)
            body(i);
        return;
    }

    // Chunked dynamic scheduling: workers pull [i, i+grain) ranges off an
    // atomic cursor, so uneven per-index cost balances automatically while
    // keeping per-task overhead amortised.
    struct Shared {
        std::atomic<std::size_t> next;
        std::atomic<bool> cancelled{false};
        Mutex mutex;
        CondVar done_cv;
        std::size_t active GUARDED_BY(mutex) = 0;
        std::exception_ptr error GUARDED_BY(mutex);
    };
    auto shared = std::make_shared<Shared>();
    shared->next.store(begin, std::memory_order_relaxed);
    const std::size_t grain = work_unit_size(n, workers);

    const auto run_chunks = [shared, end, grain, &body] {
        RegionGuard guard;
        while (!shared->cancelled.load(std::memory_order_relaxed)) {
            const std::size_t i =
                shared->next.fetch_add(grain, std::memory_order_relaxed);
            if (i >= end)
                return;
            const std::size_t stop = std::min(end, i + grain);
            try {
                for (std::size_t k = i; k < stop; ++k)
                    body(k);
            } catch (...) {
                MutexLock lock(shared->mutex);
                if (!shared->error)
                    shared->error = std::current_exception();
                shared->cancelled.store(true, std::memory_order_relaxed);
                return;
            }
        }
    };

    {
        MutexLock lock(shared->mutex);
        shared->active = workers - 1;
    }
    ThreadPool& pool = ThreadPool::shared();
    for (unsigned w = 0; w + 1 < workers; ++w) {
        pool.submit([shared, run_chunks] {
            run_chunks();
            MutexLock lock(shared->mutex);
            if (--shared->active == 0)
                shared->done_cv.notify_all();
        });
    }

    run_chunks(); // the caller is a worker too: progress without pool slots

    MutexLock lock(shared->mutex);
    shared->done_cv.wait(lock, [&]() REQUIRES(shared->mutex) {
        return shared->active == 0;
    });
    if (shared->error)
        std::rethrow_exception(shared->error);
}

} // namespace xysig
