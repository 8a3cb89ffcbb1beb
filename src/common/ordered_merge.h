#ifndef XYSIG_COMMON_ORDERED_MERGE_H
#define XYSIG_COMMON_ORDERED_MERGE_H

/// \file ordered_merge.h
/// The one reorder buffer between concurrent producers and an in-order
/// consumer. core::run_universe (pool tasks evaluating member shards) and
/// server::FanoutDriver (partition threads reading peers) both deliver
/// through it, so every caller sees members in one fixed order whatever
/// evaluated them.
///
/// Producers park values under their index with publish() and retire with
/// done(). deliver() runs on the consumer's thread: while any producer is
/// live it hands values over in ascending, contiguous index order from 0;
/// once every producer is done (finished, cancelled or failed) it hands
/// over whatever else arrived, still ascending, with gaps allowed, and
/// returns. Each index is published at most once.
///
/// Lifetime rule: the owner may destroy the merge as soon as no producer is
/// live, so done() is a producer's last touch and notifies under the lock.
/// An owner that unwinds early (a throwing consumer, a failed task submit)
/// first calls wait_done().

#include <cstddef>
#include <map>
#include <utility>
#include <vector>

#include "common/annotated_mutex.h"
#include "common/contracts.h"

namespace xysig {

template <class T>
class OrderedMerge {
public:
    explicit OrderedMerge(std::size_t producers) : live_(producers) {}

    OrderedMerge(const OrderedMerge&) = delete;
    OrderedMerge& operator=(const OrderedMerge&) = delete;

    /// Parks `value` under `index` until deliver() reaches it.
    void publish(std::size_t index, T value) EXCLUDES(mutex_) {
        {
            MutexLock lock(mutex_);
            parked_.emplace(index, std::move(value));
        }
        // Outside the lock: this producer is still live, so the merge
        // outlives the call.
        cv_.notify_all();
    }

    /// Retires `count` producers (the owner retires ones it never started).
    void done(std::size_t count = 1) EXCLUDES(mutex_) {
        MutexLock lock(mutex_);
        XYSIG_EXPECTS(count <= live_);
        live_ -= count;
        cv_.notify_all();
    }

    /// Calls on_value(T&&) for every published value in the order above,
    /// outside the lock; returns once no producer is live and everything
    /// parked is delivered. An exception from on_value propagates.
    template <class OnValue>
    void deliver(const OnValue& on_value) EXCLUDES(mutex_) {
        std::size_t next = 0;
        std::vector<T> batch;
        for (bool last = false; !last;) {
            {
                MutexLock lock(mutex_);
                cv_.wait(lock, [&]() REQUIRES(mutex_) {
                    return live_ == 0 ||
                           (!parked_.empty() && parked_.begin()->first == next);
                });
                last = live_ == 0;
                for (auto it = parked_.begin();
                     it != parked_.end() && (last || it->first == next);
                     it = parked_.erase(it)) {
                    batch.push_back(std::move(it->second));
                    next = it->first + 1;
                }
            }
            for (T& value : batch)
                on_value(std::move(value));
            batch.clear();
        }
    }

    /// Blocks until no producer is live.
    void wait_done() EXCLUDES(mutex_) {
        MutexLock lock(mutex_);
        cv_.wait(lock, [this]() REQUIRES(mutex_) { return live_ == 0; });
    }

private:
    Mutex mutex_;
    CondVar cv_; ///< signalled on publish and on done
    std::map<std::size_t, T> parked_ GUARDED_BY(mutex_);
    std::size_t live_ GUARDED_BY(mutex_);
};

} // namespace xysig

#endif // XYSIG_COMMON_ORDERED_MERGE_H
