#include "locble/runtime/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <limits>

#include "locble/obs/obs.hpp"

namespace locble::runtime {

unsigned ThreadPool::resolve_threads(unsigned requested) {
    if (requested > 0) return requested;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

ThreadPool::ThreadPool(unsigned threads) {
    const unsigned n = resolve_threads(threads);
    workers_.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
    {
        const std::lock_guard lock(mutex_);
        stopping_ = true;
    }
    cv_.notify_all();
    for (auto& w : workers_) w.join();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
    std::packaged_task<void()> packaged(std::move(task));
    std::future<void> future = packaged.get_future();
    {
        const std::lock_guard lock(mutex_);
        queue_.push_back(std::move(packaged));
        // Scheduling-dependent by nature, so never part of bench JSON.
        LOCBLE_GAUGE_MAX_ND("runtime.pool.queue_depth", queue_.size());
    }
    cv_.notify_one();
    return future;
}

void ThreadPool::run_indexed(std::size_t count,
                             const std::function<void(std::size_t)>& fn) {
    if (count == 0) return;
    if (size() == 1 || count == 1) {
        for (std::size_t i = 0; i < count; ++i) fn(i);
        return;
    }

    std::atomic<std::size_t> next{0};
    std::mutex error_mutex;
    std::size_t error_index = std::numeric_limits<std::size_t>::max();
    std::exception_ptr error;

    const auto worker = [&] {
        for (;;) {
            const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= count) return;
            try {
                fn(i);
            } catch (...) {
                const std::lock_guard lock(error_mutex);
                if (i < error_index) {
                    error_index = i;
                    error = std::current_exception();
                }
                next.store(count, std::memory_order_relaxed);
                return;
            }
        }
    };

    std::vector<std::future<void>> done;
    const std::size_t n = std::min<std::size_t>(size(), count);
    done.reserve(n);
    for (std::size_t i = 0; i < n; ++i) done.push_back(submit(worker));
    for (auto& f : done) f.get();
    if (error) std::rethrow_exception(error);
}

void ThreadPool::worker_loop() {
    std::uint64_t tasks_run = 0;
    for (;;) {
        std::packaged_task<void()> task;
        {
            std::unique_lock lock(mutex_);
            cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty()) break;  // stopping_ and drained
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        // Count before running: the task's future becomes ready inside
        // task(), and a caller that returns from get() may read the
        // registry at once, so the count must be ordered before that.
        ++tasks_run;
        LOCBLE_COUNT_ND("runtime.pool.tasks", 1);
        task();  // exceptions land in the task's future
    }
    // Per-worker distribution, flushed once at pool teardown (snapshots
    // taken while the pool is alive only see the running total above).
    LOCBLE_HISTOGRAM_ND("runtime.pool.tasks_per_worker", tasks_run, 1.0, 2.0, 4.0, 8.0,
                        16.0, 32.0, 64.0, 128.0, 256.0, 512.0);
}

}  // namespace locble::runtime
