// Fixed-size work-stealing thread pool — the shared execution engine
// behind the flow's simulate, optimise and validate fan-outs, the
// robustness sweep and the service's runners. Replaces the old
// one-std::async-per-job pattern: the worker count is bounded by
// construction (`--jobs N` at the CLI), so a 24-replicate flow on a
// 4-core laptop runs 4 threads, not 240.
//
// Scheduling: one deque per worker (see task_queue.hpp). Workers pop their
// own deque LIFO and steal FIFO from the others when empty; external
// submitters round-robin across deques, worker-side submissions go to the
// submitting worker's own deque.
//
// Wake-ups: a worker that finds no task parks on its own wake slot and
// joins a stack of idle workers; submit() wakes exactly one of them, the
// one that went idle last (its cache and its core are the likeliest still
// warm). A worker re-checks the queued count under the sleep mutex before
// it parks, and submit() counts a task before it looks for an idle worker
// under that mutex, so a wake is never lost.
//
// Fan-out: parallel_for called from a thread outside the pool runs on that
// thread too (caller-runs). The caller claims indices from a shared
// counter beside at most min(n, size()) - 1 helper tasks, so a pool of N
// runs at most N bodies of one fan-out at once, and it returns as soon as
// every index has finished: it never waits for a helper that has not
// started. The fan-out's state is shared with the helpers on the heap, so
// a helper that starts late finds every index claimed and touches nothing
// of the caller's.
//
// Observability (resolved once at construction, iff a global metrics
// registry is installed — install the registry *before* building the
// pool): exec.pool.workers / exec.pool.queue_depth gauges,
// exec.pool.tasks (submitted tasks: a fan-out's helpers, not its items) /
// exec.pool.steals counters, and exec.pool.task_wait_seconds (how late a
// task, e.g. a helper, starts) / exec.pool.task_run_seconds histograms.
// With no registry attached the pool never reads a clock per task.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "exec/task_queue.hpp"

namespace ehdse::obs {
class counter;
class gauge;
class histogram;
}  // namespace ehdse::obs

namespace ehdse::exec {

/// std::thread::hardware_concurrency(), never less than 1.
std::size_t default_concurrency() noexcept;

class thread_pool {
public:
    /// `threads` worker threads; 0 selects default_concurrency().
    explicit thread_pool(std::size_t threads = 0);

    /// Joins after draining every queued task.
    ~thread_pool();

    thread_pool(const thread_pool&) = delete;
    thread_pool& operator=(const thread_pool&) = delete;

    std::size_t size() const noexcept { return workers_.size(); }

    /// Enqueue fire-and-forget work. The task must not throw — an escaping
    /// exception terminates the process (use submit_future or parallel_for
    /// for exception propagation). Throws std::logic_error after shutdown
    /// has begun.
    void submit(task_fn task);

    /// Enqueue work and obtain its result (or exception) via a future.
    template <typename F>
    auto submit_future(F&& f)
        -> std::future<std::invoke_result_t<std::decay_t<F>>> {
        using result_t = std::invoke_result_t<std::decay_t<F>>;
        auto task = std::make_shared<std::packaged_task<result_t()>>(
            std::forward<F>(f));
        std::future<result_t> future = task->get_future();
        submit([task] { (*task)(); });
        return future;
    }

    /// Run body(0) .. body(n-1), blocking until all complete. The calling
    /// thread claims indices beside at most min(n, size()) - 1 helper
    /// tasks and waits only for bodies already running. When called from
    /// one of this pool's own workers the range runs inline on the calling
    /// thread (a nested fan-out must not park a worker slot waiting for
    /// tasks queued behind it). The first exception a body throws is
    /// rethrown on the calling thread after every index has finished.
    void parallel_for(std::size_t n,
                      const std::function<void(std::size_t)>& body);

    /// True when the calling thread is one of this pool's workers.
    bool on_worker_thread() const noexcept;

    /// Lifetime totals, independent of any metrics registry.
    struct totals {
        std::uint64_t submitted = 0;
        std::uint64_t executed = 0;
        std::uint64_t stolen = 0;
    };
    totals counters() const noexcept;

private:
    /// One worker's place to sleep; `woken` is guarded by sleep_mutex_.
    struct wake_slot {
        std::condition_variable wake;
        bool woken = false;
    };

    void worker_loop(std::size_t index);
    void wake_one();
    bool try_get_task(std::size_t index, detail::task_item& out);
    void run_task(detail::task_item& item);
    void note_dequeue();

    std::vector<std::unique_ptr<detail::task_queue>> queues_;
    std::vector<std::thread> workers_;

    std::unique_ptr<wake_slot[]> slots_;
    std::mutex sleep_mutex_;
    std::vector<std::size_t> idle_;  ///< parked workers, last parked on top
    std::atomic<std::size_t> queued_{0};   ///< tasks in queues, not yet taken
    std::atomic<std::size_t> next_queue_{0};
    std::atomic<bool> stop_{false};

    std::atomic<std::uint64_t> submitted_{0};
    std::atomic<std::uint64_t> executed_{0};
    std::atomic<std::uint64_t> stolen_{0};

    // Cached instruments; all nullptr when no registry was installed at
    // construction time.
    obs::counter* tasks_counter_ = nullptr;
    obs::counter* steal_counter_ = nullptr;
    obs::gauge* depth_gauge_ = nullptr;
    obs::histogram* wait_hist_ = nullptr;
    obs::histogram* run_hist_ = nullptr;
};

}  // namespace ehdse::exec
