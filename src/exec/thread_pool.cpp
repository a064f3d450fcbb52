#include "exec/thread_pool.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace ehdse::exec {

namespace {

// Worker identity for on_worker_thread() / nested-submit routing.
thread_local const thread_pool* t_current_pool = nullptr;
thread_local std::size_t t_worker_index = 0;

// One external parallel_for's state, owned jointly by the caller and its
// helper tasks. `body` is the caller's and is read only after a claim
// succeeds, which cannot happen once the caller has returned.
struct fan_out {
    fan_out(std::size_t count, const std::function<void(std::size_t)>& fn)
        : n(count), body(fn), unfinished(count) {}

    // Claim and run indices until every one has been claimed.
    void run() {
        for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
             i < n; i = next.fetch_add(1, std::memory_order_relaxed)) {
            try {
                body(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!first_error) first_error = std::current_exception();
            }
            if (unfinished.fetch_sub(1, std::memory_order_acq_rel) == 1)
                unfinished.notify_all();
        }
    }

    const std::size_t n;
    const std::function<void(std::size_t)>& body;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> unfinished;
    std::mutex error_mutex;
    std::exception_ptr first_error;
};

}  // namespace

std::size_t default_concurrency() noexcept {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

thread_pool::thread_pool(std::size_t threads) {
    const std::size_t n = threads == 0 ? default_concurrency() : threads;
    if (auto* registry = obs::global_registry()) {
        tasks_counter_ = &registry->get_counter("exec.pool.tasks");
        steal_counter_ = &registry->get_counter("exec.pool.steals");
        depth_gauge_ = &registry->get_gauge("exec.pool.queue_depth");
        wait_hist_ = &registry->get_histogram("exec.pool.task_wait_seconds");
        run_hist_ = &registry->get_histogram("exec.pool.task_run_seconds");
        registry->get_gauge("exec.pool.workers").set(static_cast<double>(n));
    }
    queues_.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        queues_.push_back(std::make_unique<detail::task_queue>());
    slots_ = std::make_unique<wake_slot[]>(n);
    idle_.reserve(n);
    workers_.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        workers_.emplace_back([this, i] { worker_loop(i); });
}

thread_pool::~thread_pool() {
    {
        std::lock_guard<std::mutex> lock(sleep_mutex_);
        stop_.store(true, std::memory_order_release);
        for (const std::size_t index : idle_) slots_[index].woken = true;
        idle_.clear();
    }
    for (std::size_t i = 0; i < size(); ++i) slots_[i].wake.notify_one();
    for (auto& worker : workers_) worker.join();
}

bool thread_pool::on_worker_thread() const noexcept {
    return t_current_pool == this;
}

void thread_pool::submit(task_fn task) {
    if (!task) throw std::invalid_argument("thread_pool::submit: empty task");
    if (stop_.load(std::memory_order_acquire))
        throw std::logic_error("thread_pool::submit: pool is shutting down");

    detail::task_item item{std::move(task), {}};
    if (wait_hist_) item.enqueued = std::chrono::steady_clock::now();

    const std::size_t index =
        on_worker_thread()
            ? t_worker_index
            : next_queue_.fetch_add(1, std::memory_order_relaxed) %
                  queues_.size();
    queues_[index]->push(std::move(item));

    submitted_.fetch_add(1, std::memory_order_relaxed);
    if (tasks_counter_) tasks_counter_->add();
    const std::size_t depth =
        queued_.fetch_add(1, std::memory_order_release) + 1;
    if (depth_gauge_) depth_gauge_->set(static_cast<double>(depth));
    wake_one();
}

void thread_pool::wake_one() {
    std::unique_lock<std::mutex> lock(sleep_mutex_);
    if (idle_.empty()) return;  // every worker is awake and will look again
    wake_slot& slot = slots_[idle_.back()];
    idle_.pop_back();
    slot.woken = true;
    lock.unlock();
    slot.wake.notify_one();
}

void thread_pool::note_dequeue() {
    const std::size_t depth =
        queued_.fetch_sub(1, std::memory_order_acquire) - 1;
    if (depth_gauge_) depth_gauge_->set(static_cast<double>(depth));
}

bool thread_pool::try_get_task(std::size_t index, detail::task_item& out) {
    if (queues_[index]->pop(out)) {
        note_dequeue();
        return true;
    }
    const std::size_t n = queues_.size();
    for (std::size_t offset = 1; offset < n; ++offset) {
        if (queues_[(index + offset) % n]->steal(out)) {
            stolen_.fetch_add(1, std::memory_order_relaxed);
            if (steal_counter_) steal_counter_->add();
            note_dequeue();
            return true;
        }
    }
    return false;
}

void thread_pool::run_task(detail::task_item& item) {
    // Count before invoking: the task's future resolves inside fn(), so a
    // thread joining on that future must already see the task accounted
    // for — counting afterwards races the counter against the join.
    executed_.fetch_add(1, std::memory_order_relaxed);
    if (wait_hist_)
        wait_hist_->observe(std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - item.enqueued)
                                .count());
    if (run_hist_) {
        const auto start = std::chrono::steady_clock::now();
        item.fn();
        run_hist_->observe(std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count());
    } else {
        item.fn();
    }
    item.fn = nullptr;
}

void thread_pool::worker_loop(std::size_t index) {
    t_current_pool = this;
    t_worker_index = index;
    wake_slot& slot = slots_[index];
    detail::task_item item;
    while (true) {
        if (try_get_task(index, item)) {
            run_task(item);
            continue;
        }
        // Re-check under the sleep mutex: a task counted after this check
        // finds this worker on the idle stack in wake_one().
        std::unique_lock<std::mutex> lock(sleep_mutex_);
        if (queued_.load(std::memory_order_acquire) > 0) continue;
        if (stop_.load(std::memory_order_acquire)) return;
        slot.woken = false;
        idle_.push_back(index);
        slot.wake.wait(lock, [&slot] { return slot.woken; });
    }
}

void thread_pool::parallel_for(std::size_t n,
                               const std::function<void(std::size_t)>& body) {
    if (n == 0) return;
    if (n == 1 || on_worker_thread()) {
        for (std::size_t i = 0; i < n; ++i) body(i);
        return;
    }

    const auto state = std::make_shared<fan_out>(n, body);
    const std::size_t helpers = std::min(n, size()) - 1;
    for (std::size_t h = 0; h < helpers; ++h)
        submit([state] { state->run(); });
    state->run();
    // Every index is claimed; wait for the bodies still running elsewhere.
    for (std::size_t left = state->unfinished.load(std::memory_order_acquire);
         left != 0; left = state->unfinished.load(std::memory_order_acquire))
        state->unfinished.wait(left, std::memory_order_acquire);
    if (state->first_error) std::rethrow_exception(state->first_error);
}

thread_pool::totals thread_pool::counters() const noexcept {
    return {submitted_.load(std::memory_order_relaxed),
            executed_.load(std::memory_order_relaxed),
            stolen_.load(std::memory_order_relaxed)};
}

}  // namespace ehdse::exec
