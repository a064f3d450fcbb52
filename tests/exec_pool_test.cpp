// Work-stealing thread pool: bounded worker counts, submit/parallel_for
// semantics, exception propagation, stealing, caller-runs fan-outs and
// obs integration.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exec/batch.hpp"
#include "exec/thread_pool.hpp"
#include "obs/metrics.hpp"

namespace ex = ehdse::exec;

namespace {

// Holds every worker of a pool inside a task until release() or the
// gate's destruction, so a test decides when the workers come back.
// Declare it after the pool: it must open before the pool joins.
class worker_gate {
public:
    explicit worker_gate(ex::thread_pool& pool) : workers_(pool.size()) {
        const std::shared_future<void> open = open_.get_future().share();
        for (std::size_t i = 0; i < workers_; ++i)
            pool.submit([parked = parked_, open] {
                parked->fetch_add(1);
                open.wait();
            });
    }
    ~worker_gate() { release(); }

    /// True once every worker waits at the gate; false after 30 s.
    bool all_parked() const {
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(30);
        while (parked_->load() < workers_) {
            if (std::chrono::steady_clock::now() > deadline) return false;
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        return true;
    }

    void release() {
        if (released_) return;
        released_ = true;
        open_.set_value();
    }

private:
    std::size_t workers_;
    std::shared_ptr<std::atomic<std::size_t>> parked_ =
        std::make_shared<std::atomic<std::size_t>>(0);
    std::promise<void> open_;
    bool released_ = false;
};

}  // namespace

TEST(ThreadPool, DefaultSizeIsHardwareConcurrency) {
    ex::thread_pool pool;
    EXPECT_EQ(pool.size(), ex::default_concurrency());
    EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, SubmitFutureReturnsValues) {
    ex::thread_pool pool(2);
    auto a = pool.submit_future([] { return 7; });
    auto b = pool.submit_future([] { return std::string("ok"); });
    EXPECT_EQ(a.get(), 7);
    EXPECT_EQ(b.get(), "ok");
}

TEST(ThreadPool, SubmitFuturePropagatesExceptions) {
    ex::thread_pool pool(2);
    auto f = pool.submit_future(
        []() -> int { throw std::runtime_error("boom"); });
    EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, DrainsQueuedTasksBeforeDestruction) {
    std::atomic<int> done{0};
    {
        ex::thread_pool pool(2);
        for (int i = 0; i < 32; ++i)
            pool.submit([&done] { done.fetch_add(1); });
    }
    EXPECT_EQ(done.load(), 32);
}

// The regression the engine exists for: however many tasks are in flight,
// the number of distinct worker threads — and the observed concurrency —
// never exceeds the constructed size (the old per-job std::async pattern
// spawned one thread per task).
TEST(ThreadPool, WorkerCountNeverExceedsJobs) {
    constexpr std::size_t jobs = 2;
    ex::thread_pool pool(jobs);

    std::mutex mutex;
    std::set<std::thread::id> worker_ids;
    std::atomic<std::size_t> live{0};
    std::atomic<std::size_t> high_water{0};

    std::vector<std::future<void>> futures;
    for (int i = 0; i < 64; ++i)
        futures.push_back(pool.submit_future([&] {
            const std::size_t now = live.fetch_add(1) + 1;
            std::size_t seen = high_water.load();
            while (now > seen && !high_water.compare_exchange_weak(seen, now)) {
            }
            {
                std::lock_guard<std::mutex> lock(mutex);
                worker_ids.insert(std::this_thread::get_id());
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            live.fetch_sub(1);
        }));
    for (auto& f : futures) f.get();

    EXPECT_LE(worker_ids.size(), jobs);
    EXPECT_LE(high_water.load(), jobs);
    EXPECT_EQ(pool.counters().executed, 64u);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
    ex::thread_pool pool(3);
    constexpr std::size_t n = 257;
    std::vector<std::atomic<int>> hits(n);
    pool.parallel_for(n, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, ParallelForPropagatesFirstException) {
    ex::thread_pool pool(2);
    EXPECT_THROW(pool.parallel_for(16,
                                   [](std::size_t i) {
                                       if (i == 5)
                                           throw std::runtime_error("bad index");
                                   }),
                 std::runtime_error);
    // The pool stays usable afterwards.
    std::atomic<int> sum{0};
    pool.parallel_for(8, [&](std::size_t i) {
        sum.fetch_add(static_cast<int>(i));
    });
    EXPECT_EQ(sum.load(), 28);
}

// A body that fans out again must not deadlock waiting on tasks queued
// behind its own worker slot — nested ranges run inline.
TEST(ThreadPool, NestedParallelForRunsInline) {
    ex::thread_pool pool(1);
    std::atomic<int> inner_total{0};
    pool.parallel_for(4, [&](std::size_t) {
        pool.parallel_for(4,
                          [&](std::size_t j) {
                              inner_total.fetch_add(static_cast<int>(j) + 1);
                          });
    });
    EXPECT_EQ(inner_total.load(), 4 * 10);
}

TEST(ThreadPool, FreeParallelForFallsBackSequentially) {
    std::vector<std::size_t> order;
    ex::parallel_for(nullptr, 5, [&](std::size_t i) { order.push_back(i); });
    ASSERT_EQ(order.size(), 5u);
    for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(order[i], i);

    const auto values = ex::map_indexed<int>(
        nullptr, 4, [](std::size_t i) { return static_cast<int>(i * i); });
    EXPECT_EQ(values, (std::vector<int>{0, 1, 4, 9}));
}

// Block one worker, then round-robin enough tasks that some land in the
// blocked worker's deque; the free worker must steal them.
TEST(ThreadPool, StealsFromABlockedWorkersQueue) {
    ex::thread_pool pool(2);
    std::promise<void> release;
    std::shared_future<void> gate = release.get_future().share();

    auto blocker = pool.submit_future([gate] { gate.wait(); });
    std::this_thread::sleep_for(std::chrono::milliseconds(10));

    std::vector<std::future<void>> futures;
    std::atomic<int> done{0};
    for (int i = 0; i < 16; ++i)
        futures.push_back(pool.submit_future([&done] { done.fetch_add(1); }));

    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (done.load() < 16 && std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_EQ(done.load(), 16) << "free worker failed to steal";
    EXPECT_GT(pool.counters().stolen, 0u);

    release.set_value();
    blocker.get();
    for (auto& f : futures) f.get();
}

TEST(ThreadPool, MetricsRecordedWhenRegistryAttached) {
    ehdse::obs::metrics_registry registry;
    ehdse::obs::set_global_registry(&registry);
    {
        ex::thread_pool pool(2);
        pool.parallel_for(64, [](std::size_t) {
            std::this_thread::sleep_for(std::chrono::microseconds(100));
        });
        EXPECT_DOUBLE_EQ(registry.get_gauge("exec.pool.workers").value(), 2.0);
    }
    ehdse::obs::set_global_registry(nullptr);

    EXPECT_GT(registry.get_counter("exec.pool.tasks").value(), 0u);
    EXPECT_GT(registry.get_histogram("exec.pool.task_wait_seconds").count(),
              0u);
    EXPECT_GT(registry.get_histogram("exec.pool.task_run_seconds").count(),
              0u);
    EXPECT_GE(registry.get_gauge("exec.pool.queue_depth").value(), 0.0);
}

// A fan-out from outside the pool runs on its caller too, and waits only
// for bodies already running: with every worker busy the caller finishes
// the whole range by itself instead of waiting for queued work.
TEST(ThreadPool, CallerFinishesAloneWhileEveryWorkerIsBusy) {
    ex::thread_pool pool(2);
    worker_gate gate(pool);
    ASSERT_TRUE(gate.all_parked());

    std::vector<std::thread::id> ran_on(8);
    auto caller = std::async(std::launch::async, [&] {
        pool.parallel_for(ran_on.size(), [&](std::size_t i) {
            ran_on[i] = std::this_thread::get_id();
        });
        return std::this_thread::get_id();
    });
    const std::future_status status =
        caller.wait_for(std::chrono::seconds(10));
    gate.release();  // a fan-out waiting on queued work can finish now
    const std::thread::id caller_id = caller.get();

    EXPECT_EQ(status, std::future_status::ready)
        << "parallel_for waited for workers that were busy elsewhere";
    for (std::size_t i = 0; i < ran_on.size(); ++i)
        EXPECT_EQ(ran_on[i], caller_id) << i;
}

// The caller counts against the bound: one fan-out never has more bodies
// running at once than the pool has workers.
TEST(ThreadPool, FanOutRunsAtMostSizeBodiesAtOnce) {
    ex::thread_pool pool(3);
    std::atomic<std::size_t> live{0};
    std::atomic<std::size_t> high_water{0};
    for (int round = 0; round < 20; ++round)
        pool.parallel_for(16, [&](std::size_t) {
            const std::size_t now = live.fetch_add(1) + 1;
            std::size_t seen = high_water.load();
            while (now > seen && !high_water.compare_exchange_weak(seen, now)) {
            }
            std::this_thread::sleep_for(std::chrono::microseconds(200));
            live.fetch_sub(1);
        });
    EXPECT_GE(high_water.load(), 1u);
    EXPECT_LE(high_water.load(), pool.size());
}

// A helper queued behind busy workers starts only after its fan-out has
// returned and the body it was given is gone. It must find every index
// claimed and touch nothing of the caller's: the body lives on the heap
// and is freed first, so ASan reports any late use, and TSan any race.
TEST(ThreadPool, HelperThatStartsAfterItsFanOutReturnedClaimsNothing) {
    std::size_t runs = 0;
    {
        ex::thread_pool pool(2);
        worker_gate gate(pool);
        ASSERT_TRUE(gate.all_parked());

        auto caller = std::async(std::launch::async, [&] {
            auto body = std::make_unique<std::function<void(std::size_t)>>(
                [&runs](std::size_t) { ++runs; });
            pool.parallel_for(8, *body);
        });
        const std::future_status status =
            caller.wait_for(std::chrono::seconds(10));
        // One helper (min(8, 2) - 1) is queued and none has started.
        const ex::thread_pool::totals before = pool.counters();
        gate.release();
        caller.get();

        ASSERT_EQ(status, std::future_status::ready);
        EXPECT_EQ(runs, 8u);
        EXPECT_EQ(before.submitted, pool.size() + 1);
        EXPECT_EQ(before.executed, pool.size());
    }  // the pool runs the helper before it joins
    EXPECT_EQ(runs, 8u);
}
