// Execution-engine throughput on the paper's 10-point D-optimal design at
// a 600 s scenario: design-point evaluations per second through the
// work-stealing pool (jobs = 2, 4 and 8 against jobs = 1), the memoising
// cache's cold and warm passes, and the whole flow without a pool (the
// `ehdse_cli flow` default) against an owned pool of 4 workers. One more
// row isolates the pool's own cost: the makespan of a fan-out of as many
// equal fixed-length tasks as the pool has workers, from the main thread,
// over one such task alone (1 when every task starts at once).
//
// The pool-scaling, fan-out and flow rows are timed by
// bench::interleaved_trials:
// a trial times the reference and the candidate back to back, each for at
// least bench::k_min_side_s, and a row is the median of bench::k_trials
// trials with its minimum and IQR, so drift of the host's speed shows in
// both sides and cancels from the per-trial ratio. Speed-ups depend on the
// host's effective parallelism (`hardware_concurrency` in the host line);
// no ctest gates this file.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "doe/d_optimal.hpp"
#include "doe/designs.hpp"
#include "dse/cached_evaluator.hpp"
#include "dse/rsm_flow.hpp"
#include "dse/system_evaluator.hpp"
#include "exec/batch.hpp"
#include "exec/thread_pool.hpp"
#include "obs/timing.hpp"
#include "rsm/quadratic_model.hpp"

int main() {
    using namespace ehdse;

    // The paper's 10-point D-optimal design on a 10-minute scenario: the
    // same work the flow's simulate phase does, just isolated.
    dse::scenario scn;
    scn.duration_s = 600.0;
    scn.step_period_s = 250.0;
    scn.step_count = 1;
    dse::system_evaluator evaluator(scn);

    const auto space = dse::paper_design_space();
    const auto candidates = doe::full_factorial(3, 3);
    const auto selection = doe::d_optimal_design(
        candidates,
        [](const numeric::vec& x) { return rsm::quadratic_basis(x); }, 10, {});
    std::vector<dse::system_config> configs;
    for (std::size_t idx : selection.selected)
        configs.push_back(dse::config_from_coded(space, candidates[idx]));
    const double n = static_cast<double>(configs.size());

    std::printf("=== Execution engine throughput ===\n");
    std::printf("hardware threads: %zu\n", exec::default_concurrency());
    std::printf("workload: %zu design-point evaluations, %g s scenario; "
                "medians of %d interleaved trials\n\n",
                configs.size(), scn.duration_s, bench::k_trials);

    const auto evaluate_all = [&](exec::thread_pool* pool) {
        exec::parallel_for(pool, configs.size(), [&](std::size_t i) {
            (void)evaluator.evaluate(configs[i]);
        });
    };

    bench::json_emitter json("exec_throughput");
    const std::string workload = std::to_string(configs.size()) +
                                 "-point d-optimal, 600 s scenario";

    std::printf("--- pool scaling (cache off, against jobs = 1) ---\n");
    std::printf("%6s %14s %10s %14s %10s %10s\n", "jobs", "evals/s", "IQR",
                "jobs=1 evals/s", "IQR", "speedup");
    exec::thread_pool one(1);
    for (const std::size_t jobs : {2u, 4u, 8u}) {
        exec::thread_pool pool(jobs);
        const bench::paired_trials trials = bench::interleaved_trials(
            [&] { evaluate_all(&one); }, [&] { evaluate_all(&pool); }, n);
        std::printf("%6zu %14.2f %10.2f %14.2f %10.2f %9.2fx\n", jobs,
                    trials.candidate.median, trials.candidate.iqr,
                    trials.reference.median, trials.reference.iqr,
                    trials.ratio.median);
        const std::string suffix = "_jobs" + std::to_string(jobs);
        if (jobs == 2)
            json.record("evals_per_s_jobs1", trials.reference, "evals/s",
                        workload + ", scalar path, reference of the jobs=2 "
                                   "trials");
        json.record("evals_per_s" + suffix, trials.candidate, "evals/s",
                    workload + ", scalar path");
        json.record("pool_speedup" + suffix, trials.ratio, "x",
                    workload + ", over jobs=1 in the same trials");
    }

    std::printf("\n--- fan-out makespan (pool of %zu) ---\n",
                exec::default_concurrency());
    {
        // A task of fixed wall length: it spins on the clock, so a task
        // that starts late ends late and shows in the makespan.
        const auto task = [] {
            const auto end = std::chrono::steady_clock::now() +
                             std::chrono::milliseconds(3);
            while (std::chrono::steady_clock::now() < end) {
            }
        };
        exec::thread_pool pool;
        const auto fan_out = [&] {
            pool.parallel_for(pool.size(), [&](std::size_t) { task(); });
        };
        // The fan-out is the reference side, so each trial's ratio is the
        // single task's rate over the fan-out's: fan-out time over task
        // time.
        const bench::paired_trials trials =
            bench::interleaved_trials(fan_out, task, 1.0);
        std::printf("%zu tasks of 3 ms: %.2fx one task (min %.2f, IQR "
                    "%.2f)\n",
                    pool.size(), trials.ratio.median, trials.ratio.min,
                    trials.ratio.iqr);
        json.record("fanout_makespan_x", trials.ratio, "x",
                    "parallel_for of one 3 ms busy task per worker from the "
                    "main thread, over one task alone");
    }

    std::printf("\n--- memoisation (jobs = 4) ---\n");
    {
        dse::cached_evaluator cache(evaluator);
        exec::thread_pool pool(4);
        const auto cached_batch = [&] {
            exec::parallel_for(&pool, configs.size(), [&](std::size_t i) {
                (void)cache.evaluate(configs[i]);
            });
        };
        obs::stopwatch cold;
        cached_batch();
        const double cold_wall = cold.seconds();
        obs::stopwatch warm;
        cached_batch();
        const double warm_wall = warm.seconds();
        const auto stats = cache.stats();
        std::printf("cold pass (all misses): %.3f s\n", cold_wall);
        std::printf("warm pass (all hits):   %.6f s (%.0fx faster)\n",
                    warm_wall, cold_wall / warm_wall);
        std::printf("hits %llu, misses %llu, hit rate %.0f%%\n",
                    static_cast<unsigned long long>(stats.hits),
                    static_cast<unsigned long long>(stats.misses),
                    100.0 * stats.hit_rate());
    }

    std::printf("\n--- end-to-end flow (no pool against an owned pool of 4) ---\n");
    {
        dse::flow_options pooled;
        pooled.parallel = true;
        pooled.jobs = 4;
        const bench::paired_trials trials = bench::interleaved_trials(
            [&] { (void)dse::run_rsm_flow(evaluator, {}); },
            [&] { (void)dse::run_rsm_flow(evaluator, pooled); }, 1.0);
        std::printf("no pool:          %.2f flows/s (min %.2f, IQR %.2f)\n",
                    trials.reference.median, trials.reference.min,
                    trials.reference.iqr);
        std::printf("owned pool of 4:  %.2f flows/s (min %.2f, IQR %.2f), "
                    "%.2fx\n",
                    trials.candidate.median, trials.candidate.min,
                    trials.candidate.iqr, trials.ratio.median);
        const std::string flow = "full rsm flow, " + workload;
        json.record("flows_per_s_no_pool", trials.reference, "flows/s", flow);
        json.record("flows_per_s_pool4", trials.candidate, "flows/s",
                    flow + ", owned pool of 4");
        json.record("flow_pool4_speedup", trials.ratio, "x",
                    flow + ", owned pool of 4 over no pool");
    }
    json.write();
    return 0;
}
