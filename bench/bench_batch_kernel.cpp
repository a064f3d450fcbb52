// Batch-kernel throughput: the paper's 10-point D-optimal workload
// evaluated per-config through the scalar envelope path versus in one
// SoA batch through system_evaluator::evaluate_batch, on one thread.
// This is the perf-gated number (scripts/check_perf.sh): batch_speedup_x,
// the median over interleaved trials of batch over scalar evaluations/s,
// must stay within the regression tolerance of its committed baseline,
// so the batch kernel keeps its single-thread advantage over the scalar
// path; both evaluations/s rows hold the same rule.
#include <cstdio>
#include <vector>

#include "bench_json.hpp"
#include "doe/d_optimal.hpp"
#include "doe/designs.hpp"
#include "dse/rsm_flow.hpp"
#include "dse/system_evaluator.hpp"
#include "rsm/quadratic_model.hpp"

int main() {
    using namespace ehdse;

    // Same workload as bench_exec_throughput's pool rows: the flow's
    // simulate phase in isolation on a 10-minute scenario.
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
    const std::string workload =
        std::to_string(configs.size()) + "-point d-optimal, 600 s scenario, 1 thread";

    std::printf("=== Batch kernel throughput ===\n");
    std::printf("workload: %s\n", workload.c_str());

    const bench::paired_trials trials = bench::interleaved_trials(
        [&] {
            for (const dse::system_config& config : configs)
                (void)evaluator.evaluate(config);
        },
        [&] { (void)evaluator.evaluate_batch(configs); },
        static_cast<double>(configs.size()));

    std::printf("%d interleaved trials; a trial times %d scalar passes and "
                "%d batch passes\n\n",
                bench::k_trials, trials.reference_passes,
                trials.candidate_passes);
    std::printf("%-8s %10s %10s %10s\n", "", "median", "min", "IQR");
    const auto print_row = [](const char* label, const bench::trial_stats& s,
                              const char* unit) {
        std::printf("%-8s %10.2f %10.2f %10.2f  %s\n", label, s.median, s.min,
                    s.iqr, unit);
    };
    print_row("scalar", trials.reference, "evals/s");
    print_row("batch", trials.candidate, "evals/s");
    print_row("speedup", trials.ratio, "x");

    bench::json_emitter json("batch_kernel");
    json.record("scalar_evals_per_s", trials.reference, "evals/s", workload);
    json.record("batch_evals_per_s", trials.candidate, "evals/s", workload);
    json.record("batch_speedup_x", trials.ratio, "x", workload);
    json.write();
    return 0;
}
