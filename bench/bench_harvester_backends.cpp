// Harvester-backend throughput: the paper's 10-point D-optimal workload
// evaluated through every registered harvester backend, scalar envelope
// path versus evaluate_batch, on one thread. Registry-driven: a new
// backend joins this table (and the perf gate) just by registering.
//
// Each backend is timed by bench::interleaved_trials: a trial times a
// scalar pass (the ten configs through evaluate()) and a batch pass (one
// evaluate_batch of the ten) back to back, each side repeated for at
// least bench::k_min_side_s, so a rate is the median of k_trials readings
// well above timer and scheduler noise.
//
// What the gate pins (scripts/check_perf.sh, baseline
// BENCH_harvester_backends.json at the repo root):
//   * <name>_scalar_evals_per_s / <name>_batch_evals_per_s hold the
//     >-15% regression rule per backend — a backend batching through the
//     default make_envelope_batch (its scalar hook per lane) must not
//     silently decay any more than the hand-vectorised electromagnetic
//     kernel;
//   * the <name>_batch_speedup rows (medians of the per-trial ratios) are
//     informational; the electromagnetic kernel's advantage over its
//     scalar path is gated by bench_batch_kernel's batch_speedup_x, held
//     to the same -15% rule against its own baseline.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "doe/d_optimal.hpp"
#include "doe/designs.hpp"
#include "dse/rsm_flow.hpp"
#include "dse/system_evaluator.hpp"
#include "harvester/harvester_model.hpp"
#include "rsm/quadratic_model.hpp"

int main() {
    using namespace ehdse;

    dse::scenario scn;
    scn.duration_s = 600.0;
    scn.step_period_s = 250.0;
    scn.step_count = 1;

    const auto space = dse::paper_design_space();
    const auto candidates = doe::full_factorial(3, 3);
    const auto selection = doe::d_optimal_design(
        candidates,
        [](const numeric::vec& x) { return rsm::quadratic_basis(x); }, 10, {});
    std::vector<dse::system_config> configs;
    for (std::size_t idx : selection.selected)
        configs.push_back(dse::config_from_coded(space, candidates[idx]));
    const double n = static_cast<double>(configs.size());

    std::printf("=== Harvester backend throughput ===\n");
    std::printf("workload: %zu-point d-optimal, 600 s scenario, 1 thread; "
                "medians of %d interleaved trials\n\n",
                configs.size(), bench::k_trials);

    bench::json_emitter json("harvester_backends");
    for (const harvester::harvester_info& info :
         harvester::harvester_registry()) {
        const dse::system_evaluator evaluator(scn,
                                              spec::harvester_spec{info.name});
        const std::string workload = info.name + ", " +
                                     std::to_string(configs.size()) +
                                     "-point d-optimal, 600 s scenario";

        const bench::paired_trials trials = bench::interleaved_trials(
            [&] {
                for (const dse::system_config& config : configs)
                    (void)evaluator.evaluate(config);
            },
            [&] { (void)evaluator.evaluate_batch(configs); }, n);

        std::printf("%-18s scalar %.2f evals/s (IQR %.2f), batch %.2f evals/s "
                    "(IQR %.2f), %.2fx; %d + %d passes per trial\n",
                    info.name.c_str(), trials.reference.median,
                    trials.reference.iqr, trials.candidate.median,
                    trials.candidate.iqr, trials.ratio.median,
                    trials.reference_passes, trials.candidate_passes);

        json.record(info.name + "_scalar_evals_per_s", trials.reference,
                    "evals/s", workload);
        json.record(info.name + "_batch_evals_per_s", trials.candidate,
                    "evals/s", workload);
        json.record(info.name + "_batch_speedup", trials.ratio, "x", workload);
    }
    json.write();
    return 0;
}
