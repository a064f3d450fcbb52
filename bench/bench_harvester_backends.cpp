// Harvester-backend throughput: the paper's 10-point D-optimal workload
// evaluated through every registered harvester backend, scalar envelope
// path versus evaluate_batch, on one thread. Registry-driven: a new
// backend joins this table (and the perf gate) just by registering.
//
// What the gate pins (scripts/check_perf.sh, baseline
// BENCH_harvester_backends.json at the repo root):
//   * <name>_scalar_evals_per_s / <name>_batch_evals_per_s hold the
//     >-15% regression rule per backend — a backend batching through the
//     default make_envelope_batch (its scalar hook per lane) must not
//     silently decay any more than the hand-vectorised electromagnetic
//     kernel;
//   * the <name>_batch_speedup rows are informational; the
//     electromagnetic kernel's advantage over its scalar path is gated by
//     bench_batch_kernel's batch_speedup_x, a median over interleaved
//     trials held to the same -15% rule against its own baseline.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "doe/d_optimal.hpp"
#include "doe/designs.hpp"
#include "dse/rsm_flow.hpp"
#include "dse/system_evaluator.hpp"
#include "harvester/harvester_model.hpp"
#include "obs/timing.hpp"
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
    std::printf("workload: %zu-point d-optimal, 600 s scenario, 1 thread\n\n",
                configs.size());

    bench::json_emitter json("harvester_backends");
    for (const harvester::harvester_info& info :
         harvester::harvester_registry()) {
        const dse::system_evaluator evaluator(scn,
                                              spec::harvester_spec{info.name});
        const std::string workload = info.name + ", " +
                                     std::to_string(configs.size()) +
                                     "-point d-optimal, 600 s scenario";

        // Warm-up, then best-of-3 each way (regression-gated numbers).
        (void)evaluator.evaluate(configs.front());
        (void)evaluator.evaluate_batch(configs);

        double scalar_wall = 1e300;
        for (int rep = 0; rep < 3; ++rep) {
            obs::stopwatch watch;
            for (const dse::system_config& config : configs)
                (void)evaluator.evaluate(config);
            scalar_wall = std::min(scalar_wall, watch.seconds());
        }
        double batch_wall = 1e300;
        for (int rep = 0; rep < 3; ++rep) {
            obs::stopwatch watch;
            (void)evaluator.evaluate_batch(configs);
            batch_wall = std::min(batch_wall, watch.seconds());
        }

        const double scalar_rate = n / scalar_wall;
        const double batch_rate = n / batch_wall;
        std::printf("%-18s scalar %.2f evals/s, batch %.2f evals/s (%.2fx)\n",
                    info.name.c_str(), scalar_rate, batch_rate,
                    batch_rate / scalar_rate);

        json.record(info.name + "_scalar_evals_per_s", scalar_rate, "evals/s",
                    workload);
        json.record(info.name + "_batch_evals_per_s", batch_rate, "evals/s",
                    workload);
        json.record(info.name + "_batch_speedup", batch_rate / scalar_rate,
                    "x", workload);
    }
    json.write();
    return 0;
}
