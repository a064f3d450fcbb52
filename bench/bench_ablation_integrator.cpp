// Integrator ablation: the envelope's exponential Cash–Karp step
// (sim/cash_karp.hpp) against the plain step it replaced, on one-hour
// evaluations of the paper scenario.
//
// Three integrations of every design point:
//   * reference    — plain Cash–Karp at rel 1e-10 / abs 1e-12
//                    (testkit::plain_step_evaluator's defaults);
//   * plain 1e-6   — plain Cash–Karp at the envelope's former rel 1e-6 /
//                    abs 1e-8: the previous integrator, step for step;
//   * exponential  — the envelope's own integration (the exponential step
//                    at envelope_ode_options()).
// Per variant: accepted steps and rejections per evaluation, RHS calls (6
// per step attempt), the mean and max |final voltage - reference's|, how
// many points transmit a different number of packets than the reference,
// and (the EM-bridge grid) ms per scalar evaluation, timed against each
// other by bench::interleaved_trials.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "dse/system_evaluator.hpp"
#include "testkit/plain_step.hpp"
#include "testkit/prng.hpp"

namespace {

using namespace ehdse;

/// The coded 3^3 grid over the paper's design box.
std::vector<dse::system_config> grid_points() {
    const auto space = dse::paper_design_space();
    std::vector<dse::system_config> out;
    for (const double a : {-1.0, 0.0, 1.0})
        for (const double b : {-1.0, 0.0, 1.0})
            for (const double c : {-1.0, 0.0, 1.0})
                out.push_back(dse::config_from_coded(space, {a, b, c}));
    return out;
}

/// `n` points drawn uniformly from the coded box, seeded.
std::vector<dse::system_config> random_points(std::size_t n,
                                              std::uint64_t seed) {
    const auto space = dse::paper_design_space();
    testkit::prng r(seed);
    std::vector<dse::system_config> out;
    for (std::size_t i = 0; i < n; ++i) {
        const double a = r.uniform(-1.0, 1.0);
        const double b = r.uniform(-1.0, 1.0);
        const double c = r.uniform(-1.0, 1.0);
        out.push_back(dse::config_from_coded(space, {a, b, c}));
    }
    return out;
}

std::vector<dse::evaluation_result> run_all(
    const dse::system_evaluator& ev,
    const std::vector<dse::system_config>& points,
    const dse::evaluation_options& options) {
    std::vector<dse::evaluation_result> out;
    out.reserve(points.size());
    for (const auto& p : points) out.push_back(ev.evaluate(p, options));
    return out;
}

/// One variant's row against the reference's results.
void print_row(const char* name,
               const std::vector<dse::evaluation_result>& got,
               const std::vector<dse::evaluation_result>& ref,
               const std::string& timing) {
    double steps = 0.0, rejected = 0.0, sum_dv = 0.0, max_dv = 0.0;
    std::size_t flips = 0, failed = 0;
    for (std::size_t i = 0; i < got.size(); ++i) {
        steps += static_cast<double>(got[i].ode_steps);
        rejected += static_cast<double>(got[i].ode_steps_rejected);
        const double dv =
            std::abs(got[i].final_voltage_v - ref[i].final_voltage_v);
        sum_dv += dv;
        max_dv = std::max(max_dv, dv);
        if (got[i].transmissions != ref[i].transmissions) ++flips;
        if (!got[i].sim_ok) ++failed;
    }
    const double n = static_cast<double>(got.size());
    std::printf("%-12s %8.0f %6.0f %9.0f %10.2e %10.2e %6zu/%-4zu %s%s\n",
                name, steps / n, rejected / n, 6.0 * (steps + rejected) / n,
                sum_dv / n, max_dv, flips, got.size(), timing.c_str(),
                failed > 0 ? "  (runs failed)" : "");
}

void print_header(const char* title) {
    std::printf("\n--- %s ---\n", title);
    std::printf("%-12s %8s %6s %9s %10s %10s %11s %s\n", "variant", "steps",
                "rej", "RHS/eval", "mean|dV|", "max|dV|", "tx != ref",
                "ms/eval");
}

/// One section: reference, plain 1e-6 and exponential over `points`.
/// With `timed`, the two candidates' scalar evaluations of the points are
/// timed against each other.
void section(const char* title, const std::string& harvester,
             dse::frontend_kind frontend,
             const std::vector<dse::system_config>& points, bool timed) {
    const dse::scenario scn;
    const spec::harvester_spec harv{harvester};
    dse::evaluation_options options;
    options.frontend = frontend;

    const testkit::plain_step_evaluator reference(scn, harv);
    const testkit::plain_step_evaluator plain(scn, harv, 1e-6, 1e-8);
    const dse::system_evaluator exponential(scn, harv);

    const auto ref = run_all(reference, points, options);
    const auto old = run_all(plain, points, options);
    const auto now = run_all(exponential, points, options);

    std::string old_ms, now_ms;
    if (timed) {
        const auto pass = [&](const dse::system_evaluator& ev) {
            return [&ev, &points, &options] {
                for (const auto& p : points) (void)ev.evaluate(p, options);
            };
        };
        const bench::paired_trials t = bench::interleaved_trials(
            pass(plain), pass(exponential),
            static_cast<double>(points.size()));
        const auto ms = [](const bench::trial_stats& s) {
            char buf[64];
            std::snprintf(buf, sizeof buf, "%.2f (%.1f evals/s, IQR %.1f)",
                          1e3 / s.median, s.median, s.iqr);
            return std::string(buf);
        };
        old_ms = ms(t.reference);
        now_ms = ms(t.candidate);
        char speed[96];
        std::snprintf(speed, sizeof speed,
                      "  speed-up %.2fx (IQR %.2f, %zu trials)", t.ratio.median,
                      t.ratio.iqr, t.ratio.trials);
        now_ms += speed;
    }

    print_header(title);
    print_row("reference", ref, ref, "");
    print_row("plain 1e-6", old, ref, old_ms);
    print_row("exponential", now, ref, now_ms);
}

}  // namespace

int main() {
    std::printf("=== Envelope integrator: exponential vs plain Cash-Karp ===\n");
    std::printf("(one-hour paper scenario; |dV| is the final voltage against "
                "plain Cash-Karp\n at rel 1e-10 / abs 1e-12; RHS calls = 6 x "
                "(steps + rejections))\n");

    const std::vector<dse::system_config> grid = grid_points();
    std::vector<dse::system_config> grid_random = grid;
    const auto random200 = random_points(200, 2012);
    grid_random.insert(grid_random.end(), random200.begin(), random200.end());
    std::vector<dse::system_config> grid_random20 = grid;
    const auto random20 = random_points(20, 2012);
    grid_random20.insert(grid_random20.end(), random20.begin(), random20.end());

    section("electromagnetic, diode bridge: 27-point grid", "electromagnetic",
            dse::frontend_kind::diode_bridge, grid, /*timed=*/true);
    section("electromagnetic, diode bridge: grid + 200 random points",
            "electromagnetic", dse::frontend_kind::diode_bridge, grid_random,
            /*timed=*/false);
    section("electrostatic: grid + 20 random points", "electrostatic",
            dse::frontend_kind::diode_bridge, grid_random20, /*timed=*/false);
    section("electromagnetic, mppt: grid + 20 random points",
            "electromagnetic", dse::frontend_kind::mppt, grid_random20,
            /*timed=*/false);
    return 0;
}
