#include "dse/robustness.hpp"

#include <algorithm>
#include <cmath>

#include "exec/batch.hpp"
#include "numeric/stats.hpp"

namespace ehdse::dse {

robustness_summary run_robustness_study(const scenario& base,
                                        const system_config& config,
                                        const std::string& label,
                                        const robustness_options& options) {
    robustness_summary out;
    out.label = label;
    out.config = config;

    // Enumerate every variant first so the sweep can fan out; sample
    // order matches the sequential axis order either way.
    struct variant {
        scenario scn;
        std::uint64_t seed;
    };
    std::vector<variant> variants;
    const std::uint64_t axis_seed =
        options.seeds.empty() ? 1 : options.seeds.front();

    // Axis 1: measurement-noise seeds at the nominal scenario.
    for (std::uint64_t seed : options.seeds) variants.push_back({base, seed});

    // Axis 2: excitation amplitude.
    for (double mg : options.accel_levels_mg) {
        scenario scn = base;
        scn.accel_mg = mg;
        variants.push_back({scn, axis_seed});
    }

    // Axis 3: frequency step size.
    for (double step : options.step_sizes_hz) {
        scenario scn = base;
        scn.f_step_hz = step;
        variants.push_back({scn, axis_seed});
    }

    out.samples.resize(variants.size());
    exec::parallel_for(options.pool, variants.size(), [&](std::size_t i) {
        system_evaluator evaluator(variants[i].scn);
        evaluation_options eval = options.eval;
        eval.controller_seed = variants[i].seed;
        const auto r = evaluator.evaluate(config, eval);
        out.samples[i] = static_cast<double>(r.transmissions);
    });

    if (!out.samples.empty()) {
        out.mean_tx = numeric::mean(out.samples);
        const auto [lo, hi] = numeric::min_max(out.samples);
        out.min_tx = lo;
        out.max_tx = hi;
        out.stddev_tx = numeric::sample_stddev(out.samples);
    }
    return out;
}

}  // namespace ehdse::dse
