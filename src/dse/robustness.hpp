// Robustness analysis of an optimised configuration — how well does the
// RSM-chosen design hold up when the world deviates from the nominal
// scenario? A follow-the-paper extension: the published flow optimises for
// one fixed stimulus (60 mg, two +5 Hz steps); a deployed node faces seed-
// level measurement noise, different excitation amplitudes and different
// frequency schedules.
#pragma once

#include <string>
#include <vector>

#include "dse/system_evaluator.hpp"

namespace ehdse::exec {
class thread_pool;
}  // namespace ehdse::exec

namespace ehdse::dse {

/// Statistics of a configuration across a perturbation set.
struct robustness_summary {
    std::string label;
    system_config config;
    double mean_tx = 0.0;
    double min_tx = 0.0;
    double max_tx = 0.0;
    double stddev_tx = 0.0;
    std::vector<double> samples;  ///< transmissions per variant, in order
};

/// Perturbation axes for a study.
struct robustness_options {
    std::vector<std::uint64_t> seeds = {1, 2, 3, 4, 5};  ///< noise streams
    std::vector<double> accel_levels_mg = {40.0, 60.0, 80.0};  ///< amplitude
    /// Alternative frequency step sizes (Hz) applied to the base scenario.
    std::vector<double> step_sizes_hz = {3.0, 5.0, 8.0};
    /// Evaluation options every variant starts from (fidelity, front-end,
    /// tracing); only controller_seed is overridden, per variant.
    evaluation_options eval{};
    /// Evaluate the variants over this pool (nullptr = sequential). Each
    /// variant is independently seeded, so samples are identical either
    /// way. Non-owning; must outlive the call.
    exec::thread_pool* pool = nullptr;
};

/// Evaluate `config` across the cross-product of one perturbation axis at a
/// time (holding the others at the base scenario's values):
///   variants = seeds  +  accel levels  +  step sizes.
robustness_summary run_robustness_study(const scenario& base,
                                        const system_config& config,
                                        const std::string& label,
                                        const robustness_options& options = {});

}  // namespace ehdse::dse
