// The Southampton tunable electromagnetic cantilever as a registered
// harvester_model — the paper's device, and the registry's default entry.
//
// A thin adapter: the physics stays in microgenerator / envelope /
// transient_model. The envelope RHS is the one part with code of its
// own: envelope_dynamics runs the damping kernel of
// electromagnetic_kernel.cpp, warm-started from the caller's
// damping_path. initial_amplitude and phase_lag are cold libm solves
// (solve_damping).
#pragma once

#include "harvester/harvester_model.hpp"
#include "harvester/microgenerator.hpp"

namespace ehdse::harvester {

class electromagnetic_harvester final : public harvester_model {
public:
    explicit electromagnetic_harvester(microgenerator_params params = {});

    const std::string& name() const noexcept override;
    obs::json_value describe() const override;
    int position_count() const noexcept override {
        return microgenerator_params::k_position_count;
    }
    double resonant_frequency(int position) const override {
        return gen_.resonant_frequency(position);
    }
    retune_cost actuator() const noexcept override { return {}; }

    double initial_amplitude(double freq_hz, double accel_amp_ms2,
                             int position, double store_v,
                             const power::rectifier_params& rect) const override;
    /// The damping kernel, warm-started from a copy of `path` that is
    /// written back (electromagnetic_kernel.cpp).
    envelope_rates envelope_dynamics(
        double freq_hz, double accel_amp_ms2, int position, double store_v,
        double z_env, conditioning_kind conditioning, double efficiency,
        const power::rectifier_params& rect,
        damping_path& path) const override;
    double phase_lag(double freq_hz, double accel_amp_ms2, int position,
                     double store_v,
                     const power::rectifier_params& rect) const override;
    std::unique_ptr<transient_rhs> make_transient(
        const vibration_source& vib, const power::storage_model& storage,
        const power::load_bank& loads,
        const power::rectifier_params& rect) const override;

private:
    microgenerator gen_;
    damping_grid grid_;  ///< the kernel's bisection grid for gen_
};

}  // namespace ehdse::harvester
