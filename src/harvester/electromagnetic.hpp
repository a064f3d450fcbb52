// The Southampton tunable electromagnetic cantilever as a registered
// harvester_model — the paper's device, and the registry's default entry.
//
// This is a thin adapter: the physics stays in microgenerator / envelope /
// transient_model, and every scalar hook is implemented with the exact
// expressions the envelope_system used before the registry existed, so
// dispatching through harvester_model is bit-identical to the
// pre-refactor hard-wired path (the testkit differential properties pin
// this). The batch hook is the one override with code of its own: the
// SoA damping kernel in electromagnetic_batch.cpp, which agrees with the
// scalar hook to solver tolerance.
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
    envelope_rates envelope_dynamics(
        double freq_hz, double accel_amp_ms2, int position, double store_v,
        double z_env, conditioning_kind conditioning, double efficiency,
        const power::rectifier_params& rect,
        damping_path& path) const override;
    /// The lockstep SoA damping kernel (electromagnetic_batch.cpp).
    std::unique_ptr<envelope_batch> make_envelope_batch(
        std::size_t lanes) const override;
    double phase_lag(double freq_hz, double accel_amp_ms2, int position,
                     double store_v,
                     const power::rectifier_params& rect) const override;
    std::unique_ptr<transient_rhs> make_transient(
        const vibration_source& vib, const power::storage_model& storage,
        const power::load_bank& loads,
        const power::rectifier_params& rect) const override;

private:
    microgenerator gen_;
};

}  // namespace ehdse::harvester
