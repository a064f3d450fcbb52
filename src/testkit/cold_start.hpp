// A cold-start reference for the damping solve's warm start
// (harvester/damping_path.hpp), end to end.
//
//   * cold_start_model — a harvester_model decorator whose
//     envelope_dynamics hands the wrapped model a fresh damping_path on
//     every call, so every damping solve is cold. It does not override
//     make_envelope_batch, so its batches are the default envelope_batch,
//     which calls the decorator lane by lane: cold too.
//   * cold_start_evaluator — a system_evaluator over that decorator, for
//     evaluate() and evaluate_batch() alike.
//
// The warm start changes only how many trials a solve makes, never its
// bits, so this evaluator must equal the default one bit for bit on
// every field of every run (testkit_cold_start_test).
#pragma once

#include <memory>
#include <string>
#include <utility>

#include "dse/system_evaluator.hpp"
#include "harvester/harvester_model.hpp"

namespace ehdse::testkit {

/// `inner` with a fresh damping_path for every envelope_dynamics call.
class cold_start_model final : public harvester::harvester_model {
public:
    explicit cold_start_model(std::unique_ptr<harvester::harvester_model> inner)
        : inner_(std::move(inner)) {}

    const std::string& name() const noexcept override { return inner_->name(); }
    obs::json_value describe() const override { return inner_->describe(); }
    int position_count() const noexcept override {
        return inner_->position_count();
    }
    double resonant_frequency(int position) const override {
        return inner_->resonant_frequency(position);
    }
    harvester::retune_cost actuator() const noexcept override {
        return inner_->actuator();
    }
    double initial_amplitude(double freq_hz, double accel_amp_ms2,
                             int position, double store_v,
                             const power::rectifier_params& rect) const override {
        return inner_->initial_amplitude(freq_hz, accel_amp_ms2, position,
                                         store_v, rect);
    }
    harvester::envelope_rates envelope_dynamics(
        double freq_hz, double accel_amp_ms2, int position, double store_v,
        double z_env, harvester::conditioning_kind conditioning,
        double efficiency, const power::rectifier_params& rect,
        harvester::damping_path& /*path*/) const override {
        harvester::damping_path fresh;
        return inner_->envelope_dynamics(freq_hz, accel_amp_ms2, position,
                                         store_v, z_env, conditioning,
                                         efficiency, rect, fresh);
    }
    double phase_lag(double freq_hz, double accel_amp_ms2, int position,
                     double store_v,
                     const power::rectifier_params& rect) const override {
        return inner_->phase_lag(freq_hz, accel_amp_ms2, position, store_v,
                                 rect);
    }
    std::unique_ptr<harvester::transient_rhs> make_transient(
        const harvester::vibration_source& vib,
        const power::storage_model& storage, const power::load_bank& loads,
        const power::rectifier_params& rect) const override {
        return inner_->make_transient(vib, storage, loads, rect);
    }

private:
    std::unique_ptr<harvester::harvester_model> inner_;
};

/// system_evaluator whose every damping solve is cold.
class cold_start_evaluator : public dse::system_evaluator {
public:
    explicit cold_start_evaluator(dse::scenario scn,
                                  spec::harvester_spec harv = {})
        : system_evaluator(scn, harv) {
        replace_model(std::make_shared<cold_start_model>(
            harvester::make_harvester(harvester_config().model)));
    }
};

}  // namespace ehdse::testkit
