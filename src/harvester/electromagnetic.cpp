#include "harvester/electromagnetic.hpp"

#include <cmath>
#include <numbers>

#include "harvester/envelope.hpp"
#include "harvester/transient_model.hpp"
#include "harvester/vibration.hpp"

namespace ehdse::harvester {

namespace {

/// transient_rhs over the existing full nonlinear transient model.
class em_transient final : public transient_rhs {
public:
    em_transient(const microgenerator& gen, const vibration_source& vib,
                 const power::storage_model& storage,
                 const power::load_bank& loads,
                 const power::rectifier_params& rect)
        : gen_(gen), model_(gen, vib, storage, loads, rect) {}

    std::size_t state_size() const override { return model_.state_size(); }
    void derivatives(double t, std::span<const double> x,
                     std::span<double> dxdt) const override {
        model_.derivatives(t, x, dxdt);
    }

    std::vector<double> initial_state(double v0) const override {
        return transient_model::initial_state(v0);
    }
    int position() const override { return model_.position(); }
    void set_position(int position) override { model_.set_position(position); }
    std::size_t voltage_index() const override {
        return transient_model::ix_voltage;
    }
    std::size_t harvested_index() const override {
        return transient_model::ix_harvested;
    }
    double suggested_max_dt() const override {
        return transient_model::suggested_max_dt(gen_.max_frequency());
    }

private:
    const microgenerator& gen_;
    transient_model model_;
};

}  // namespace

electromagnetic_harvester::electromagnetic_harvester(
    microgenerator_params params)
    : gen_(params), grid_(kernel_damping_grid(gen_)) {}

const std::string& electromagnetic_harvester::name() const noexcept {
    static const std::string k_name = "electromagnetic";
    return k_name;
}

obs::json_value electromagnetic_harvester::describe() const {
    const microgenerator_params& p = gen_.params();
    obs::json_value out{obs::json_object{}};
    out.set("name", name());
    out.set("device", "tunable electromagnetic cantilever (Southampton)");
    out.set("mass_kg", p.mass_kg);
    out.set("damping_ratio", p.damping_ratio);
    out.set("coupling_v_per_ms", p.coupling_v_per_ms);
    out.set("coil_resistance_ohm", p.coil_resistance_ohm);
    out.set("max_displacement_m", p.max_displacement_m);
    out.set("f_min_hz", min_frequency());
    out.set("f_max_hz", max_frequency());
    out.set("positions", position_count());
    out.set("conditioning", "diode bridge (or idealised mppt front-end)");
    out.set("tuning", "magnetic-spring stiffening, stepper actuator");
    return out;
}

double electromagnetic_harvester::initial_amplitude(
    double freq_hz, double accel_amp_ms2, int position, double store_v,
    const power::rectifier_params& rect) const {
    const damping_point pt = solve_damping(gen_, position, freq_hz,
                                           accel_amp_ms2, store_v, rect);
    return pt.mech.displacement_amp_m;
}

double electromagnetic_harvester::phase_lag(
    double freq_hz, double accel_amp_ms2, int position, double store_v,
    const power::rectifier_params& rect) const {
    const damping_point pt = solve_damping(gen_, position, freq_hz,
                                           accel_amp_ms2, store_v, rect);
    const double omega = 2.0 * std::numbers::pi * freq_hz;
    const double k = gen_.effective_stiffness(position);
    const double m = gen_.params().mass_kg;
    const double c_total = gen_.mech_damping() + pt.c_electrical;
    return std::atan2(c_total * omega, k - m * omega * omega);
}

std::unique_ptr<transient_rhs> electromagnetic_harvester::make_transient(
    const vibration_source& vib, const power::storage_model& storage,
    const power::load_bank& loads, const power::rectifier_params& rect) const {
    return std::make_unique<em_transient>(gen_, vib, storage, loads, rect);
}

}  // namespace ehdse::harvester
