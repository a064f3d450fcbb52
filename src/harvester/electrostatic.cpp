#include "harvester/electrostatic.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "harvester/vibration.hpp"

namespace ehdse::harvester {

namespace {

constexpr double k_pi = std::numbers::pi;

/// Full transient model of the electrostatic chain: resonator + charge
/// pump as the equivalent viscous damping of the cycle-averaged model, so
/// the two fidelities agree on extracted energy by construction. States
/// mirror the electromagnetic transient layout:
///   x[0] = z, x[1] = zdot, x[2] = V (store), x[3] = E_h.
class es_transient final : public transient_rhs {
public:
    enum state_index : std::size_t {
        ix_displacement = 0,
        ix_velocity = 1,
        ix_voltage = 2,
        ix_harvested = 3,
        k_state_count = 4,
    };

    es_transient(const electrostatic_harvester& dev,
                 const vibration_source& vib,
                 const power::storage_model& cap,
                 const power::load_bank& loads)
        : dev_(dev), vib_(vib), cap_(cap), loads_(loads) {
        end_stop_stiffness_ = 100.0 * dev_.base_stiffness();
    }

    std::size_t state_size() const override { return k_state_count; }

    void derivatives(double t, std::span<const double> x,
                     std::span<double> dxdt) const override {
        const double z = x[ix_displacement];
        const double v = x[ix_velocity];
        const double vc = std::max(x[ix_voltage], 0.0);

        const electrostatic_params& p = dev_.params();
        const double k = dev_.effective_stiffness(position_);
        const double c_e = dev_.electrical_damping(position_);
        const double a = vib_.acceleration(t);

        double spring_force = -k * z;
        const double limit = p.max_displacement_m;
        if (z > limit) spring_force -= end_stop_stiffness_ * (z - limit);
        else if (z < -limit) spring_force -= end_stop_stiffness_ * (z + limit);

        dxdt[ix_displacement] = v;
        dxdt[ix_velocity] =
            (spring_force - (dev_.mech_damping() + c_e) * v) / p.mass_kg - a;

        // Instantaneous extraction c_e zdot^2; the flyback returns eta of
        // it to the store once the pump is primed.
        const double p_extracted = c_e * v * v;
        const double i_store = vc > p.priming_voltage_v
                                   ? p.flyback_efficiency * p_extracted / vc
                                   : 0.0;
        dxdt[ix_voltage] = cap_.dv_dt(vc, i_store - loads_.total_current(vc));
        dxdt[ix_harvested] = vc * i_store;
    }

    std::vector<double> initial_state(double v0) const override {
        std::vector<double> x(k_state_count, 0.0);
        x[ix_voltage] = v0;
        return x;
    }

    int position() const override { return position_; }
    void set_position(int position) override {
        if (position < 0 || position >= electrostatic_params::k_position_count)
            throw std::out_of_range(
                "electrostatic_harvester: actuator position outside [0,255]");
        position_ = position;
    }

    std::size_t voltage_index() const override { return ix_voltage; }
    std::size_t harvested_index() const override { return ix_harvested; }

    double suggested_max_dt() const override {
        // Twenty points per cycle of the fastest achievable resonance.
        return 1.0 / (20.0 * dev_.max_frequency());
    }

private:
    const electrostatic_harvester& dev_;
    const vibration_source& vib_;
    const power::storage_model& cap_;
    const power::load_bank& loads_;
    int position_ = 0;
    double end_stop_stiffness_;
};

}  // namespace

electrostatic_harvester::electrostatic_harvester(electrostatic_params params)
    : params_(params) {
    if (!(params_.mass_kg > 0.0))
        throw std::invalid_argument("electrostatic_harvester: mass must be > 0");
    if (!(params_.pull_in_voltage_v > 0.0))
        throw std::invalid_argument(
            "electrostatic_harvester: pull-in voltage must be > 0");
    if (!(params_.bias_min_v <= params_.bias_max_v))
        throw std::invalid_argument(
            "electrostatic_harvester: bias_min_v must be <= bias_max_v");
    const double u_max = params_.bias_max_v / params_.pull_in_voltage_v;
    if (!(params_.softening_alpha * u_max * u_max < 1.0))
        throw std::invalid_argument(
            "electrostatic_harvester: softened stiffness must stay positive");
    const double omega0 = 2.0 * k_pi * params_.f_unbiased_hz;
    k0_ = params_.mass_kg * omega0 * omega0;
    c_mech_ = 2.0 * params_.damping_ratio * std::sqrt(k0_ * params_.mass_kg);
}

double electrostatic_harvester::bias_at(int position) const {
    if (position < 0 || position >= electrostatic_params::k_position_count)
        throw std::out_of_range(
            "electrostatic_harvester: actuator position outside [0,255]");
    const double frac = static_cast<double>(position) /
                        (electrostatic_params::k_position_count - 1);
    return params_.bias_max_v - (params_.bias_max_v - params_.bias_min_v) * frac;
}

double electrostatic_harvester::effective_stiffness(int position) const {
    const double u = bias_at(position) / params_.pull_in_voltage_v;
    return k0_ * (1.0 - params_.softening_alpha * u * u);
}

double electrostatic_harvester::electrical_damping(int position) const {
    const double u = bias_at(position) / params_.pull_in_voltage_v;
    return params_.coupling_damping * u * u;
}

const std::string& electrostatic_harvester::name() const noexcept {
    static const std::string k_name = "electrostatic";
    return k_name;
}

obs::json_value electrostatic_harvester::describe() const {
    obs::json_value out{obs::json_object{}};
    out.set("name", name());
    out.set("device",
            "electrostatic harvester, auto-adaptive charge pump (Galayko)");
    out.set("mass_kg", params_.mass_kg);
    out.set("damping_ratio", params_.damping_ratio);
    out.set("pull_in_voltage_v", params_.pull_in_voltage_v);
    out.set("bias_range_v",
            obs::json_array{obs::json_value(params_.bias_min_v),
                            obs::json_value(params_.bias_max_v)});
    out.set("flyback_efficiency", params_.flyback_efficiency);
    out.set("max_displacement_m", params_.max_displacement_m);
    out.set("f_min_hz", min_frequency());
    out.set("f_max_hz", max_frequency());
    out.set("positions", position_count());
    out.set("conditioning", "charge pump + flyback, auto-adaptive bias");
    out.set("tuning", "bias-voltage spring softening, DAC actuator");
    return out;
}

double electrostatic_harvester::resonant_frequency(int position) const {
    return std::sqrt(effective_stiffness(position) / params_.mass_kg) /
           (2.0 * k_pi);
}

retune_cost electrostatic_harvester::actuator() const noexcept {
    // A retune is a bias-DAC write plus charge-pump rebias: microseconds
    // and microjoules (DESIGN.md records the budget) — the device class's
    // structural advantage over the stepper-tuned cantilever.
    retune_cost cost;
    cost.step_time_s = 1.0e-4;
    cost.single_step_energy_j = 2.0e-6;
    cost.multi_step_energy_j = 1.0e-6;
    cost.min_drive_voltage_v = 1.8;
    return cost;
}

double electrostatic_harvester::displacement_amplitude(
    double omega_rad, double accel_amp_ms2, int position) const {
    const double k = effective_stiffness(position);
    const double c_total = c_mech_ + electrical_damping(position);
    const double re = k - params_.mass_kg * omega_rad * omega_rad;
    const double im = c_total * omega_rad;
    const double denom = std::sqrt(re * re + im * im);
    const double z = params_.mass_kg * accel_amp_ms2 / denom;
    return std::min(z, params_.max_displacement_m);
}

double electrostatic_harvester::initial_amplitude(
    double freq_hz, double accel_amp_ms2, int position, double /*store_v*/,
    const power::rectifier_params& /*rect*/) const {
    return displacement_amplitude(2.0 * k_pi * freq_hz, accel_amp_ms2,
                                  position);
}

envelope_rates electrostatic_harvester::envelope_dynamics(
    double freq_hz, double accel_amp_ms2, int position, double store_v,
    double z_env, conditioning_kind /*conditioning*/, double /*efficiency*/,
    const power::rectifier_params& /*rect*/, damping_path& /*path*/) const {
    // The charge-pump conditioning is integral to the device: the envelope
    // front-end selector (diode bridge / mppt) does not apply here.
    const double omega = 2.0 * k_pi * freq_hz;
    const double c_e = electrical_damping(position);
    const double c_total = c_mech_ + c_e;
    const double target =
        displacement_amplitude(omega, accel_amp_ms2, position);
    const double tau = 2.0 * params_.mass_kg / c_total;

    envelope_rates out;
    out.amplitude_rate = (target - z_env) / tau;
    out.relaxation_rate = 1.0 / tau;

    // Cycle-averaged extraction at the instantaneous envelope amplitude,
    // delivered through the flyback once the pump is primed.
    const double vel_env = omega * z_env;
    const double p_extracted = 0.5 * c_e * vel_env * vel_env;
    const bool primed = store_v > params_.priming_voltage_v;
    out.charge_current_a =
        primed ? params_.flyback_efficiency * p_extracted / store_v : 0.0;
    out.charge_slope = primed ? params_.flyback_efficiency * c_e * omega *
                                    omega * z_env / store_v
                              : 0.0;
    return out;
}

double electrostatic_harvester::phase_lag(
    double freq_hz, double /*accel_amp_ms2*/, int position,
    double /*store_v*/, const power::rectifier_params& /*rect*/) const {
    const double omega = 2.0 * k_pi * freq_hz;
    const double k = effective_stiffness(position);
    const double c_total = c_mech_ + electrical_damping(position);
    return std::atan2(c_total * omega,
                      k - params_.mass_kg * omega * omega);
}

std::unique_ptr<transient_rhs> electrostatic_harvester::make_transient(
    const vibration_source& vib, const power::storage_model& storage,
    const power::load_bank& loads,
    const power::rectifier_params& /*rect*/) const {
    return std::make_unique<es_transient>(*this, vib, storage, loads);
}

}  // namespace ehdse::harvester
