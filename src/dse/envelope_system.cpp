#include "dse/envelope_system.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ehdse::dse {

harvester::conditioning_kind conditioning_of(frontend_kind kind) noexcept {
    return kind == frontend_kind::mppt
               ? harvester::conditioning_kind::mppt
               : harvester::conditioning_kind::diode_bridge;
}

envelope_system::envelope_system(const harvester::harvester_model& model,
                                 const harvester::vibration_source& vib,
                                 power::supercapacitor_params cap,
                                 power::rectifier_params rect)
    : envelope_system(model, vib, std::make_shared<power::supercapacitor>(cap),
                      rect) {}

envelope_system::envelope_system(const harvester::harvester_model& model,
                                 const harvester::vibration_source& vib,
                                 std::shared_ptr<const power::storage_model> storage,
                                 power::rectifier_params rect)
    : model_(model), vib_(vib), storage_(std::move(storage)), rect_(rect) {
    if (!storage_)
        throw std::invalid_argument("envelope_system: null storage");
}

sim::ode_options envelope_ode_options() noexcept {
    sim::ode_options ode;
    ode.abs_tol = 1e-8;   // volts-scale states: ~10 nV step error
    // The exponential step's error tracks rel_tol (the plain step's did
    // not: stability set its step). At 1e-9 its final-voltage error is
    // below the plain step's at 1e-6, in a third of the RHS calls; at
    // 1e-8 the mean error was above it (EXPERIMENTS.md).
    ode.rel_tol = 1e-9;
    ode.initial_dt = 1e-3;
    ode.max_dt = 5.0;     // resolve watchdog/settling dynamics comfortably
    return ode;
}

sim::simulator& envelope_system::sim() const {
    if (sim_ == nullptr)
        throw std::logic_error("envelope_system: no simulator attached");
    return *sim_;
}

std::vector<double> envelope_system::initial_state(double v0, int initial_position) {
    if (v0 < 0.0)
        throw std::invalid_argument("envelope_system: negative initial voltage");
    position_ = initial_position;
    std::vector<double> x(k_state_count, 0.0);
    x[ix_voltage] = v0;
    x[ix_amplitude] = model_.initial_amplitude(vib_.frequency_at(0.0),
                                               vib_.amplitude_at(0.0),
                                               position_, v0, rect_);
    return x;
}

void envelope_system::set_frontend(frontend_kind kind, double efficiency) {
    if (kind == frontend_kind::mppt && !(efficiency > 0.0 && efficiency <= 1.0))
        throw std::invalid_argument(
            "envelope_system: mppt efficiency must be in (0, 1]");
    frontend_ = kind;
    frontend_efficiency_ = efficiency;
}

void envelope_system::derivatives(double t, std::span<const double> x,
                                  std::span<double> dxdt) const {
    const double v = std::max(x[ix_voltage], 0.0);
    const double z_env = std::max(x[ix_amplitude], 0.0);

    const harvester::envelope_rates rates = model_.envelope_dynamics(
        vib_.frequency_at(t), vib_.amplitude_at(t), position_, v, z_env,
        conditioning_of(frontend_), frontend_efficiency_, rect_, path_);
    dxdt[ix_amplitude] = rates.amplitude_rate;
    const double i_charge = rates.charge_current_a;

    const double i_loads = loads_.total_current(v);
    dxdt[ix_voltage] = storage_->dv_dt(v, i_charge - i_loads);
    dxdt[ix_harvested] = v * i_charge;
    dxdt[ix_load_energy] = v * i_loads;
    column_point_ = {rates.relaxation_rate, rates.charge_slope, v,
                     i_charge - i_loads};
}

void envelope_system::stiff_column(std::span<double> column) const {
    const column_point& p = column_point_;
    column[ix_voltage] = storage_->dv_dt_slope(p.v, p.i_net) * p.charge_slope;
    column[ix_amplitude] = -p.relaxation_rate;
    column[ix_harvested] = p.v * p.charge_slope;
    column[ix_load_energy] = 0.0;
}

double envelope_system::storage_voltage() const {
    return sim().state_at(ix_voltage);
}

void envelope_system::withdraw(double joules, const std::string& account) {
    if (joules < 0.0)
        throw std::invalid_argument("envelope_system: negative withdrawal");
    const double v = storage_voltage();
    sim().set_state(ix_voltage, storage_->voltage_after_withdrawal(v, joules));
    ledger_.record(account, joules);
}

void envelope_system::set_sustained_draw(const std::string& account, double amps) {
    auto it = load_slots_.find(account);
    if (it == load_slots_.end())
        it = load_slots_.emplace(account, loads_.add_load(account)).first;
    loads_.set_current(it->second, amps);
}

void envelope_system::set_position(int position) {
    if (position < 0 || position >= model_.position_count())
        throw std::out_of_range("envelope_system: actuator position outside [0,255]");
    position_ = position;
}

double envelope_system::vibration_frequency() const {
    return vib_.frequency_at(sim().now());
}

double envelope_system::phase_lag() const {
    const double t = sim().now();
    const double v = storage_voltage();
    return model_.phase_lag(vib_.frequency_at(t), vib_.amplitude_at(t),
                            position_, v, rect_);
}

}  // namespace ehdse::dse
