#include "dse/transient_system.hpp"

#include <cmath>
#include <stdexcept>

namespace ehdse::dse {

transient_system::transient_system(const harvester::harvester_model& model,
                                   const harvester::vibration_source& vib,
                                   power::supercapacitor_params cap,
                                   power::rectifier_params rect)
    : transient_system(model, vib, std::make_shared<power::supercapacitor>(cap),
                       rect) {}

transient_system::transient_system(
    const harvester::harvester_model& model, const harvester::vibration_source& vib,
    std::shared_ptr<const power::storage_model> storage,
    power::rectifier_params rect)
    : model_(model),
      vib_(vib),
      storage_(storage ? std::move(storage)
                       : throw std::invalid_argument("transient_system: null storage")),
      rect_(rect),
      rhs_(model_.make_transient(vib_, *storage_, loads_, rect_)) {}

sim::sim_context& transient_system::sim() const {
    if (sim_ == nullptr)
        throw std::logic_error("transient_system: no simulator attached");
    return *sim_;
}

std::vector<double> transient_system::initial_state(double v0,
                                                    int initial_position) {
    if (v0 < 0.0)
        throw std::invalid_argument("transient_system: negative initial voltage");
    rhs_->set_position(initial_position);
    return rhs_->initial_state(v0);
}

double transient_system::suggested_max_dt() const {
    return rhs_->suggested_max_dt();
}

sim::ode_options transient_system::suggested_ode_options() const {
    sim::ode_options ode;
    ode.abs_tol = 1e-9;
    ode.rel_tol = 1e-6;
    ode.initial_dt = 1e-5;
    ode.max_dt = suggested_max_dt();
    return ode;
}

node_system::state_map transient_system::states() const {
    return {rhs_->voltage_index(), rhs_->harvested_index(), std::nullopt};
}

double transient_system::storage_voltage() const {
    return sim().state_at(rhs_->voltage_index());
}

void transient_system::withdraw(double joules, const std::string& account) {
    if (joules < 0.0)
        throw std::invalid_argument("transient_system: negative withdrawal");
    const double v = storage_voltage();
    sim().set_state(rhs_->voltage_index(),
                    storage_->voltage_after_withdrawal(v, joules));
    ledger_.record(account, joules);
}

void transient_system::set_sustained_draw(const std::string& account,
                                          double amps) {
    auto it = load_slots_.find(account);
    if (it == load_slots_.end())
        it = load_slots_.emplace(account, loads_.add_load(account)).first;
    loads_.set_current(it->second, amps);
}

double transient_system::vibration_frequency() const {
    return vib_.frequency_at(sim().now());
}

double transient_system::phase_lag() const {
    // Same steady-state phase formula as the envelope plant: the fine-tuning
    // loop waits 5 s after every move precisely so the transient has settled
    // onto this response when it measures.
    const double t = sim().now();
    const double v = storage_voltage();
    return model_.phase_lag(vib_.frequency_at(t), vib_.amplitude_at(t),
                            rhs_->position(), v, rect_);
}

}  // namespace ehdse::dse
