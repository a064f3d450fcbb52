// The complete sensor-node system over the FULL nonlinear transient model
// — same digital processes, same plant interface as envelope_system, but
// the analogue side resolves every vibration cycle and every conditioning-
// circuit switching event. The per-cycle ODE system comes from the
// harvester_model registry entry (harvester_model::make_transient).
//
// Roughly 5000x slower than the envelope plant (tens of milliseconds of
// wall clock per simulated minute), so it serves validation
// (bench_ablation_fidelity) and short-window studies rather than the DOE.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>

#include "dse/node_system.hpp"
#include "harvester/harvester_model.hpp"
#include "harvester/plant.hpp"
#include "harvester/vibration.hpp"
#include "power/energy_ledger.hpp"
#include "power/load_bank.hpp"
#include "power/supercapacitor.hpp"
#include "sim/simulator.hpp"

namespace ehdse::dse {

class transient_system final : public node_system {
public:
    /// `model` and `vib` must outlive the system. Storage defaults to the
    /// paper's supercapacitor built from `cap`.
    transient_system(const harvester::harvester_model& model,
                     const harvester::vibration_source& vib,
                     power::supercapacitor_params cap = {},
                     power::rectifier_params rect = {});

    /// Same, with an explicit storage element (e.g. a thin-film battery).
    transient_system(const harvester::harvester_model& model,
                     const harvester::vibration_source& vib,
                     std::shared_ptr<const power::storage_model> storage,
                     power::rectifier_params rect = {});

    // --- node_system ---
    void attach(sim::sim_context& sim) override { sim_ = &sim; }

    /// Initial state: mass at rest, store at v0, actuator at the position.
    std::vector<double> initial_state(double v0, int initial_position) override;

    /// Tight tolerances and an initial/maximum step resolving the fastest
    /// resonance. The transient models fold sustained loads into dV/dt
    /// directly, so states() reports no separate load-energy index.
    sim::ode_options suggested_ode_options() const override;

    state_map states() const override;

    /// Integrator ceiling that resolves the fastest resonance.
    double suggested_max_dt() const;

    // --- analog_system (delegated to the model's transient RHS) ---
    std::size_t state_size() const override { return rhs_->state_size(); }
    void derivatives(double t, std::span<const double> x,
                     std::span<double> dxdt) const override {
        rhs_->derivatives(t, x, dxdt);
    }

    // --- plant ---
    double storage_voltage() const override;
    void withdraw(double joules, const std::string& account) override;
    void set_sustained_draw(const std::string& account, double amps) override;
    int position() const override { return rhs_->position(); }
    void set_position(int position) override { rhs_->set_position(position); }
    double vibration_frequency() const override;
    double phase_lag() const override;

    const power::energy_ledger& ledger() const noexcept override {
        return ledger_;
    }
    const harvester::harvester_model& model() const noexcept { return model_; }

private:
    sim::sim_context& sim() const;

    const harvester::harvester_model& model_;
    const harvester::vibration_source& vib_;
    std::shared_ptr<const power::storage_model> storage_;
    power::rectifier_params rect_;
    power::load_bank loads_;
    std::unique_ptr<harvester::transient_rhs> rhs_;
    std::unordered_map<std::string, power::load_id> load_slots_;
    power::energy_ledger ledger_;
    sim::sim_context* sim_ = nullptr;
};

}  // namespace ehdse::dse
