// The complete sensor-node system as an envelope-mode analogue model plus
// the plant interface the digital processes drive.
//
// Continuous states:
//   x[0] = V      supercapacitor voltage
//   x[1] = z_env  mechanical displacement-amplitude envelope (relaxes
//                 towards the cycle-averaged steady state with the
//                 physical time constant 2m / c_total)
//   x[2] = E_h    cumulative energy delivered into the store
//   x[3] = E_l    cumulative energy consumed by sustained loads
//
// The harvester physics is dispatched through the harvester_model
// registry interface: this system owns the slow states and the plant
// bookkeeping, the model supplies the envelope RHS (amplitude relaxation
// rate + store charging current) at each operating point.
//
// z_env is the stiff element (tau <= 1 s against steps of seconds): the
// system reports its Jacobian column from each derivatives() call,
//   (dV'/di * di/dz, -1/tau, V * di/dz, 0),
// with di/dz the model's charge_slope and dV'/di the storage model's
// dv_dt_slope, and the integrator's exponential step integrates it
// exactly (sim/cash_karp.hpp).
// batch_envelope_system runs the same model for many design points at
// once, with the same state layout and integration defaults
// (envelope_ode_options), and every lane computes the bits this system
// computes for its design point.
//
// Digital processes interact through the harvester::plant interface:
// instantaneous charge withdrawals (transmission bursts, MCU activity),
// sustained draws (sleep floors), actuator position changes, and the
// measurement taps (true vibration frequency, true phase lag) on which the
// controller's noisy measurement models operate.
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
#include "power/rectifier.hpp"
#include "power/supercapacitor.hpp"
#include "sim/ode.hpp"
#include "sim/simulator.hpp"

namespace ehdse::dse {

/// Power-conditioning front-end between coil and store — canonical
/// definition lives with the experiment spec (spec::frontend_kind); this
/// alias keeps the historical dse:: spelling working.
using frontend_kind = spec::frontend_kind;

/// spec::frontend_kind -> the harvester-layer conditioning enum (the
/// harvester library cannot depend on spec).
harvester::conditioning_kind conditioning_of(frontend_kind kind) noexcept;

/// Integration defaults of the envelope plant, scalar and batch:
/// volts-scale tolerances (rel_tol 1e-9, which the exponential step's
/// error tracks), and a max_dt that resolves the watchdog and settling
/// dynamics.
sim::ode_options envelope_ode_options() noexcept;

class envelope_system final : public node_system {
public:
    enum state_index : std::size_t {
        ix_voltage = 0,
        ix_amplitude = 1,
        ix_harvested = 2,
        ix_load_energy = 3,
        k_state_count = 4,
    };

    /// `model` and `vib` must outlive the system. Storage defaults to the
    /// paper's supercapacitor built from `cap`.
    envelope_system(const harvester::harvester_model& model,
                    const harvester::vibration_source& vib,
                    power::supercapacitor_params cap = {},
                    power::rectifier_params rect = {});

    /// Same, with an explicit storage element (e.g. a thin-film battery).
    envelope_system(const harvester::harvester_model& model,
                    const harvester::vibration_source& vib,
                    std::shared_ptr<const power::storage_model> storage,
                    power::rectifier_params rect = {});

    // --- node_system ---
    void attach(sim::sim_context& sim) override { sim_ = &sim; }

    /// Select the power front-end (default: the paper's diode bridge).
    /// `efficiency` applies to the mppt kind only; must be in (0, 1].
    void set_frontend(frontend_kind kind, double efficiency = 0.75);
    frontend_kind frontend() const noexcept { return frontend_; }

    /// Suggested initial state for storage voltage v0 (amplitude starts at
    /// the converged steady state so t=0 is not an artificial transient).
    std::vector<double> initial_state(double v0, int initial_position) override;

    /// envelope_ode_options().
    sim::ode_options suggested_ode_options() const override {
        return envelope_ode_options();
    }

    state_map states() const override {
        return {ix_voltage, ix_harvested, ix_load_energy};
    }

    // --- analog_system ---
    std::size_t state_size() const override { return k_state_count; }
    void derivatives(double t, std::span<const double> x,
                     std::span<double> dxdt) const override;
    std::size_t stiff_element() const override { return ix_amplitude; }
    void stiff_column(std::span<double> column) const override;

    // --- plant ---
    double storage_voltage() const override;
    void withdraw(double joules, const std::string& account) override;
    void set_sustained_draw(const std::string& account, double amps) override;
    int position() const override { return position_; }
    void set_position(int position) override;
    double vibration_frequency() const override;
    double phase_lag() const override;

    /// Energy accounting of the discrete withdrawals.
    const power::energy_ledger& ledger() const noexcept override {
        return ledger_;
    }
    power::energy_ledger& ledger() noexcept { return ledger_; }

    const power::storage_model& storage() const noexcept { return *storage_; }
    const harvester::harvester_model& model() const noexcept { return model_; }
    const harvester::vibration_source& vibration() const noexcept { return vib_; }

private:
    sim::sim_context& sim() const;

    const harvester::harvester_model& model_;
    const harvester::vibration_source& vib_;
    std::shared_ptr<const power::storage_model> storage_;
    power::rectifier_params rect_;
    power::load_bank loads_;
    std::unordered_map<std::string, power::load_id> load_slots_;
    power::energy_ledger ledger_;
    sim::sim_context* sim_ = nullptr;
    int position_ = 0;
    frontend_kind frontend_ = frontend_kind::diode_bridge;
    double frontend_efficiency_ = 0.75;
    // The run's damping-solve warm start (harvester/damping_path.hpp).
    // Mutable because derivatives() is logically const; it changes only
    // how fast the model answers, never the answer, and a system hosts
    // exactly one (single-threaded) simulation run.
    mutable harvester::damping_path path_;
    // What stiff_column() needs from the last derivatives() call.
    struct column_point {
        double relaxation_rate = 0.0;
        double charge_slope = 0.0;
        double v = 0.0;
        double i_net = 0.0;
    };
    mutable column_point column_point_;
};

}  // namespace ehdse::dse
