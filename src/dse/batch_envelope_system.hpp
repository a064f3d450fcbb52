// SoA batch implementation of the envelope-mode node system for every
// harvester_model registry entry: B design points with identical analogue
// structure advance in lockstep through one batch_simulator.
//
// This system owns what is not harvester physics: the per-lane plants
// (actuator position, load bank, energy ledger), the initial state and the
// phase-lag tap through the model's own hooks, and the storage tail. The
// envelope RHS of all lanes comes from one harvester::envelope_batch the
// model builds for the run (harvester_model::make_envelope_batch): the
// electromagnetic entry's is the hand-vectorised lockstep damping kernel
// (whose one-lane run is its scalar hook), every other entry's calls its
// scalar envelope_dynamics hook per lane. Under that hook's numerical
// contract each lane equals its scalar envelope_system run bitwise, and
// batch(B) == batch(1), which the batch_vs_scalar_equivalence testkit
// property enforces per registered harvester.
//
// Like the scalar system it names z_env as its stiff element and reports
// each lane's Jacobian column (envelope_system.hpp), built from the same
// expressions, so the integrator takes the same exponential step per lane.
//
// Lanes are independent: per-lane actuator position, load bank and energy
// ledger, shared (read-only) model, vibration source and storage model.
// One instance hosts one batch_simulator run and is not thread-safe
// across concurrent runs — evaluate_batch builds one per call.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "dse/envelope_system.hpp"
#include "harvester/harvester_model.hpp"
#include "harvester/plant.hpp"
#include "harvester/vibration.hpp"
#include "power/energy_ledger.hpp"
#include "power/load_bank.hpp"
#include "power/rectifier.hpp"
#include "power/storage.hpp"
#include "sim/batch_ode.hpp"
#include "sim/batch_simulator.hpp"

namespace ehdse::dse {

class batch_envelope_system final : public sim::batch_analog_system {
public:
    // Same state layout as the scalar envelope_system.
    static constexpr std::size_t ix_voltage = envelope_system::ix_voltage;
    static constexpr std::size_t ix_amplitude = envelope_system::ix_amplitude;
    static constexpr std::size_t ix_harvested = envelope_system::ix_harvested;
    static constexpr std::size_t ix_load_energy =
        envelope_system::ix_load_energy;
    static constexpr std::size_t k_state_count = envelope_system::k_state_count;

    /// `model` and `vib` must outlive the system; `storage` is shared
    /// read-only across lanes.
    batch_envelope_system(const harvester::harvester_model& model,
                          const harvester::vibration_source& vib,
                          std::shared_ptr<const power::storage_model> storage,
                          power::rectifier_params rect, std::size_t lanes);

    /// Bind the batch simulator whose state the per-lane plants read/write.
    void attach(sim::batch_simulator& bsim) { bsim_ = &bsim; }

    /// Select the power front-end for every lane (default: diode bridge).
    void set_frontend(frontend_kind kind, double efficiency = 0.75);

    /// Initial state shared by all lanes (identical scenario => identical
    /// start): store at v0, amplitude at the model's converged steady
    /// state. Also sets every lane's actuator position.
    std::vector<double> initial_state(double v0, int initial_position);

    /// The scalar envelope system's integration defaults.
    sim::ode_options suggested_ode_options() const {
        return envelope_ode_options();
    }

    /// Per-lane plant handle for the digital processes of lane l.
    harvester::plant& plant(std::size_t l) { return *plants_.at(l); }

    const power::energy_ledger& ledger(std::size_t l) const {
        return ledgers_.at(l);
    }

    // --- batch_analog_system ---
    std::size_t state_size() const override { return k_state_count; }
    std::size_t lanes() const override { return lanes_; }
    void derivatives(std::span<const double> t, const sim::batch_state& x,
                     sim::batch_state& dxdt,
                     std::span<const std::uint8_t> active) const override;
    std::size_t stiff_element() const override { return ix_amplitude; }
    void stiff_column(sim::batch_state& column) const override;

private:
    /// harvester::plant over one lane of this system.
    class lane_plant final : public harvester::plant {
    public:
        lane_plant(batch_envelope_system& owner, std::size_t lane)
            : owner_(&owner), lane_(lane) {}
        double storage_voltage() const override;
        void withdraw(double joules, const std::string& account) override;
        void set_sustained_draw(const std::string& account,
                                double amps) override;
        int position() const override { return owner_->position_[lane_]; }
        void set_position(int position) override;
        double vibration_frequency() const override;
        double phase_lag() const override;

    private:
        batch_envelope_system* owner_;
        std::size_t lane_;
    };

    sim::batch_simulator& bsim() const;

    const harvester::harvester_model& model_;
    const harvester::vibration_source& vib_;
    std::shared_ptr<const power::storage_model> storage_;
    power::rectifier_params rect_;
    std::size_t lanes_;
    sim::batch_simulator* bsim_ = nullptr;
    frontend_kind frontend_ = frontend_kind::diode_bridge;
    double frontend_efficiency_ = 0.75;

    // Per-lane digital-facing state.
    std::vector<int> position_;
    std::vector<power::load_bank> loads_;
    std::vector<std::unordered_map<std::string, power::load_id>> load_slots_;
    std::vector<power::energy_ledger> ledgers_;
    std::vector<std::unique_ptr<lane_plant>> plants_;

    // The lanes' envelope RHS with its per-lane solver state, and the
    // clamped states, charging currents, 1/tau, current slopes and net
    // store currents of one derivatives() call (the last call's feed
    // stiff_column). derivatives() is logically const: the solver state
    // changes only speed, and one instance hosts one (single-threaded)
    // run.
    std::unique_ptr<harvester::envelope_batch> batch_;
    mutable std::vector<double> v_, z_, ich_, rate_, slope_, inet_;
};

}  // namespace ehdse::dse
