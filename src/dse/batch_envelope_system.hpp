// SoA batch implementation of the envelope-mode node system: B design
// points with identical analogue structure advance in lockstep.
//
// The scalar envelope_system spends most of an evaluation inside
// harvester::solve_envelope — a bisection on the self-consistent
// electrical damping whose every trial evaluates the mechanical response
// and the averaged diode bridge. Here that bisection runs across all
// lanes at once: each trial is three flat loops over lanes (mechanics /
// asin–cos / bridge power + bracket update) written branch-free with
// value selects so GCC auto-vectorises them, and libm calls are replaced
// by a fitted polynomial asin plus the exact identities
// cos(asin x) = sqrt(1 - x^2) and sin(2 asin x) = 2 x sqrt(1 - x^2).
// Per-lane brackets update under masks, so lanes converge exactly as
// their scalar counterparts would (same iteration count, same semantics);
// results agree with the scalar path to solver tolerance, enforced by the
// batch_vs_scalar_equivalence testkit property. Each lane carries its own
// damping_path, so the bisection warm-starts per lane exactly like the
// scalar solve, bit-identical to a cold bisection: one lockstep trial at
// every lane's previous root, one pair checking every lane's predicted
// cell, one final trial.
//
// Lanes are independent: per-lane actuator position, load bank and energy
// ledger, shared (read-only) generator, vibration source and storage
// model. One instance hosts one batch_simulator run and is not
// thread-safe across concurrent runs — evaluate_batch builds one per call.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "dse/envelope_system.hpp"
#include "harvester/damping_path.hpp"
#include "harvester/microgenerator.hpp"
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

    /// `gen` and `vib` must outlive the system; `storage` is shared
    /// read-only across lanes.
    batch_envelope_system(const harvester::microgenerator& gen,
                          const harvester::vibration_source& vib,
                          std::shared_ptr<const power::storage_model> storage,
                          power::rectifier_params rect, std::size_t lanes);

    /// Bind the batch simulator whose state the per-lane plants read/write.
    void attach(sim::batch_simulator& bsim) { bsim_ = &bsim; }

    /// Select the power front-end for every lane (default: diode bridge).
    void set_frontend(frontend_kind kind, double efficiency = 0.75);

    /// Initial state shared by all lanes (identical scenario => identical
    /// start): store at v0, amplitude at the converged steady state. Also
    /// sets every lane's actuator position.
    std::vector<double> initial_state(double v0, int initial_position);

    /// Same integration defaults as the scalar envelope system.
    sim::ode_options suggested_ode_options() const;

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

    /// One lockstep trial of the damping fixed point: given per-lane trial
    /// damping ce[], fill c_target[] (the damping the bridge presents
    /// there) and za[] (the steady-state displacement amplitude). Reads
    /// the per-call scratch (omega/re/ma/u) prepared by derivatives().
    void eval_damping(const double* ce, double* c_target, double* za) const;

    const harvester::microgenerator& gen_;
    const harvester::vibration_source& vib_;
    std::shared_ptr<const power::storage_model> storage_;
    power::rectifier_params rect_;
    std::size_t lanes_;
    sim::batch_simulator* bsim_ = nullptr;
    frontend_kind frontend_ = frontend_kind::diode_bridge;
    double frontend_efficiency_ = 0.75;

    // Per-lane digital-facing state.
    std::vector<int> position_;
    std::vector<double> stiffness_;  ///< effective_stiffness(position_[l])
    std::vector<power::load_bank> loads_;
    std::vector<std::unordered_map<std::string, power::load_id>> load_slots_;
    std::vector<power::energy_ledger> ledgers_;
    std::vector<std::unique_ptr<lane_plant>> plants_;

    // Per-derivatives-call scratch, lane-contiguous. Mutable because
    // derivatives() is logically const; a system instance hosts exactly
    // one (single-threaded) batch_simulator run at a time.
    mutable std::vector<double> v_, z_, omega_, re_, ma_, u_;
    mutable std::vector<double> lo_, hi_, ce_, ct_, za_;
    mutable std::vector<double> e_, vel_, xx_, th1_, cth_, ct_lo_;
    mutable std::vector<double> f_lo_, f_hi_;  ///< T - c at lo_ / hi_
    mutable std::vector<std::uint8_t> blocked_, refine_, warm_;
    mutable std::vector<int> it_;  ///< per-lane bisection decisions

    // Per-lane damping-solve warm start, carried across derivatives()
    // calls (harvester/damping_path.hpp); changes only speed.
    mutable std::vector<harvester::damping_path> paths_;
};

}  // namespace ehdse::dse
