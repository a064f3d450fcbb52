// The plain Cash–Karp reference for the envelope integrator's accuracy.
//
// The integrators take the exponential form of the Cash–Karp step for a
// system that reports a stiff element (sim/cash_karp.hpp). These wrappers
// hide that column, so every step is the plain Cash–Karp step, and set the
// tolerances:
//
//   * plain_step_node_system — a node_system decorator over any analogue
//     model: no stiff element, the inner system's ode_options with the
//     given rel_tol / abs_tol;
//   * plain_step_evaluator — a system_evaluator that wraps every run's
//     system with it. At rel 1e-10 / abs 1e-12 (the defaults) it is the
//     reference the accuracy tests and bench_ablation_integrator measure
//     against; at the envelope's former rel 1e-6 / abs 1e-8 it reproduces
//     the plain-step integration bit for bit.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "dse/node_system.hpp"
#include "dse/system_evaluator.hpp"

namespace ehdse::testkit {

/// Tolerances of the plain Cash–Karp reference.
inline constexpr double k_reference_rel_tol = 1e-10;
inline constexpr double k_reference_abs_tol = 1e-12;

/// node_system decorator: the inner system without its stiff column,
/// integrated at rel_tol / abs_tol.
class plain_step_node_system final : public dse::node_system {
public:
    plain_step_node_system(std::unique_ptr<dse::node_system> inner,
                           double rel_tol, double abs_tol)
        : inner_(std::move(inner)), rel_tol_(rel_tol), abs_tol_(abs_tol) {}

    // -- analog_system (stiff_element stays the default: none) -----------
    std::size_t state_size() const override { return inner_->state_size(); }
    void derivatives(double t, std::span<const double> x,
                     std::span<double> dxdt) const override {
        inner_->derivatives(t, x, dxdt);
    }

    // -- node_system ------------------------------------------------------
    void attach(sim::simulator& sim) override { inner_->attach(sim); }
    std::vector<double> initial_state(double v0, int initial_position) override {
        return inner_->initial_state(v0, initial_position);
    }
    sim::ode_options suggested_ode_options() const override {
        sim::ode_options ode = inner_->suggested_ode_options();
        ode.rel_tol = rel_tol_;
        ode.abs_tol = abs_tol_;
        return ode;
    }
    state_map states() const override { return inner_->states(); }
    const power::energy_ledger& ledger() const override {
        return inner_->ledger();
    }

    // -- harvester::plant -------------------------------------------------
    double storage_voltage() const override { return inner_->storage_voltage(); }
    void withdraw(double joules, const std::string& account) override {
        inner_->withdraw(joules, account);
    }
    void set_sustained_draw(const std::string& account, double amps) override {
        inner_->set_sustained_draw(account, amps);
    }
    int position() const override { return inner_->position(); }
    void set_position(int position) override { inner_->set_position(position); }
    double vibration_frequency() const override {
        return inner_->vibration_frequency();
    }
    double phase_lag() const override { return inner_->phase_lag(); }

private:
    std::unique_ptr<dse::node_system> inner_;
    double rel_tol_;
    double abs_tol_;
};

/// system_evaluator whose every run takes plain Cash–Karp steps at
/// rel_tol / abs_tol.
class plain_step_evaluator : public dse::system_evaluator {
public:
    explicit plain_step_evaluator(dse::scenario scn,
                                  spec::harvester_spec harv = {},
                                  double rel_tol = k_reference_rel_tol,
                                  double abs_tol = k_reference_abs_tol)
        : system_evaluator(scn, harv), rel_tol_(rel_tol), abs_tol_(abs_tol) {}

protected:
    std::unique_ptr<dse::node_system> build_system(
        const dse::system_config& config,
        const dse::evaluation_options& options,
        const harvester::vibration_source& vib) const override {
        return std::make_unique<plain_step_node_system>(
            system_evaluator::build_system(config, options, vib), rel_tol_,
            abs_tol_);
    }

private:
    double rel_tol_;
    double abs_tol_;
};

}  // namespace ehdse::testkit
