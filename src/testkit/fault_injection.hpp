// Deterministic fault injection for the whole evaluation stack.
//
// Every fault a wrapper injects is decided by a PRNG stream keyed on
// (fault seed, request content hash) — never on call order — so a flow
// running over a thread pool sees exactly the same faults in exactly the
// same runs as a sequential flow, and a reported EHDSE_TESTKIT_SEED
// reproduces the failure byte-for-byte. Three interposition points:
//
//   * faulty_evaluator  — overrides system_evaluator::evaluate to throw a
//     typed evaluator_fault before the run starts (exercises the flow's
//     error path), and overrides build_system() to wrap the analogue
//     model with...
//   * faulty_node_system — a node_system decorator injecting harvester
//     dropout windows (harvest derivative clamped to zero) and supercap
//     leakage steps (instantaneous voltage drops, optionally a NaN that
//     the simulator's non-finite halt must catch) at PRNG-chosen times;
//   * faulty_objective  — an opt::objective_fn wrapper returning NaN at
//     PRNG-chosen call indices (first call always clean so optimisers
//     keep a finite incumbent).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "dse/node_system.hpp"
#include "dse/system_evaluator.hpp"
#include "opt/optimizer.hpp"
#include "spec/spec_hash.hpp"
#include "testkit/prng.hpp"

namespace ehdse::testkit {

/// Knobs for deterministic fault generation. All probabilities are per
/// evaluation request (dropout/leak/exception) or per objective call
/// (NaN); 0 disables that fault class entirely.
struct fault_options {
    std::uint64_t seed = k_default_seed;
    double dropout_probability = 0.0;    ///< run gets harvester dropout windows
    double leak_probability = 0.0;       ///< run gets supercap leakage steps
    double nan_probability = 0.0;        ///< a leak step writes NaN instead
    double exception_probability = 0.0;  ///< evaluate() throws evaluator_fault
};

/// A window during which the harvester delivers nothing.
struct dropout_window {
    double start_s = 0.0;
    double end_s = 0.0;
};

/// An instantaneous supercap disturbance at a fixed time.
struct leak_step {
    double at_s = 0.0;
    double drop_v = 0.0;    ///< voltage removed (clamped at 0 V)
    bool inject_nan = false;  ///< overwrite the voltage with NaN instead
};

/// The concrete faults one evaluation request will experience. Pure
/// function of (options.seed, request hash, horizon) — two calls with the
/// same request always get the same plan, regardless of thread or order.
struct fault_plan {
    std::vector<dropout_window> dropouts;
    std::vector<leak_step> leaks;
    bool throw_before_run = false;

    bool empty() const noexcept {
        return dropouts.empty() && leaks.empty() && !throw_before_run;
    }

    static fault_plan make(const fault_options& opts,
                           std::uint64_t request_hash, double duration_s) {
        prng r(mix(mix(opts.seed, 0xfa017ULL), request_hash));
        fault_plan plan;
        plan.throw_before_run = r.chance(opts.exception_probability);
        if (r.chance(opts.dropout_probability)) {
            const std::size_t n = r.integer(1, 2);
            for (std::size_t i = 0; i < n; ++i) {
                dropout_window w;
                w.start_s = r.uniform(0.0, 0.8 * duration_s);
                w.end_s = w.start_s +
                          r.uniform(0.05 * duration_s, 0.2 * duration_s);
                w.end_s = std::min(w.end_s, duration_s);
                plan.dropouts.push_back(w);
            }
        }
        if (r.chance(opts.leak_probability)) {
            const std::size_t n = r.integer(1, 3);
            for (std::size_t i = 0; i < n; ++i) {
                leak_step s;
                // Strictly inside the horizon so the event always fires.
                s.at_s = r.uniform(0.05 * duration_s, 0.95 * duration_s);
                s.drop_v = r.uniform(0.1, 1.0);
                s.inject_nan = r.chance(opts.nan_probability);
                plan.leaks.push_back(s);
            }
        }
        return plan;
    }
};

/// Typed failure injected by faulty_evaluator: distinguishable from any
/// production exception, so tests asserting the flow's error path know
/// the fault they planted is the one that surfaced.
class evaluator_fault : public std::runtime_error {
public:
    explicit evaluator_fault(const std::string& what_arg)
        : std::runtime_error(what_arg) {}
};

/// node_system decorator applying a fault_plan to any analogue model:
/// inside a dropout window the harvested-energy derivative is clamped to
/// zero and the storage voltage may only fall; each leak step is a
/// scheduled event that drops (or NaN-corrupts) the storage voltage.
class faulty_node_system final : public dse::node_system {
public:
    faulty_node_system(std::unique_ptr<dse::node_system> inner,
                       fault_plan plan)
        : inner_(std::move(inner)), plan_(std::move(plan)) {}

    // -- analog_system ----------------------------------------------------
    std::size_t state_size() const override { return inner_->state_size(); }

    void derivatives(double t, std::span<const double> x,
                     std::span<double> dxdt) const override {
        inner_->derivatives(t, x, dxdt);
        last_dropout_ = in_dropout(t);
        if (last_dropout_) {
            const state_map ix = inner_->states();
            dxdt[ix.harvested] = 0.0;
            last_falling_ = dxdt[ix.voltage] < 0.0;
            dxdt[ix.voltage] = std::min(dxdt[ix.voltage], 0.0);
        }
    }

    // The inner system's stiff column, under the last call's dropout
    // clamp: the harvested rate is held at zero, and so is the voltage
    // rate unless it was falling.
    std::size_t stiff_element() const override {
        return inner_->stiff_element();
    }
    void stiff_column(std::span<double> column) const override {
        inner_->stiff_column(column);
        if (!last_dropout_) return;
        const state_map ix = inner_->states();
        column[ix.harvested] = 0.0;
        if (!last_falling_) column[ix.voltage] = 0.0;
    }

    // -- node_system ------------------------------------------------------
    void attach(sim::simulator& sim) override {
        inner_->attach(sim);
        const state_map ix = inner_->states();
        for (const leak_step& leak : plan_.leaks) {
            sim.at(leak.at_s, [&sim, ix, leak] {
                if (leak.inject_nan) {
                    sim.set_state(ix.voltage,
                                  std::numeric_limits<double>::quiet_NaN());
                } else {
                    sim.set_state(ix.voltage,
                                  std::max(0.0, sim.state_at(ix.voltage) -
                                                    leak.drop_v));
                }
            });
        }
    }

    std::vector<double> initial_state(double v0, int initial_position) override {
        return inner_->initial_state(v0, initial_position);
    }

    sim::ode_options suggested_ode_options() const override {
        return inner_->suggested_ode_options();
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

    const fault_plan& plan() const noexcept { return plan_; }

private:
    bool in_dropout(double t) const noexcept {
        for (const dropout_window& w : plan_.dropouts)
            if (t >= w.start_s && t < w.end_s) return true;
        return false;
    }

    std::unique_ptr<dse::node_system> inner_;
    fault_plan plan_;
    // The last derivatives() call's dropout state, for stiff_column().
    mutable bool last_dropout_ = false;
    mutable bool last_falling_ = false;
};

/// system_evaluator that injects the faults of a per-request fault_plan.
/// Drop-in anywhere a `const system_evaluator&` is taken (cached_evaluator,
/// run_rsm_flow): exception faults throw evaluator_fault before any
/// simulation starts; analogue faults wrap the node_system built by the
/// base class with faulty_node_system. Thread-safe and call-order
/// independent like the base class — the plan depends only on the request.
class faulty_evaluator : public dse::system_evaluator {
public:
    faulty_evaluator(dse::scenario scn, fault_options faults,
                     spec::harvester_spec harv = {},
                     power::supercapacitor_params cap = {},
                     power::rectifier_params rect = {})
        : system_evaluator(scn, harv, cap, rect), faults_(faults) {}

    /// Apply ONE fixed plan to every request instead of deriving it —
    /// lets a test pin an exact fault (e.g. a full-horizon dropout) and
    /// assert its physical consequence directly.
    faulty_evaluator(dse::scenario scn, fault_plan fixed)
        : system_evaluator(scn), fixed_(std::move(fixed)) {}

    /// The plan `evaluate(config, options)` will apply.
    fault_plan plan_for(const dse::system_config& config,
                        const dse::evaluation_options& options) const {
        if (fixed_) return *fixed_;
        return fault_plan::make(faults_,
                                spec::evaluation_request_hash(config, options),
                                scene().duration_s);
    }

    dse::evaluation_result evaluate(
        const dse::system_config& config,
        const dse::evaluation_options& options = {}) const override {
        if (plan_for(config, options).throw_before_run) {
            throw evaluator_fault(
                "testkit::faulty_evaluator: injected fault for request " +
                spec::spec_hash_hex(
                    spec::evaluation_request_hash(config, options)));
        }
        return system_evaluator::evaluate(config, options);
    }

protected:
    std::unique_ptr<dse::node_system> build_system(
        const dse::system_config& config,
        const dse::evaluation_options& options,
        const harvester::vibration_source& vib) const override {
        std::unique_ptr<dse::node_system> inner =
            system_evaluator::build_system(config, options, vib);
        fault_plan plan = plan_for(config, options);
        if (plan.empty()) return inner;
        return std::make_unique<faulty_node_system>(std::move(inner),
                                                    std::move(plan));
    }

private:
    fault_options faults_;
    std::optional<fault_plan> fixed_;
};

/// Wrap an optimiser objective so PRNG-chosen calls return NaN. The first
/// call is always clean, so every optimiser holds a finite incumbent that
/// a NaN can never displace (`nan > best` is false) — the property the
/// optimiser-robustness suite asserts. Deterministic in the call index;
/// intended for the single-threaded objective loops of the optimisers.
inline opt::objective_fn faulty_objective(opt::objective_fn inner,
                                          std::uint64_t seed,
                                          double nan_probability) {
    auto calls = std::make_shared<std::uint64_t>(0);
    return [inner = std::move(inner), seed, nan_probability,
            calls](const numeric::vec& x) -> double {
        const std::uint64_t i = (*calls)++;
        if (i > 0) {
            prng r(mix(seed, i));
            if (r.chance(nan_probability))
                return std::numeric_limits<double>::quiet_NaN();
        }
        return inner(x);
    };
}

}  // namespace ehdse::testkit
