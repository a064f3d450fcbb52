// One-hour whole-system evaluation of a configuration — the "simulation
// run" of the paper's methodology (its SystemC-A model run for each DOE
// design point), producing the response y = number of transmissions.
//
// The request types (scenario, evaluation_options, fidelity) are part of
// the canonical experiment spec (src/spec); the aliases below keep the
// historical dse:: spellings working across the tree.
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "dse/envelope_system.hpp"
#include "dse/node_system.hpp"
#include "dse/system_config.hpp"
#include "harvester/harvester_model.hpp"
#include "harvester/tuning_table.hpp"
#include "mcu/tuning_controller.hpp"
#include "node/sensor_node.hpp"
#include "sim/trace.hpp"
#include "spec/experiment_spec.hpp"

namespace ehdse::dse {

/// Stimulus and initial conditions (paper section V: 60 mg, +5 Hz steps
/// every 25 minutes, one-hour horizon).
using scenario = spec::scenario;

/// Analogue fidelity of a run.
using fidelity = spec::fidelity;

/// Options controlling one evaluation.
using evaluation_options = spec::evaluation_options;

/// Everything a run produces.
struct evaluation_result {
    std::uint64_t transmissions = 0;      ///< the response variable y
    std::uint64_t suppressed_wakeups = 0; ///< node polls below cut-off
    std::uint64_t low_band_transmissions = 0;
    mcu::controller_stats tuning;
    double final_voltage_v = 0.0;
    double min_voltage_v = 0.0;
    double max_voltage_v = 0.0;
    double harvested_energy_j = 0.0;      ///< delivered into the store
    double sustained_load_energy_j = 0.0; ///< sleep floors etc.
    double withdrawn_energy_j = 0.0;      ///< discrete bursts (ledger total)
    power::energy_ledger ledger;          ///< per-account discrete withdrawals
    std::size_t ode_steps = 0;
    std::size_t ode_steps_rejected = 0;   ///< error-controlled integrator retries
    std::uint64_t events = 0;
    double wall_time_s = 0.0;             ///< measured wall clock of evaluate()
    bool sim_ok = true;
    std::optional<sim::trace> voltage_trace;   ///< when tracing was requested
    std::optional<sim::trace> position_trace;  ///< actuator position over time
};

/// Reusable evaluator: fixed physics (harvester backend, scenario, node
/// and controller base parameters), varying system_config per call.
///
/// Polymorphic by design: evaluate() and the build_system() factory hook
/// are virtual so test harnesses can interpose on the whole-request level
/// (inject an exception before any simulation starts) or on the analogue
/// model level (wrap the node_system with a fault decorator) — see
/// testkit::faulty_evaluator. Everything downstream (cached_evaluator,
/// run_rsm_flow) takes `const system_evaluator&`, so a wrapper threads
/// through the entire flow unchanged.
class system_evaluator {
public:
    /// Build the harvester backend from the registry (`harv.model`; the
    /// default is the paper's electromagnetic device). The controller's
    /// actuator cost model is taken from the backend
    /// (harvester_model::actuator()) — each device class knows its own
    /// retune mechanism — overriding whatever `controller.actuator` held.
    /// Throws std::invalid_argument (offending field named) for an unknown
    /// harvester name or when the scenario fails
    /// spec::scenario::validate().
    explicit system_evaluator(scenario scn = {},
                              spec::harvester_spec harv = {},
                              power::supercapacitor_params cap = {},
                              power::rectifier_params rect = {},
                              node::node_params node = {},
                              mcu::controller_params controller = {});

    virtual ~system_evaluator() = default;

    const scenario& scene() const noexcept { return scenario_; }
    const harvester::harvester_model& model() const noexcept { return *model_; }
    const harvester::tuning_table& table() const noexcept { return table_; }

    /// Canonical spec fragment naming this evaluator's backend — rsm_flow
    /// rebuilds the full experiment spec (for hashing/manifests) from it.
    const spec::harvester_spec& harvester_config() const noexcept {
        return harv_;
    }

    /// Replace the storage element for subsequent evaluations (e.g. a
    /// power::thin_film_battery); nullptr restores the default
    /// supercapacitor built from the constructor's parameters.
    void set_storage(std::shared_ptr<const power::storage_model> storage);

    /// Run the full mixed-signal simulation for `config`. The analogue
    /// model is chosen by options.model via make_node_system().
    virtual evaluation_result evaluate(
        const system_config& config,
        const evaluation_options& options = {}) const;

    /// evaluate() of every config in order, through the virtual call, so
    /// a wrapper that overrides evaluate() alone sees each one: out[i]
    /// corresponds to configs[i]. Kept, and kept virtual, for callers
    /// and wrappers outside src/ that still spell this entry point
    /// (ehdse_bench's timed_evaluator overrides it); run_rsm_flow,
    /// cached_evaluator and ehdsed call evaluate() only.
    virtual std::vector<evaluation_result> evaluate_batch(
        std::span<const system_config> configs,
        const evaluation_options& options = {}) const;

    /// Number of evaluated configs so far (DOE bookkeeping).
    std::size_t runs() const noexcept { return runs_.load(); }

    /// evaluate() is safe to call concurrently from several threads: each
    /// call builds its own simulator/plant; the shared physics objects are
    /// only read. run_rsm_flow exploits this when flow_options::parallel
    /// is set. Overrides must preserve both properties (wrappers keyed on
    /// the request, never on call order, stay deterministic under a pool).

protected:
    /// For model decorators (testkit::cold_start_evaluator): run later
    /// evaluations on `model`, which must keep the tuning law and the
    /// actuator of the backend it replaces (the tuning table and the
    /// controller's retune cost were taken from that one).
    void replace_model(
        std::shared_ptr<const harvester::harvester_model> model) noexcept {
        model_ = std::move(model);
    }

    /// Factory for the per-call analogue model; evaluate() runs the shared
    /// simulation loop against whatever this returns. The default builds
    /// the envelope / transient system `options` asks for; fault wrappers
    /// override it to decorate that system, keyed on (config, options).
    /// `vib` is the stimulus of the current call and outlives the run.
    virtual std::unique_ptr<node_system> build_system(
        const system_config& config, const evaluation_options& options,
        const harvester::vibration_source& vib) const;

private:
    scenario scenario_;
    spec::harvester_spec harv_;
    std::shared_ptr<const harvester::harvester_model> model_;
    harvester::tuning_table table_;
    int start_position_ = 0;  ///< actuator position at t = 0, from scenario_
    power::supercapacitor_params cap_;
    std::shared_ptr<const power::storage_model> storage_;  ///< never null
    power::rectifier_params rect_;
    node::node_params node_;
    mcu::controller_params controller_;
    mutable std::atomic<std::size_t> runs_{0};
};

}  // namespace ehdse::dse
