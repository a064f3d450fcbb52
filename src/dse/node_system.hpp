// The common shape of a whole-node analogue model: an ODE system that is
// also the plant the digital controllers drive, and that knows its own
// integration defaults and state layout. system_evaluator dispatches a
// run's fidelity through make_node_system() and then runs ONE generic
// simulation loop against this interface — the envelope/transient
// branches (and their previously hard-coded ode_options blocks and
// state-index plumbing) live with the system that owns them.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "harvester/plant.hpp"
#include "power/energy_ledger.hpp"
#include "power/rectifier.hpp"
#include "power/storage.hpp"
#include "sim/context.hpp"
#include "sim/ode.hpp"
#include "spec/experiment_spec.hpp"

namespace ehdse::harvester {
class harvester_model;
class vibration_source;
}  // namespace ehdse::harvester

namespace ehdse::dse {

class node_system : public sim::analog_system, public harvester::plant {
public:
    /// Where the observables live in this system's state vector.
    struct state_map {
        std::size_t voltage = 0;    ///< storage voltage
        std::size_t harvested = 0;  ///< cumulative energy into the store
        /// Cumulative sustained-load energy; nullopt when the model folds
        /// sustained draws into dV/dt without a separate energy state.
        std::optional<std::size_t> load_energy;
    };

    /// Bind the simulator whose state vector this system reads/writes when
    /// servicing plant calls. Must be called before the first event fires.
    virtual void attach(sim::sim_context& sim) = 0;

    /// Initial state for storage voltage v0 with the actuator at
    /// `initial_position`.
    virtual std::vector<double> initial_state(double v0,
                                              int initial_position) = 0;

    /// Integrator settings tuned for this model's stiffness and time
    /// scales (tolerances, initial and maximum step).
    virtual sim::ode_options suggested_ode_options() const = 0;

    virtual state_map states() const = 0;

    /// Energy accounting of the discrete withdrawals.
    virtual const power::energy_ledger& ledger() const = 0;
};

/// Build the analogue system `options` asks for: the envelope fast path
/// (with its front-end applied) or the full transient model, over the
/// (non-null) `storage`. `model` and `vib` must outlive the returned system.
std::unique_ptr<node_system> make_node_system(
    const spec::evaluation_options& options,
    const harvester::harvester_model& model,
    const harvester::vibration_source& vib,
    std::shared_ptr<const power::storage_model> storage,
    const power::rectifier_params& rect);

}  // namespace ehdse::dse
