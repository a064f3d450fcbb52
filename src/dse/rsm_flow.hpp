// The paper's end-to-end methodology in one call (sections II and V):
//
//   1. experimental design: candidate set + run selection, by registry
//      name (paper: 3-level full factorial, D-optimal pick of 10);
//   2. one mixed-signal simulation per selected design point;
//   3. surrogate fit of the response surface, by registry name (paper:
//      least-squares quadratic, eq. 9);
//   4. global maximisation of the fitted surface with Simulated Annealing
//      and a Genetic Algorithm (paper Table VI);
//   5. validation: re-simulate each optimiser's configuration, beside the
//      original design (Table VI row 1).
//
// Every pipeline stage resolves through a name registry — the design via
// doe::make_design, the surrogate via rsm::make_surrogate, the optimisers
// via opt::make_optimizer — so the whole flow is described by the
// canonical spec::experiment_spec and any stage swaps with one flag.
#pragma once

#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "doe/design.hpp"
#include "dse/cached_evaluator.hpp"
#include "dse/system_evaluator.hpp"
#include "obs/run_manifest.hpp"
#include "opt/optimizer.hpp"
#include "rsm/surrogate.hpp"
#include "spec/experiment_spec.hpp"

namespace ehdse::exec {
class thread_pool;
}  // namespace ehdse::exec

namespace ehdse::dse {

/// Typed failure of a running flow: any exception thrown by a pipeline
/// stage after validation (a failing evaluator, an unfittable surrogate
/// design, an optimiser objective error) is recorded into the attached
/// manifest ("error" + "error_phase" options) and rethrown as this type,
/// so callers always see WHERE the flow died — and a fault-injected
/// evaluator can never crash the flow with an untyped escape.
/// Registry/spec validation errors keep throwing std::invalid_argument
/// before any phase starts.
class flow_error : public std::runtime_error {
public:
    flow_error(std::string phase, const std::string& message)
        : std::runtime_error("run_rsm_flow[" + phase + "]: " + message),
          phase_(std::move(phase)) {}

    /// Name of the phase that failed ("simulate", "fit", "validate", ...).
    const std::string& phase() const noexcept { return phase_; }

private:
    std::string phase_;
};

struct flow_options {
    std::size_t doe_runs = 10;        ///< design run budget (paper: 10)
    std::size_t factorial_levels = 3; ///< candidate grid per axis (paper: 3)
    /// Experimental design by registry name (doe::design_registry):
    /// d_optimal (paper), full_factorial, central_composite, box_behnken,
    /// lhs.
    std::string design = "d_optimal";
    /// Surrogate model by registry name (rsm::surrogate_registry):
    /// quadratic (paper eq. 9), stepwise, gp.
    std::string surrogate = "quadratic";
    /// Stochastic-design knobs (d_optimal exchange restarts, lhs jitter).
    doe::design_options doe{};
    std::uint64_t optimizer_seed = 0x0b7a1;
    evaluation_options eval{};
    /// Reference design simulated for Table VI row 1 (and recorded in the
    /// manifest spec as the spec's `config` part).
    system_config baseline = system_config::original();
    /// Simulations per design point, each with its own measurement-noise
    /// seed. 1 = the paper's flow; > 1 produces replicated observations so
    /// pure error / lack-of-fit can be assessed (rsm::lack_of_fit).
    std::size_t replicates = 1;
    std::uint64_t replicate_seed_base = 1;
    /// Fan the flow out over a thread pool: the simulate phase (one item
    /// per design point, replicates included), the optimise phase (one
    /// item per optimiser) and the validate phase (one item per
    /// validation, plus the baseline). The calling thread claims items
    /// beside at most workers − 1 helper tasks (exec::thread_pool::
    /// parallel_for). Results are identical to the sequential order — each
    /// run and each optimiser is seeded independently — just faster on
    /// multi-core hosts. An optimiser never sees the pool: it scores the
    /// surface inline inside its item.
    bool parallel = false;
    /// Worker count when the flow creates its own pool (`parallel` set and
    /// `pool` unset). 0 = one worker per hardware thread.
    std::size_t jobs = 0;
    /// Externally owned pool. When set, the simulate, optimise and
    /// validate phases fan out over it (the calling thread included) even
    /// without `parallel`; it must outlive the call. A flow called from
    /// one of this pool's own workers runs every phase inline on that
    /// worker (exec::parallel_for's nesting rule), as `ehdsed` runs flows.
    /// When unset and `parallel` is set, the flow owns a pool of `jobs`
    /// workers for the duration of the call.
    exec::thread_pool* pool = nullptr;
    /// Memoise evaluations for the duration of the flow: optimiser
    /// revisits of an already-simulated configuration (common — GA and SA
    /// frequently agree on a box vertex) reuse the stored result.
    bool cache = true;
    /// Retained entries in the memoisation cache.
    std::size_t cache_capacity = 128;
    /// Optimisers to run on the fitted surface. Empty = the paper's pair
    /// (simulated annealing + genetic algorithm).
    std::vector<std::shared_ptr<opt::optimizer>> optimizers;

    // -- Observability (all optional; zero cost when unset) ---------------
    /// When set, the flow records its full execution into this manifest:
    /// option echo (design/surrogate names included) + seeds, per-phase
    /// wall times, one sim_run_record per simulation (design points —
    /// replicates included — baseline and validation re-runs), the uniform
    /// fit diagnostics under "fit", and one optimizer_record per
    /// optimiser. Caller-owned; must outlive the call. Works with
    /// `parallel` too.
    obs::run_manifest* manifest = nullptr;
    /// When set, receives one human-readable line per flow milestone
    /// (phase completions, each design-point simulation, each optimiser).
    /// Invoked from the calling thread only, including under `parallel`.
    std::function<void(const std::string&)> progress;
};

/// One optimiser's outcome: the argmax on the surface, its prediction, and
/// the validating full simulation.
struct optimizer_outcome {
    std::string name;
    numeric::vec coded;
    system_config config;
    double predicted = 0.0;    ///< surrogate value at the optimum
    evaluation_result validated;
    std::size_t evaluations = 0;  ///< objective (surface) evaluations
    opt::opt_result details;   ///< full optimiser telemetry (acceptance, trajectory)
    double optimise_wall_s = 0.0;  ///< wall time inside optimizer::maximize
};

struct flow_result {
    rsm::design_space space;
    doe::design_result design;                   ///< candidates + selection
    std::vector<numeric::vec> design_coded;      ///< simulated points (incl. replicates)
    std::vector<system_config> design_configs;   ///< natural units
    numeric::vec responses;                      ///< y per design point
    rsm::surrogate_fit fit;                      ///< the fitted surface + diagnostics
    evaluation_result original_eval;             ///< baseline (Table VI row 1)
    std::vector<optimizer_outcome> outcomes;     ///< Table VI remaining rows
    /// Memoisation totals for this run (all zero when caching is off).
    cached_evaluator::cache_stats cache;
};

/// Run the complete flow against `evaluator`. When a manifest is attached,
/// the canonical spec::experiment_spec this invocation answers — rebuilt
/// from the evaluator's scenario plus the serialisable options — is
/// embedded under the "spec" option together with its content hash
/// ("spec_hash", 16 hex chars), so any manifest identifies the experiment
/// it records and can be replayed via `ehdse_cli flow --spec`. Throws
/// std::invalid_argument (offender named, valid choices listed) for an
/// unknown design or surrogate name.
flow_result run_rsm_flow(const system_evaluator& evaluator,
                         const flow_options& options = {});

/// Translate a canonical spec into flow_options. `runtime` contributes the
/// non-serialisable wiring only (pool, manifest, progress callback,
/// design-algorithm knobs); every serialisable field is taken from the
/// spec — optimiser / design / surrogate names resolve through their
/// registries. Throws std::invalid_argument when the spec fails
/// validation or names an unknown optimiser.
flow_options flow_options_from_spec(const spec::experiment_spec& spec,
                                    flow_options runtime = {});

/// Run the complete flow described by `spec` (evaluator built from
/// spec.scn, options via flow_options_from_spec). The manifest spec/
/// spec_hash stamped by this overload equal those of the flag-driven
/// entry point given the same request — the round-trip guarantee behind
/// `--dump-spec` / `--spec`.
flow_result run_rsm_flow(const spec::experiment_spec& spec,
                         const flow_options& runtime = {});

}  // namespace ehdse::dse
