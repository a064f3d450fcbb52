// Common optimiser interface (paper section V uses MATLAB's Simulated
// Annealing and Genetic Algorithm; we implement both, plus deterministic
// baselines, against one box-constrained maximisation interface).
//
// All optimisers MAXIMISE the objective over an axis-aligned box — the
// coded [-1,1]^k design space in the paper's flow, but any box works.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "numeric/matrix.hpp"
#include "numeric/rng.hpp"

namespace ehdse::opt {

/// Objective to maximise.
using objective_fn = std::function<double(const numeric::vec&)>;

/// Axis-aligned search box.
struct box_bounds {
    numeric::vec lo;
    numeric::vec hi;

    /// The coded RSM box [-1,1]^k.
    static box_bounds unit(std::size_t k);

    std::size_t dimension() const noexcept { return lo.size(); }

    /// Throws std::invalid_argument unless lo < hi elementwise.
    void validate() const;

    /// Clamp a point into the box (in place, returns the point).
    numeric::vec clamp(numeric::vec x) const;

    bool contains(const numeric::vec& x, double tol = 1e-12) const;

    /// Uniform random point inside the box.
    numeric::vec random_point(numeric::rng& rng) const;

    /// Box edge length along axis i.
    double width(std::size_t i) const { return hi.at(i) - lo.at(i); }
};

/// Outcome of one optimisation run.
struct opt_result {
    numeric::vec best_x;
    double best_value = 0.0;
    std::size_t evaluations = 0;
    std::size_t iterations = 0;
    bool converged = false;      ///< stopping rule was met (vs budget exhausted)
    std::string algorithm;

    // Per-run telemetry (feeds obs::optimizer_record / run manifests).
    /// Proposal moves offered to an acceptance rule (SA Metropolis steps);
    /// 0 for optimisers without an acceptance notion.
    std::size_t proposed_moves = 0;
    /// Accepted proposal moves.
    std::size_t accepted_moves = 0;
    /// Best-so-far objective value after each iteration (SA epoch, GA
    /// generation); empty when an optimiser does not track it.
    std::vector<double> trajectory;

    /// accepted_moves / proposed_moves, or -1 when not applicable.
    double acceptance_rate() const noexcept {
        if (proposed_moves == 0) return -1.0;
        return static_cast<double>(accepted_moves) /
               static_cast<double>(proposed_moves);
    }
};

/// Abstract optimiser. Implementations are deterministic given the rng.
/// One flow may run its optimisers' maximize() concurrently, one task
/// each, and may list one instance twice (dse::run_rsm_flow): maximize()
/// keeps its state in the call, so concurrent calls on one instance are
/// safe, and it calls `f` only from the thread that called it.
class optimizer {
public:
    virtual ~optimizer() = default;

    virtual std::string name() const = 0;

    /// Maximise `f` over `bounds` using randomness from `rng`.
    virtual opt_result maximize(const objective_fn& f, const box_bounds& bounds,
                                numeric::rng& rng) const = 0;

protected:
    /// Evaluate f at each point of xs, in input order.
    static std::vector<double> evaluate_all(const objective_fn& f,
                                            const std::vector<numeric::vec>& xs);
};

/// One registry entry: a constructible optimiser name plus a one-line
/// description (what `ehdse_cli --list-optimizers` prints).
struct optimizer_info {
    std::string name;
    std::string description;
};

/// Every name make_optimizer accepts, in presentation order.
const std::vector<optimizer_info>& optimizer_registry();

/// True when `name` resolves through make_optimizer.
bool is_known_optimizer(std::string_view name);

/// Comma-separated registry names — the "valid: ..." list error messages
/// and `--list-optimizers` share.
std::string optimizer_names();

/// Construct a single-objective optimiser from its name() string — the
/// registry that lets a serialised experiment spec (spec::flow_spec::
/// optimizers) name its algorithms: "simulated-annealing",
/// "genetic-algorithm", "nelder-mead", "pattern-search", "random-search",
/// "particle-swarm", "differential-evolution". Default options; throws
/// std::invalid_argument (name echoed, valid choices listed) for anything
/// else.
std::shared_ptr<optimizer> make_optimizer(std::string_view name);

}  // namespace ehdse::opt
