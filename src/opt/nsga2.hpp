// NSGA-II multi-objective optimiser (Deb et al. 2002): fast non-dominated
// sorting, crowding-distance diversity, binary tournament on (rank,
// crowding), BLX crossover and gaussian mutation.
//
// Extension beyond the paper's single-objective flow: a deployed node
// cares about more than the hourly transmission count — e.g. the energy
// left in the store at the end of the horizon (resilience against a lull).
// All objectives are MAXIMISED.
#pragma once

#include <functional>
#include <vector>

#include "opt/optimizer.hpp"

namespace ehdse::opt {

/// Vector objective: returns one value per objective (all maximised).
using multi_objective_fn =
    std::function<numeric::vec(const numeric::vec&)>;

/// One solution on (an approximation of) the Pareto front.
struct pareto_point {
    numeric::vec x;
    numeric::vec objectives;
};

struct nsga2_options {
    std::size_t population = 80;   ///< even number
    std::size_t generations = 120;
    double crossover_prob = 0.9;
    double blx_alpha = 0.3;
    double mutation_prob = 0.15;          ///< per gene
    double mutation_sigma_fraction = 0.1; ///< of box width
};

/// True when `a` Pareto-dominates `b` (>= everywhere, > somewhere).
bool dominates(const numeric::vec& a, const numeric::vec& b);

/// Fast non-dominated sort: returns front index (0 = best) per point.
std::vector<std::size_t> non_dominated_sort(
    const std::vector<numeric::vec>& objectives);

class nsga2 {
public:
    explicit nsga2(nsga2_options options = {}) : opt_(options) {}

    /// Run the optimiser; returns the final population's first front,
    /// sorted by the first objective. `objective_count` must match the
    /// size of the vectors `f` returns.
    std::vector<pareto_point> optimize(const multi_objective_fn& f,
                                       std::size_t objective_count,
                                       const box_bounds& bounds,
                                       numeric::rng& rng) const;

private:
    nsga2_options opt_;
};

}  // namespace ehdse::opt
