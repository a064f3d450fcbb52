#include "opt/genetic_algorithm.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace ehdse::opt {

namespace {

struct individual {
    numeric::vec genes;
    double fitness = 0.0;
};

/// Non-finite objective values (NaN harvest, failed run) become -inf so the
/// sort/max_element comparators keep a strict weak ordering and a faulty
/// individual can never win a tournament against any finite one.
double sanitize_fitness(double v) {
    return std::isfinite(v) ? v : -std::numeric_limits<double>::infinity();
}

std::size_t tournament_pick(const std::vector<individual>& pop,
                            std::size_t tournament_size, numeric::rng& rng) {
    std::size_t best = rng.uniform_index(pop.size());
    for (std::size_t t = 1; t < tournament_size; ++t) {
        const std::size_t challenger = rng.uniform_index(pop.size());
        if (pop[challenger].fitness > pop[best].fitness) best = challenger;
    }
    return best;
}

}  // namespace

opt_result genetic_algorithm::maximize(const objective_fn& f,
                                       const box_bounds& bounds,
                                       numeric::rng& rng) const {
    bounds.validate();
    if (opt_.population < 2)
        throw std::invalid_argument("genetic_algorithm: population must be >= 2");
    if (opt_.elite_count >= opt_.population)
        throw std::invalid_argument("genetic_algorithm: elite count >= population");
    const std::size_t k = bounds.dimension();

    opt_result out;
    out.algorithm = name();

    // Draw the whole initial population first, then evaluate it.
    // Evaluations never touch the rng, so this is bit-identical to the
    // evaluate-as-you-draw order.
    std::vector<individual> pop(opt_.population);
    {
        std::vector<numeric::vec> genes(opt_.population);
        for (auto& g : genes) g = bounds.random_point(rng);
        const std::vector<double> fitness = evaluate_all(f, genes);
        for (std::size_t i = 0; i < pop.size(); ++i) {
            pop[i].genes = std::move(genes[i]);
            pop[i].fitness = sanitize_fitness(fitness[i]);
            ++out.evaluations;
        }
    }

    auto best_it = std::max_element(
        pop.begin(), pop.end(),
        [](const individual& a, const individual& b) { return a.fitness < b.fitness; });
    out.best_x = best_it->genes;
    out.best_value = best_it->fitness;

    std::size_t stall = 0;
    for (std::size_t gen = 0; gen < opt_.generations; ++gen) {
        ++out.iterations;

        // Elitism: carry the best individuals over unchanged.
        std::sort(pop.begin(), pop.end(), [](const individual& a, const individual& b) {
            return a.fitness > b.fitness;
        });
        std::vector<individual> next(pop.begin(),
                                     pop.begin() + static_cast<std::ptrdiff_t>(opt_.elite_count));
        next.reserve(opt_.population);

        // Breed every child gene first, then batch-evaluate the brood.
        std::vector<numeric::vec> brood;
        brood.reserve(opt_.population - next.size());
        while (next.size() + brood.size() < opt_.population) {
            const individual& pa = pop[tournament_pick(pop, opt_.tournament_size, rng)];
            const individual& pb = pop[tournament_pick(pop, opt_.tournament_size, rng)];

            numeric::vec genes(k);
            if (rng.bernoulli(opt_.crossover_prob)) {
                // BLX-alpha: sample each gene from the expanded parent interval.
                for (std::size_t i = 0; i < k; ++i) {
                    const double lo = std::min(pa.genes[i], pb.genes[i]);
                    const double hi = std::max(pa.genes[i], pb.genes[i]);
                    const double pad = opt_.blx_alpha * (hi - lo);
                    genes[i] = rng.uniform(lo - pad, hi + pad);
                }
            } else {
                genes = pa.genes;
            }
            for (std::size_t i = 0; i < k; ++i)
                if (rng.bernoulli(opt_.mutation_prob))
                    genes[i] +=
                        rng.normal(0.0, opt_.mutation_sigma_fraction * bounds.width(i));
            brood.push_back(bounds.clamp(std::move(genes)));
        }
        const std::vector<double> brood_fitness = evaluate_all(f, brood);
        for (std::size_t i = 0; i < brood.size(); ++i) {
            next.push_back(individual{std::move(brood[i]), sanitize_fitness(brood_fitness[i])});
            ++out.evaluations;
        }
        pop = std::move(next);

        const auto gen_best = std::max_element(
            pop.begin(), pop.end(),
            [](const individual& a, const individual& b) { return a.fitness < b.fitness; });
        out.trajectory.push_back(std::max(out.best_value, gen_best->fitness));
        if (gen_best->fitness > out.best_value + opt_.stall_tolerance) {
            out.best_value = gen_best->fitness;
            out.best_x = gen_best->genes;
            stall = 0;
        } else {
            ++stall;
            if (stall >= opt_.stall_generations) {
                out.converged = true;
                break;
            }
        }
    }
    return out;
}

}  // namespace ehdse::opt
