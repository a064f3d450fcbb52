#include "opt/nsga2.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace ehdse::opt {

bool dominates(const numeric::vec& a, const numeric::vec& b) {
    if (a.size() != b.size())
        throw std::invalid_argument("dominates: objective count mismatch");
    bool strictly_better = false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i] < b[i]) return false;
        if (a[i] > b[i]) strictly_better = true;
    }
    return strictly_better;
}

std::vector<std::size_t> non_dominated_sort(
    const std::vector<numeric::vec>& objectives) {
    const std::size_t n = objectives.size();
    std::vector<std::size_t> rank(n, 0);
    std::vector<int> domination_count(n, 0);
    std::vector<std::vector<std::size_t>> dominated_by(n);

    std::vector<std::size_t> current_front;
    for (std::size_t p = 0; p < n; ++p) {
        for (std::size_t q = 0; q < n; ++q) {
            if (p == q) continue;
            if (dominates(objectives[p], objectives[q]))
                dominated_by[p].push_back(q);
            else if (dominates(objectives[q], objectives[p]))
                ++domination_count[p];
        }
        if (domination_count[p] == 0) {
            rank[p] = 0;
            current_front.push_back(p);
        }
    }

    std::size_t front_index = 0;
    while (!current_front.empty()) {
        std::vector<std::size_t> next_front;
        for (std::size_t p : current_front)
            for (std::size_t q : dominated_by[p])
                if (--domination_count[q] == 0) {
                    rank[q] = front_index + 1;
                    next_front.push_back(q);
                }
        ++front_index;
        current_front = std::move(next_front);
    }
    return rank;
}

namespace {

/// Crowding distance within one front (index list into `objectives`).
std::vector<double> crowding_distances(
    const std::vector<numeric::vec>& objectives,
    const std::vector<std::size_t>& front) {
    const std::size_t m = front.empty() ? 0 : objectives[front[0]].size();
    std::vector<double> crowd(objectives.size(), 0.0);
    for (std::size_t obj = 0; obj < m; ++obj) {
        std::vector<std::size_t> order = front;
        std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
            return objectives[a][obj] < objectives[b][obj];
        });
        const double lo = objectives[order.front()][obj];
        const double hi = objectives[order.back()][obj];
        crowd[order.front()] = std::numeric_limits<double>::infinity();
        crowd[order.back()] = std::numeric_limits<double>::infinity();
        if (hi <= lo) continue;
        for (std::size_t i = 1; i + 1 < order.size(); ++i)
            crowd[order[i]] += (objectives[order[i + 1]][obj] -
                                objectives[order[i - 1]][obj]) /
                               (hi - lo);
    }
    return crowd;
}

}  // namespace

std::vector<pareto_point> nsga2::optimize(const multi_objective_fn& f,
                                          std::size_t objective_count,
                                          const box_bounds& bounds,
                                          numeric::rng& rng) const {
    bounds.validate();
    if (objective_count == 0)
        throw std::invalid_argument("nsga2: need at least one objective");
    if (opt_.population < 4)
        throw std::invalid_argument("nsga2: population must be >= 4");
    const std::size_t np = opt_.population + (opt_.population % 2);
    const std::size_t k = bounds.dimension();

    // Objective values of a whole population, in input order.
    auto evaluate_batch = [&](const std::vector<numeric::vec>& xs) {
        std::vector<numeric::vec> objs(xs.size());
        for (std::size_t i = 0; i < xs.size(); ++i) {
            objs[i] = f(xs[i]);
            if (objs[i].size() != objective_count)
                throw std::invalid_argument("nsga2: objective size mismatch");
        }
        return objs;
    };

    std::vector<numeric::vec> pop(np);
    for (std::size_t i = 0; i < np; ++i) pop[i] = bounds.random_point(rng);
    std::vector<numeric::vec> obj = evaluate_batch(pop);

    for (std::size_t gen = 0; gen < opt_.generations; ++gen) {
        const auto rank = non_dominated_sort(obj);
        // Crowding over the whole population per front.
        std::vector<std::vector<std::size_t>> fronts;
        for (std::size_t i = 0; i < np; ++i) {
            if (rank[i] >= fronts.size()) fronts.resize(rank[i] + 1);
            fronts[rank[i]].push_back(i);
        }
        std::vector<double> crowd(np, 0.0);
        for (const auto& front : fronts) {
            const auto fc = crowding_distances(obj, front);
            for (std::size_t i : front) crowd[i] = fc[i];
        }

        auto tournament = [&]() -> std::size_t {
            const std::size_t a = rng.uniform_index(np);
            const std::size_t b = rng.uniform_index(np);
            if (rank[a] != rank[b]) return rank[a] < rank[b] ? a : b;
            return crowd[a] >= crowd[b] ? a : b;
        };

        // Offspring: breed the full brood, then evaluate it as one batch.
        std::vector<numeric::vec> child_pop;
        child_pop.reserve(np);
        while (child_pop.size() < np) {
            const numeric::vec& pa = pop[tournament()];
            const numeric::vec& pb = pop[tournament()];
            numeric::vec child(k);
            if (rng.bernoulli(opt_.crossover_prob)) {
                for (std::size_t i = 0; i < k; ++i) {
                    const double lo = std::min(pa[i], pb[i]);
                    const double hi = std::max(pa[i], pb[i]);
                    const double pad = opt_.blx_alpha * (hi - lo);
                    child[i] = rng.uniform(lo - pad, hi + pad);
                }
            } else {
                child = pa;
            }
            for (std::size_t i = 0; i < k; ++i)
                if (rng.bernoulli(opt_.mutation_prob))
                    child[i] += rng.normal(0.0, opt_.mutation_sigma_fraction *
                                                    bounds.width(i));
            child_pop.push_back(bounds.clamp(std::move(child)));
        }
        std::vector<numeric::vec> child_obj = evaluate_batch(child_pop);

        // Environmental selection over parents + offspring.
        std::vector<numeric::vec> union_pop = pop;
        std::vector<numeric::vec> union_obj = obj;
        union_pop.insert(union_pop.end(), child_pop.begin(), child_pop.end());
        union_obj.insert(union_obj.end(), child_obj.begin(), child_obj.end());

        const auto union_rank = non_dominated_sort(union_obj);
        std::vector<std::vector<std::size_t>> union_fronts;
        for (std::size_t i = 0; i < union_pop.size(); ++i) {
            if (union_rank[i] >= union_fronts.size())
                union_fronts.resize(union_rank[i] + 1);
            union_fronts[union_rank[i]].push_back(i);
        }

        std::vector<std::size_t> selected;
        for (const auto& front : union_fronts) {
            if (selected.size() + front.size() <= np) {
                selected.insert(selected.end(), front.begin(), front.end());
            } else {
                const auto fc = crowding_distances(union_obj, front);
                std::vector<std::size_t> order = front;
                std::sort(order.begin(), order.end(),
                          [&](std::size_t a, std::size_t b) { return fc[a] > fc[b]; });
                const std::size_t need = np - selected.size();
                selected.insert(selected.end(), order.begin(),
                                order.begin() + static_cast<std::ptrdiff_t>(need));
            }
            if (selected.size() >= np) break;
        }

        std::vector<numeric::vec> new_pop, new_obj;
        new_pop.reserve(np);
        for (std::size_t idx : selected) {
            new_pop.push_back(std::move(union_pop[idx]));
            new_obj.push_back(std::move(union_obj[idx]));
        }
        pop = std::move(new_pop);
        obj = std::move(new_obj);
    }

    // Extract the final first front, deduplicated by objective vector.
    const auto rank = non_dominated_sort(obj);
    std::vector<pareto_point> front;
    for (std::size_t i = 0; i < np; ++i)
        if (rank[i] == 0) front.push_back({pop[i], obj[i]});
    std::sort(front.begin(), front.end(),
              [](const pareto_point& a, const pareto_point& b) {
                  return a.objectives[0] < b.objectives[0];
              });
    front.erase(std::unique(front.begin(), front.end(),
                            [](const pareto_point& a, const pareto_point& b) {
                                return a.objectives == b.objectives;
                            }),
                front.end());
    return front;
}

}  // namespace ehdse::opt
