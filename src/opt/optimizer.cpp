#include "opt/optimizer.hpp"

#include <algorithm>
#include <stdexcept>

#include "opt/genetic_algorithm.hpp"
#include "opt/nelder_mead.hpp"
#include "opt/pattern_search.hpp"
#include "opt/simulated_annealing.hpp"
#include "opt/swarm.hpp"

namespace ehdse::opt {

namespace {

using factory_fn = std::shared_ptr<optimizer> (*)();

struct optimizer_entry {
    optimizer_info info;
    factory_fn make;
};

template <class T>
std::shared_ptr<optimizer> make_default() {
    return std::make_shared<T>();
}

const std::vector<optimizer_entry>& entries() {
    static const std::vector<optimizer_entry> table = {
        {{"simulated-annealing",
          "Metropolis annealing with geometric cooling (paper Table VI)"},
         &make_default<simulated_annealing>},
        {{"genetic-algorithm",
          "real-coded GA: tournament selection, blend crossover (paper Table VI)"},
         &make_default<genetic_algorithm>},
        {{"nelder-mead", "derivative-free downhill simplex with restarts"},
         &make_default<nelder_mead>},
        {{"pattern-search", "coordinate pattern search with shrinking mesh"},
         &make_default<pattern_search>},
        {{"random-search", "uniform random sampling baseline"},
         &make_default<random_search>},
        {{"particle-swarm", "global-best particle swarm"},
         &make_default<particle_swarm>},
        {{"differential-evolution", "DE/rand/1/bin differential evolution"},
         &make_default<differential_evolution>},
    };
    return table;
}

}  // namespace

const std::vector<optimizer_info>& optimizer_registry() {
    static const std::vector<optimizer_info> infos = [] {
        std::vector<optimizer_info> out;
        for (const optimizer_entry& e : entries()) out.push_back(e.info);
        return out;
    }();
    return infos;
}

bool is_known_optimizer(std::string_view name) {
    for (const optimizer_entry& e : entries())
        if (e.info.name == name) return true;
    return false;
}

std::string optimizer_names() {
    std::string out;
    for (const optimizer_entry& e : entries()) {
        if (!out.empty()) out += ", ";
        out += e.info.name;
    }
    return out;
}

std::shared_ptr<optimizer> make_optimizer(std::string_view name) {
    for (const optimizer_entry& e : entries())
        if (e.info.name == name) return e.make();
    throw std::invalid_argument("opt::make_optimizer: unknown optimizer '" +
                                std::string(name) + "' (valid: " +
                                optimizer_names() + ")");
}

std::vector<double> optimizer::evaluate_all(const objective_fn& f,
                                            const std::vector<numeric::vec>& xs) {
    std::vector<double> values(xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i) values[i] = f(xs[i]);
    return values;
}

box_bounds box_bounds::unit(std::size_t k) {
    return {numeric::vec(k, -1.0), numeric::vec(k, 1.0)};
}

void box_bounds::validate() const {
    if (lo.size() != hi.size() || lo.empty())
        throw std::invalid_argument("box_bounds: malformed bounds");
    for (std::size_t i = 0; i < lo.size(); ++i)
        if (!(lo[i] < hi[i]))
            throw std::invalid_argument("box_bounds: lo must be < hi on every axis");
}

numeric::vec box_bounds::clamp(numeric::vec x) const {
    if (x.size() != lo.size())
        throw std::invalid_argument("box_bounds::clamp: dimension mismatch");
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = std::clamp(x[i], lo[i], hi[i]);
    return x;
}

bool box_bounds::contains(const numeric::vec& x, double tol) const {
    if (x.size() != lo.size()) return false;
    for (std::size_t i = 0; i < x.size(); ++i)
        if (x[i] < lo[i] - tol || x[i] > hi[i] + tol) return false;
    return true;
}

numeric::vec box_bounds::random_point(numeric::rng& rng) const {
    numeric::vec x(lo.size());
    for (std::size_t i = 0; i < x.size(); ++i) x[i] = rng.uniform(lo[i], hi[i]);
    return x;
}

}  // namespace ehdse::opt
