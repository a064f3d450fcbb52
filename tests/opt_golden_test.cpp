// Golden bit-identity fixture of the flow's optimise leg: simulated
// annealing and the genetic algorithm, at their default options, maximise
// the paper's eq. (9) surface through rsm::quadratic_model::predict from
// the flow's default optimiser seed. Every field of each outcome is
// pinned, the best-so-far trajectory included, with doubles as hex
// floats: speed work on the optimisers or on predict() must leave every
// bit alone.
//
// On a mismatch the test writes the full actual dump into its working
// directory (opt_golden.actual.txt) so it can be diffed against the
// fixture.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "dse/rsm_flow.hpp"
#include "opt/genetic_algorithm.hpp"
#include "opt/simulated_annealing.hpp"
#include "rsm/quadratic_model.hpp"

namespace eo = ehdse::opt;

namespace {

const char* const k_fixture = EHDSE_TEST_DATA_DIR "/golden/optimise_eq9.txt";

std::string hex(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
}

/// One `<algorithm>.<field> <value>` line per field of the outcome.
void dump(std::ostream& os, const eo::opt_result& r) {
    const auto line = [&](const std::string& field, const auto& value) {
        os << r.algorithm << '.' << field << ' ' << value << '\n';
    };
    for (std::size_t i = 0; i < r.best_x.size(); ++i)
        line("best_x[" + std::to_string(i) + "]", hex(r.best_x[i]));
    line("best_value", hex(r.best_value));
    line("evaluations", r.evaluations);
    line("iterations", r.iterations);
    line("proposed_moves", r.proposed_moves);
    line("accepted_moves", r.accepted_moves);
    line("converged", r.converged ? "true" : "false");
    for (std::size_t i = 0; i < r.trajectory.size(); ++i)
        line("trajectory[" + std::to_string(i) + "]", hex(r.trajectory[i]));
}

}  // namespace

TEST(OptimiseGolden, AnnealingAndGeneticRunsMatchTheFixture) {
    const ehdse::rsm::quadratic_model eq9(
        3, {484.02, -121.79, -16.77, -208.43, 120.98, 106.69, -69.75, -34.23,
            -121.79, 32.54});
    const eo::objective_fn surface = [&](const ehdse::numeric::vec& x) {
        return eq9.predict(x);
    };
    const eo::box_bounds bounds = eo::box_bounds::unit(3);
    const std::vector<std::shared_ptr<eo::optimizer>> optimizers = {
        std::make_shared<eo::simulated_annealing>(),
        std::make_shared<eo::genetic_algorithm>()};

    std::ostringstream actual;
    for (const auto& optimizer : optimizers) {
        ehdse::numeric::rng rng(ehdse::dse::flow_options{}.optimizer_seed);
        dump(actual, optimizer->maximize(surface, bounds, rng));
    }

    std::ifstream in(k_fixture);
    ASSERT_TRUE(in) << "missing fixture " << k_fixture;
    std::stringstream expected;
    expected << in.rdbuf();
    if (actual.str() == expected.str()) return;

    std::ofstream("opt_golden.actual.txt") << actual.str();
    std::istringstream a(actual.str()), e(expected.str());
    std::string la, le;
    std::size_t line = 0;
    while (true) {
        const bool more_a = static_cast<bool>(std::getline(a, la));
        const bool more_e = static_cast<bool>(std::getline(e, le));
        ++line;
        if (!more_a && !more_e) break;
        if (!more_a || !more_e || la != le) {
            ADD_FAILURE() << "line " << line << ": expected '" << le
                          << "', got '" << la
                          << "' (full dump in opt_golden.actual.txt)";
            break;
        }
    }
}
