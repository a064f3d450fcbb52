// Pinned regressions: one shrunk case per metamorphic invariant, stored
// as a tiny canonical spec document under tests/data/regressions/ and
// replayed straight through the shared oracle — no PRNG anywhere, so a
// failure here is a plain deterministic unit-test failure.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "testkit_oracles.hpp"

namespace tk = ehdse::testkit;

namespace {

ehdse::spec::experiment_spec load_regression(const std::string& name) {
    const std::string path =
        std::string(EHDSE_TEST_DATA_DIR) + "/regressions/" + name;
    std::ifstream in(path);
    if (!in) throw std::runtime_error("missing regression file: " + path);
    std::ostringstream text;
    text << in.rdbuf();
    return ehdse::spec::parse_spec(text.str());
}

// Turns an oracle's property_failure into a readable gtest failure.
#define EHDSE_EXPECT_ORACLE(expr)                           \
    try {                                                   \
        expr;                                               \
    } catch (const std::exception& e) {                     \
        FAIL() << "pinned invariant violated: " << e.what(); \
    }

}  // namespace

TEST(TestkitRegressions, SpecRoundTrip) {
    const auto s = load_regression("roundtrip.json");
    EHDSE_EXPECT_ORACLE(tk::oracles::check_spec_roundtrip(s));
}

TEST(TestkitRegressions, CanonicalIdempotence) {
    const auto s = load_regression("canonical_idempotence.json");
    EHDSE_EXPECT_ORACLE(tk::oracles::check_canonical_idempotence(s));
}

TEST(TestkitRegressions, CacheBitEquality) {
    const auto s = load_regression("cache_bit_equality.json");
    EHDSE_EXPECT_ORACLE(tk::oracles::check_cache_bit_equality(s));
}

TEST(TestkitRegressions, JobsDeterminism) {
    const auto s = load_regression("jobs_determinism.json");
    EHDSE_EXPECT_ORACLE(tk::oracles::check_jobs_determinism(s));
}

TEST(TestkitRegressions, QuadraticExactness) {
    // The pinned spec's design family and optimiser seed select the case.
    const auto s = load_regression("quadratic_exactness.json");
    EHDSE_EXPECT_ORACLE(tk::oracles::check_quadratic_exactness(
        s.flow.design, s.flow.optimizer_seed));
}

TEST(TestkitRegressions, BudgetMonotonicity) {
    const auto s = load_regression("budget_monotonicity.json");
    EHDSE_EXPECT_ORACLE(
        tk::oracles::check_budget_monotonicity(s.flow.optimizer_seed));
}
