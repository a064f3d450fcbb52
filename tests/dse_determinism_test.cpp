// Bitwise determinism of the flow under the execution engine: the same
// seed must produce identical responses, fit coefficients, and Table VI
// numbers whether the flow runs sequentially, on an owned pool of any
// size, on an external pool (also from one of that pool's own workers),
// or with the memoisation cache on or off.
#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <string>
#include <vector>

#include "dse/rsm_flow.hpp"
#include "exec/thread_pool.hpp"
#include "opt/simulated_annealing.hpp"
#include "rsm/quadratic_model.hpp"
#include "testkit_oracles.hpp"

namespace ed = ehdse::dse;
namespace tk = ehdse::testkit;

namespace {

ed::scenario flow_scenario() {
    ed::scenario s;
    s.duration_s = 1200.0;
    s.step_period_s = 500.0;
    s.step_count = 2;
    return s;
}

/// Every deterministic field of two simulations, compared exactly.
void expect_bit_equal(const ed::evaluation_result& a,
                      const ed::evaluation_result& b, const std::string& what) {
    try {
        tk::oracles::require_results_bit_equal(a, b, what);
    } catch (const tk::property_failure& e) {
        ADD_FAILURE() << e.what();
    }
}

void expect_same_outcome(const ed::optimizer_outcome& oa,
                         const ed::optimizer_outcome& ob) {
    EXPECT_EQ(oa.name, ob.name);
    EXPECT_EQ(oa.coded, ob.coded) << oa.name;
    EXPECT_EQ(oa.predicted, ob.predicted) << oa.name;
    EXPECT_EQ(oa.evaluations, ob.evaluations) << oa.name;
    EXPECT_EQ(oa.details.trajectory, ob.details.trajectory) << oa.name;
    EXPECT_EQ(oa.config.mcu_clock_hz, ob.config.mcu_clock_hz) << oa.name;
    EXPECT_EQ(oa.config.watchdog_period_s, ob.config.watchdog_period_s)
        << oa.name;
    EXPECT_EQ(oa.config.tx_interval_s, ob.config.tx_interval_s) << oa.name;
    expect_bit_equal(oa.validated, ob.validated, oa.name + " validation");
}

/// Exact equality (operator==, no ULP slack) across everything Table VI
/// reports plus the fitted surface itself; the baseline and every
/// validation are compared in every deterministic field.
void expect_identical(const ed::flow_result& a, const ed::flow_result& b) {
    EXPECT_EQ(a.responses, b.responses);

    const ehdse::rsm::fit_result* fa = a.fit.quadratic();
    const ehdse::rsm::fit_result* fb = b.fit.quadratic();
    ASSERT_NE(fa, nullptr);
    ASSERT_NE(fb, nullptr);
    EXPECT_EQ(fa->model.coefficients(), fb->model.coefficients());
    EXPECT_EQ(a.fit.r_squared, b.fit.r_squared);

    expect_bit_equal(a.original_eval, b.original_eval, "baseline");

    ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
    for (std::size_t i = 0; i < a.outcomes.size(); ++i)
        expect_same_outcome(a.outcomes[i], b.outcomes[i]);
}

const ed::flow_result& sequential_flow() {
    static const ed::flow_result result = [] {
        ed::system_evaluator ev(flow_scenario());
        return ed::run_rsm_flow(ev, {});
    }();
    return result;
}

}  // namespace

TEST(Determinism, ParallelJobsMatchSequential) {
    ed::system_evaluator ev(flow_scenario());
    for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
        ed::flow_options opts;
        opts.parallel = true;
        opts.jobs = jobs;
        const auto parallel = ed::run_rsm_flow(ev, opts);
        SCOPED_TRACE("jobs=" + std::to_string(jobs));
        expect_identical(sequential_flow(), parallel);
    }
}

TEST(Determinism, ExternalPoolMatchesSequential) {
    ed::system_evaluator ev(flow_scenario());
    ehdse::exec::thread_pool pool(3);
    ed::flow_options opts;
    opts.pool = &pool;  // engages the pool even without `parallel`
    const auto result = ed::run_rsm_flow(ev, opts);
    expect_identical(sequential_flow(), result);
}

TEST(Determinism, FlowsOnEveryWorkerOfTheirOwnPoolMatchSequential) {
    // As ehdsed runs flows: each flow is a task of the pool it is lent.
    // With every worker running a flow, no worker is left to take a nested
    // task, so each flow must run its phases inline on its own worker
    // (a deadlock here ends at the ctest timeout).
    ed::system_evaluator ev(flow_scenario());
    ehdse::exec::thread_pool pool(2);
    ed::flow_options opts;
    opts.pool = &pool;
    std::vector<std::future<ed::flow_result>> flows;
    for (std::size_t i = 0; i < pool.size(); ++i)
        flows.push_back(
            pool.submit_future([&] { return ed::run_rsm_flow(ev, opts); }));
    for (auto& flow : flows) expect_identical(sequential_flow(), flow.get());
}

TEST(Determinism, OneOptimiserListedTwiceMatchesSequential) {
    // One instance listed twice runs as two concurrent tasks; each seeds
    // its own rng, so both outcomes are the sequential flow's annealing.
    ed::system_evaluator ev(flow_scenario());
    ehdse::exec::thread_pool pool(3);
    const auto sa = std::make_shared<ehdse::opt::simulated_annealing>();
    ed::flow_options opts;
    opts.pool = &pool;
    opts.optimizers = {sa, sa};
    const auto result = ed::run_rsm_flow(ev, opts);
    EXPECT_EQ(result.responses, sequential_flow().responses);
    expect_bit_equal(result.original_eval, sequential_flow().original_eval,
                     "baseline");
    ASSERT_EQ(result.outcomes.size(), 2u);
    for (const ed::optimizer_outcome& outcome : result.outcomes)
        expect_same_outcome(sequential_flow().outcomes.front(), outcome);
}

TEST(Determinism, CacheDoesNotChangeResults) {
    ed::system_evaluator ev(flow_scenario());
    ed::flow_options no_cache;
    no_cache.cache = false;
    const auto uncached = ed::run_rsm_flow(ev, no_cache);
    expect_identical(sequential_flow(), uncached);
    // The default (cached) flow never misses the simulate-phase points.
    EXPECT_GT(sequential_flow().cache.misses, 0u);
    EXPECT_EQ(uncached.cache.misses, 0u);
}

TEST(Determinism, ReplicatedFlowsMatchAcrossModes) {
    ed::system_evaluator ev(flow_scenario());
    ed::flow_options seq, par;
    seq.replicates = par.replicates = 2;
    par.parallel = true;
    par.jobs = 4;
    const auto a = ed::run_rsm_flow(ev, seq);
    const auto b = ed::run_rsm_flow(ev, par);
    expect_identical(a, b);
    EXPECT_EQ(a.responses.size(), 20u);
}
