// Memoising evaluator: hit/miss accounting, canonical keying (no
// collisions across any observable config/option field, shared entries
// for canonically equivalent requests), single-flight concurrency, LRU
// eviction, and obs integration.
#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>
#include <vector>

#include "dse/cached_evaluator.hpp"
#include "dse/rsm_flow.hpp"
#include "obs/metrics.hpp"
#include "obs/run_manifest.hpp"
#include "opt/simulated_annealing.hpp"

namespace ed = ehdse::dse;

namespace {

/// Two minutes of simulated time: long enough to transmit, fast to run.
ed::scenario fast_scenario() {
    ed::scenario s;
    s.duration_s = 120.0;
    s.step_period_s = 50.0;
    s.step_count = 1;
    return s;
}

}  // namespace

TEST(CachedEvaluator, SecondEvaluationHitsCache) {
    ed::system_evaluator inner(fast_scenario());
    ed::cached_evaluator cache(inner);
    const ed::system_config cfg = ed::system_config::original();

    const auto first = cache.evaluate(cfg);
    const auto second = cache.evaluate(cfg);

    EXPECT_EQ(inner.runs(), 1u);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().entries, 1u);
    EXPECT_DOUBLE_EQ(cache.stats().hit_rate(), 0.5);
    EXPECT_EQ(first.transmissions, second.transmissions);
    EXPECT_DOUBLE_EQ(first.final_voltage_v, second.final_voltage_v);
}

// Every OBSERVABLE field of system_config and evaluation_options
// participates in the key (spec::evaluation_request_hash over the
// canonical forms): perturbing any single one in a configuration where
// the run can see it must be a miss, never a collision — seeds,
// fidelities and effective front-ends never alias.
TEST(CachedEvaluator, DistinctKeysNeverCollide) {
    ed::system_evaluator inner(fast_scenario());
    ed::cached_evaluator cache(inner);

    const ed::system_config base_cfg = ed::system_config::original();
    const ed::evaluation_options base_eval;
    cache.evaluate(base_cfg, base_eval);

    std::uint64_t expected_misses = 1;
    const auto expect_miss = [&](const ed::system_config& cfg,
                                 const ed::evaluation_options& eval,
                                 const char* what) {
        cache.evaluate(cfg, eval);
        ++expected_misses;
        EXPECT_EQ(cache.stats().misses, expected_misses) << what;
        EXPECT_EQ(cache.stats().hits, 0u) << what;
    };

    {
        auto cfg = base_cfg;
        cfg.mcu_clock_hz *= 2.0;
        expect_miss(cfg, base_eval, "mcu_clock_hz");
    }
    {
        auto cfg = base_cfg;
        cfg.watchdog_period_s += 1.0;
        expect_miss(cfg, base_eval, "watchdog_period_s");
    }
    {
        auto cfg = base_cfg;
        cfg.tx_interval_s += 0.5;
        expect_miss(cfg, base_eval, "tx_interval_s");
    }
    {
        auto eval = base_eval;
        eval.controller_seed += 1;
        expect_miss(base_cfg, eval, "controller_seed");
    }
    {
        auto eval = base_eval;
        eval.record_traces = true;
        expect_miss(base_cfg, eval, "record_traces");
    }
    {
        // Observable only while tracing is on.
        auto eval = base_eval;
        eval.record_traces = true;
        eval.trace_interval_s *= 2.0;
        expect_miss(base_cfg, eval, "trace_interval_s");
    }
    {
        auto eval = base_eval;
        eval.model = ed::fidelity::transient;
        expect_miss(base_cfg, eval, "model");
    }
    {
        auto eval = base_eval;
        eval.frontend = ed::frontend_kind::mppt;
        expect_miss(base_cfg, eval, "frontend");
    }
    {
        // Observable only under the mppt front-end.
        auto eval = base_eval;
        eval.frontend = ed::frontend_kind::mppt;
        eval.frontend_efficiency = 0.5;
        expect_miss(base_cfg, eval, "frontend_efficiency");
    }
    EXPECT_EQ(inner.runs(), expected_misses);
}

// The complement of DistinctKeysNeverCollide: requests differing only in
// a field the run cannot observe canonicalise to the same key and share
// one simulation.
TEST(CachedEvaluator, EquivalentRequestsShareAnEntry) {
    ed::system_evaluator inner(fast_scenario());
    ed::cached_evaluator cache(inner);
    const ed::system_config cfg = ed::system_config::original();

    std::uint64_t expected_hits = 0;
    const auto expect_hit = [&](const ed::evaluation_options& a,
                                const ed::evaluation_options& b,
                                const char* what) {
        cache.evaluate(cfg, a);
        cache.evaluate(cfg, b);
        ++expected_hits;
        EXPECT_EQ(cache.stats().hits, expected_hits) << what;
    };

    {
        // Trace interval is inert while tracing is off.
        ed::evaluation_options a;
        a.controller_seed = 201;  // distinct base key per block
        ed::evaluation_options b = a;
        b.trace_interval_s = a.trace_interval_s * 4.0;
        expect_hit(a, b, "trace_interval_s with tracing off");
    }
    {
        // Mppt efficiency is inert behind the diode bridge.
        ed::evaluation_options a;
        a.controller_seed = 202;
        a.frontend = ed::frontend_kind::diode_bridge;
        ed::evaluation_options b = a;
        b.frontend_efficiency = 0.5;
        expect_hit(a, b, "frontend_efficiency under diode_bridge");
    }
    {
        // The transient model always resolves the physical bridge, so the
        // front-end selection (and its efficiency) is inert.
        ed::evaluation_options a;
        a.controller_seed = 203;
        a.model = ed::fidelity::transient;
        ed::evaluation_options b = a;
        b.frontend = ed::frontend_kind::mppt;
        b.frontend_efficiency = 0.3;
        expect_hit(a, b, "frontend under transient fidelity");
    }
    EXPECT_EQ(inner.runs(), cache.stats().misses);
}

// Eight threads race over two distinct keys: single-flight means exactly
// one simulation per key, with every other request served as a hit.
TEST(CachedEvaluator, ConcurrentLookupsAreSingleFlight) {
    ed::system_evaluator inner(fast_scenario());
    ed::cached_evaluator cache(inner);
    const ed::system_config cfg = ed::system_config::original();

    std::vector<std::thread> threads;
    std::vector<std::uint64_t> tx(8, 0);
    for (int t = 0; t < 8; ++t)
        threads.emplace_back([&, t] {
            ed::evaluation_options eval;
            eval.controller_seed = 100 + static_cast<std::uint64_t>(t % 2);
            tx[static_cast<std::size_t>(t)] =
                cache.evaluate(cfg, eval).transmissions;
        });
    for (auto& th : threads) th.join();

    EXPECT_EQ(inner.runs(), 2u);
    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_EQ(cache.stats().hits, 6u);
    // Same key -> same result object, across threads.
    for (int t = 2; t < 8; ++t)
        EXPECT_EQ(tx[static_cast<std::size_t>(t)],
                  tx[static_cast<std::size_t>(t % 2)]);
}

TEST(CachedEvaluator, EvictsLeastRecentlyUsed) {
    ed::system_evaluator inner(fast_scenario());
    ed::cached_evaluator cache(inner, 2);
    const ed::system_config cfg = ed::system_config::original();

    ed::evaluation_options a, b, c;
    a.controller_seed = 1;
    b.controller_seed = 2;
    c.controller_seed = 3;

    cache.evaluate(cfg, a);
    cache.evaluate(cfg, b);
    cache.evaluate(cfg, a);  // touch a: b becomes the LRU entry
    cache.evaluate(cfg, c);  // evicts b

    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.stats().entries, 2u);

    cache.evaluate(cfg, a);  // still cached
    EXPECT_EQ(cache.stats().hits, 2u);
    cache.evaluate(cfg, b);  // evicted: re-runs the simulation
    EXPECT_EQ(inner.runs(), 4u);
}

TEST(CachedEvaluator, ZeroCapacityRejected) {
    ed::system_evaluator inner(fast_scenario());
    EXPECT_THROW(ed::cached_evaluator(inner, 0), std::invalid_argument);
}

TEST(CachedEvaluator, ClearKeepsTotalsDropsEntries) {
    ed::system_evaluator inner(fast_scenario());
    ed::cached_evaluator cache(inner);
    const ed::system_config cfg = ed::system_config::original();
    cache.evaluate(cfg);
    cache.evaluate(cfg);

    cache.clear();
    EXPECT_EQ(cache.stats().entries, 0u);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);

    cache.evaluate(cfg);  // re-simulates after clear
    EXPECT_EQ(inner.runs(), 2u);
}

// Optimiser revisits reach the cache through the flow: two identically
// seeded optimisers produce bitwise-identical optima, so the second
// validation must be a hit, and the manifest must say so.
TEST(CachedEvaluator, FlowOptimiserRevisitsHitCache) {
    ed::scenario s = fast_scenario();
    s.duration_s = 600.0;
    ed::system_evaluator ev(s);

    ehdse::obs::run_manifest manifest;
    ed::flow_options opts;
    opts.manifest = &manifest;
    opts.optimizers = {std::make_shared<ehdse::opt::simulated_annealing>(),
                       std::make_shared<ehdse::opt::simulated_annealing>()};
    const auto r = ed::run_rsm_flow(ev, opts);

    EXPECT_GT(r.cache.hits, 0u);
    EXPECT_GT(r.cache.hit_rate(), 0.0);
    EXPECT_EQ(r.outcomes[0].validated.transmissions,
              r.outcomes[1].validated.transmissions);
    EXPECT_NE(manifest.to_json().dump().find("cache_hits"), std::string::npos);
}

TEST(CachedEvaluator, StatsLandInMetricsSnapshot) {
    ehdse::obs::metrics_registry registry;
    ehdse::obs::set_global_registry(&registry);
    ed::system_evaluator inner(fast_scenario());
    ed::cached_evaluator cache(inner, 1);
    ehdse::obs::set_global_registry(nullptr);

    const ed::system_config cfg = ed::system_config::original();
    ed::evaluation_options other;
    other.controller_seed = 99;
    cache.evaluate(cfg);
    cache.evaluate(cfg);
    cache.evaluate(cfg, other);  // capacity 1: evicts the first entry

    EXPECT_EQ(registry.get_counter("dse.cache.hits").value(), 1u);
    EXPECT_EQ(registry.get_counter("dse.cache.misses").value(), 2u);
    EXPECT_EQ(registry.get_counter("dse.cache.evictions").value(), 1u);
    EXPECT_DOUBLE_EQ(registry.get_gauge("dse.cache.size").value(), 1.0);

    // The snapshot serialises cleanly into a manifest metrics block.
    const auto json = registry.to_json().dump();
    EXPECT_NE(json.find("dse.cache.hits"), std::string::npos);
}
