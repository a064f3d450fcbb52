// Batch evaluation path: system_evaluator::evaluate_batch (positional
// results, lane independence, scalar fallbacks), the memoising
// cached_evaluator::evaluate_batch (hit/miss accounting, duplicates,
// exception recovery), and run_rsm_flow equivalence with batching on
// vs off.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "dse/batch_envelope_system.hpp"
#include "dse/cached_evaluator.hpp"
#include "dse/rsm_flow.hpp"
#include "harvester/harvester_model.hpp"
#include "harvester/tuning_table.hpp"
#include "obs/metrics.hpp"
#include "obs/run_manifest.hpp"
#include "power/supercapacitor.hpp"
#include "testkit/prng.hpp"

namespace ed = ehdse::dse;

namespace {

/// Two minutes with one frequency step: long enough to transmit and to
/// exercise the tuning controller, fast enough for a unit test.
ed::scenario fast_scenario() {
    ed::scenario s;
    s.duration_s = 120.0;
    s.step_period_s = 50.0;
    s.step_count = 1;
    return s;
}

std::vector<ed::system_config> spread_configs(std::size_t n) {
    std::vector<ed::system_config> configs;
    for (std::size_t i = 0; i < n; ++i) {
        ed::system_config cfg = ed::system_config::original();
        cfg.tx_interval_s += static_cast<double>(i);
        cfg.watchdog_period_s += 10.0 * static_cast<double>(i);
        configs.push_back(cfg);
    }
    return configs;
}

/// Exact equality of the deterministic fields (wall_time_s excluded).
void expect_results_equal(const ed::evaluation_result& a,
                          const ed::evaluation_result& b,
                          const std::string& what) {
    EXPECT_EQ(a.transmissions, b.transmissions) << what;
    EXPECT_EQ(a.suppressed_wakeups, b.suppressed_wakeups) << what;
    EXPECT_EQ(a.events, b.events) << what;
    EXPECT_EQ(a.ode_steps, b.ode_steps) << what;
    EXPECT_EQ(a.final_voltage_v, b.final_voltage_v) << what;
    EXPECT_EQ(a.min_voltage_v, b.min_voltage_v) << what;
    EXPECT_EQ(a.max_voltage_v, b.max_voltage_v) << what;
    EXPECT_EQ(a.harvested_energy_j, b.harvested_energy_j) << what;
    EXPECT_EQ(a.sim_ok, b.sim_ok) << what;
}

/// Cross-kernel equality: integer objectives exact, continuous fields to
/// solver tolerance (the batch kernel's polynomial asin differs from
/// libm at ~1e-9 relative).
void expect_results_close(const ed::evaluation_result& a,
                          const ed::evaluation_result& b,
                          const std::string& what) {
    const auto near = [&](double x, double y, const char* field) {
        EXPECT_NEAR(x, y, 1e-12 + 1e-6 * std::abs(y)) << what << ": " << field;
    };
    EXPECT_EQ(a.transmissions, b.transmissions) << what;
    EXPECT_EQ(a.suppressed_wakeups, b.suppressed_wakeups) << what;
    EXPECT_EQ(a.sim_ok, b.sim_ok) << what;
    near(a.final_voltage_v, b.final_voltage_v, "final_voltage_v");
    near(a.min_voltage_v, b.min_voltage_v, "min_voltage_v");
    near(a.max_voltage_v, b.max_voltage_v, "max_voltage_v");
    near(a.harvested_energy_j, b.harvested_energy_j, "harvested_energy_j");
}

}  // namespace

TEST(EvaluateBatch, MatchesScalarWithinKernelTolerance) {
    const ed::system_evaluator evaluator(fast_scenario());
    const auto configs = spread_configs(5);

    const auto batch = evaluator.evaluate_batch(configs);
    ASSERT_EQ(batch.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const auto scalar = evaluator.evaluate(configs[i]);
        // The batch kernel solves the same envelope fixed point with a
        // polynomial asin, so continuous fields agree to solver tolerance
        // and event counts to a step or two, not bit for bit.
        EXPECT_NEAR(static_cast<double>(batch[i].transmissions),
                    static_cast<double>(scalar.transmissions), 2.0)
            << "lane " << i;
        EXPECT_NEAR(batch[i].final_voltage_v, scalar.final_voltage_v,
                    1e-6 + 1e-3 * std::abs(scalar.final_voltage_v))
            << "lane " << i;
        EXPECT_NEAR(batch[i].harvested_energy_j, scalar.harvested_energy_j,
                    1e-6 + 1e-3 * std::abs(scalar.harvested_energy_j))
            << "lane " << i;
        EXPECT_EQ(batch[i].sim_ok, scalar.sim_ok) << "lane " << i;
    }
}

TEST(EvaluateBatch, LanesCarryTheMeasuredSweepWall) {
    ehdse::obs::metrics_registry registry;
    ehdse::obs::set_global_registry(&registry);
    const ed::system_evaluator evaluator(fast_scenario());
    const auto configs = spread_configs(3);
    const auto batch = evaluator.evaluate_batch(configs);
    const auto scalar = evaluator.evaluate(configs[0]);
    ehdse::obs::set_global_registry(nullptr);

    // Every lane carries the one measured wall of its sweep, whole, with
    // the number of lanes that shared it; a scalar run carries its own.
    for (const auto& r : batch) {
        EXPECT_EQ(r.batch_lanes, 3u);
        EXPECT_EQ(r.wall_time_s, batch.front().wall_time_s);
        EXPECT_GT(r.wall_time_s, 0.0);
    }
    EXPECT_EQ(scalar.batch_lanes, 0u);
    EXPECT_EQ(registry.get_histogram("dse.batch.seconds").count(), 1u);
    EXPECT_EQ(registry.get_histogram("dse.batch.seconds").sum(),
              batch.front().wall_time_s);
    EXPECT_EQ(registry.get_histogram("dse.evaluate.seconds").count(), 1u);
    EXPECT_EQ(registry.get_counter("dse.evaluate.runs").value(), 4u);
    EXPECT_EQ(registry.get_counter("dse.batch.lanes").value(), 3u);

    // The manifest names the sharing only where there was any: a scalar
    // run's record is unchanged.
    ehdse::obs::sim_run_record lane, alone;
    lane.batch_lanes = batch.front().batch_lanes;
    alone.batch_lanes = scalar.batch_lanes;
    ehdse::obs::run_manifest m;
    m.add_sim_run(lane);
    m.add_sim_run(alone);
    const ehdse::obs::json_value doc = m.to_json();
    const auto& runs = doc.at("runs").as_array();
    EXPECT_EQ(runs[0].at("batch_lanes").as_number(), 3.0);
    EXPECT_EQ(runs[1].find("batch_lanes"), nullptr);
}

TEST(BatchEnvelopeSystem, PrimedLanesGiveAFreshSystemsDerivatives) {
    // Each lane's solver state carried across derivatives() calls only
    // warm-starts the envelope solve: a system primed at other states
    // returns bitwise the derivatives a fresh system returns at the same
    // state, whatever the backend and width and whichever lanes the
    // integrator masked off.
    namespace eh = ehdse::harvester;
    const eh::vibration_source vib = fast_scenario().make_vibration();
    const auto storage = std::make_shared<ehdse::power::supercapacitor>();
    ehdse::testkit::prng r(2012);

    for (const eh::harvester_info& info : eh::harvester_registry()) {
        const auto model = eh::make_harvester(info.name);
        // Most lanes sit near the 64 Hz tuning of the first 50 s, so their
        // bridges conduct and their paths get replayed.
        const int tuned = eh::tuning_table(*model).lookup(64.0);

        for (std::size_t width = 1; width <= 16; ++width) {
            ed::batch_envelope_system primed(*model, vib, storage, {}, width);
            ed::batch_envelope_system fresh(*model, vib, storage, {}, width);
            for (std::size_t l = 0; l < width; ++l) {
                const int pos =
                    r.chance(0.75)
                        ? std::clamp(tuned + static_cast<int>(r.integer(-3, 3)),
                                     0, 255)
                        : static_cast<int>(r.integer(0, 255));
                primed.plant(l).set_position(pos);
                fresh.plant(l).set_position(pos);
            }

            // Prime along slow per-lane walks with random masks; now and
            // then a lane jumps, so stale paths fail their check.
            std::vector<double> t(width);
            ehdse::sim::batch_state x(ed::batch_envelope_system::k_state_count,
                                      width);
            ehdse::sim::batch_state dxdt = x;
            std::vector<std::uint8_t> active(width, 1);
            for (std::size_t l = 0; l < width; ++l) {
                t[l] = r.uniform(0.0, 20.0);
                x.set(ed::batch_envelope_system::ix_voltage, l,
                      r.uniform(0.0, 5.0));
                x.set(ed::batch_envelope_system::ix_amplitude, l,
                      r.uniform(0.0, 1e-3));
            }
            for (int call = 0; call < 40; ++call) {
                for (std::size_t l = 0; l < width; ++l) {
                    active[l] = r.chance(0.7) ? 1 : 0;
                    const bool jump = r.chance(0.05);
                    const double v =
                        x.at(ed::batch_envelope_system::ix_voltage, l);
                    x.set(ed::batch_envelope_system::ix_voltage, l,
                          jump ? r.uniform(0.0, 5.0)
                               : std::max(0.0, v + r.uniform(-1e-3, 1e-3)));
                    t[l] += r.uniform(0.0, 0.25);
                }
                primed.derivatives(t, x, dxdt, active);
            }

            for (std::size_t l = 0; l < width; ++l)
                active[l] = r.chance(0.7) ? 1 : 0;
            ehdse::sim::batch_state d_primed = x, d_fresh = x;
            primed.derivatives(t, x, d_primed, active);
            fresh.derivatives(t, x, d_fresh, active);
            for (std::size_t v = 0; v < ed::batch_envelope_system::k_state_count;
                 ++v) {
                for (std::size_t l = 0; l < width; ++l) {
                    if (!active[l]) continue;
                    EXPECT_EQ(std::bit_cast<std::uint64_t>(d_primed.at(v, l)),
                              std::bit_cast<std::uint64_t>(d_fresh.at(v, l)))
                        << info.name << " width " << width << " lane " << l
                        << " var " << v;
                }
            }
        }
    }
}

TEST(EvaluateBatch, ResultsArePositionalAndLaneIndependent) {
    const ed::system_evaluator evaluator(fast_scenario());
    const auto two = spread_configs(2);
    const std::vector<ed::system_config> mixed = {two[0], two[1], two[0]};

    const auto batch = evaluator.evaluate_batch(mixed);
    ASSERT_EQ(batch.size(), 3u);
    // Identical configs in different lanes produce bitwise-identical
    // results, and each lane equals the same config run as a batch of one.
    expect_results_equal(batch[0], batch[2], "duplicate lanes");
    const auto alone = evaluator.evaluate_batch({&mixed[1], 1});
    expect_results_equal(batch[1], alone.front(), "batched vs alone");
}

TEST(EvaluateBatch, ChunksBeyondMaxLanes) {
    const ed::system_evaluator evaluator(fast_scenario());
    const auto configs =
        spread_configs(ed::system_evaluator::k_max_batch_lanes + 4);

    const auto batch = evaluator.evaluate_batch(configs);
    ASSERT_EQ(batch.size(), configs.size());
    // Chunk boundaries are invisible: every lane equals its batch-of-one
    // evaluation regardless of which chunk it landed in.
    for (const std::size_t i :
         {std::size_t{0}, ed::system_evaluator::k_max_batch_lanes - 1,
          ed::system_evaluator::k_max_batch_lanes,
          configs.size() - 1}) {
        const auto alone = evaluator.evaluate_batch({&configs[i], 1});
        expect_results_equal(batch[i], alone.front(),
                             "chunked lane " + std::to_string(i));
    }
}

TEST(EvaluateBatch, FallsBackToScalarForTraces) {
    const ed::system_evaluator evaluator(fast_scenario());
    ed::evaluation_options eval;
    eval.record_traces = true;
    const auto configs = spread_configs(2);

    const auto batch = evaluator.evaluate_batch(configs, eval);
    ASSERT_EQ(batch.size(), 2u);
    for (std::size_t i = 0; i < batch.size(); ++i) {
        ASSERT_TRUE(batch[i].voltage_trace.has_value()) << "lane " << i;
        // The fallback IS the scalar path, so equality is bitwise here.
        expect_results_equal(batch[i], evaluator.evaluate(configs[i], eval),
                             "traced lane " + std::to_string(i));
    }
}

TEST(EvaluateBatch, FallsBackToScalarForTransientFidelity) {
    ed::scenario s = fast_scenario();
    s.duration_s = 20.0;  // transient runs resolve the carrier — keep short
    s.step_count = 0;
    const ed::system_evaluator evaluator(s);
    ed::evaluation_options eval;
    eval.model = ed::fidelity::transient;
    const auto configs = spread_configs(2);

    const auto batch = evaluator.evaluate_batch(configs, eval);
    ASSERT_EQ(batch.size(), 2u);
    for (std::size_t i = 0; i < batch.size(); ++i)
        expect_results_equal(batch[i], evaluator.evaluate(configs[i], eval),
                             "transient lane " + std::to_string(i));
}

TEST(CachedEvaluatorBatch, MissesOnceThenHits) {
    const ed::system_evaluator inner(fast_scenario());
    const ed::cached_evaluator cache(inner);
    const auto configs = spread_configs(4);

    const auto first = cache.evaluate_batch(configs);
    EXPECT_EQ(cache.stats().misses, 4u);
    EXPECT_EQ(cache.stats().hits, 0u);
    EXPECT_EQ(inner.runs(), 4u);

    const auto second = cache.evaluate_batch(configs);
    EXPECT_EQ(cache.stats().misses, 4u);
    EXPECT_EQ(cache.stats().hits, 4u);
    EXPECT_EQ(inner.runs(), 4u);  // nothing re-simulated
    for (std::size_t i = 0; i < configs.size(); ++i)
        expect_results_equal(first[i], second[i],
                             "hit lane " + std::to_string(i));

    // The scalar path shares the same entries.
    const auto scalar = cache.evaluate(configs[2]);
    EXPECT_EQ(cache.stats().hits, 5u);
    expect_results_equal(first[2], scalar, "scalar hit on batch entry");
}

TEST(CachedEvaluatorBatch, DuplicatesWithinOneBatchSimulateOnce) {
    const ed::system_evaluator inner(fast_scenario());
    const ed::cached_evaluator cache(inner);
    const auto two = spread_configs(2);
    const std::vector<ed::system_config> mixed = {two[0], two[1], two[0],
                                                  two[0]};

    const auto results = cache.evaluate_batch(mixed);
    ASSERT_EQ(results.size(), 4u);
    // Two distinct keys simulate; the repeats join the first lane's
    // future inside the same call.
    EXPECT_EQ(inner.runs(), 2u);
    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_EQ(cache.stats().hits, 2u);
    EXPECT_EQ(cache.stats().entries, 2u);
    expect_results_equal(results[0], results[2], "duplicate joins future");
    expect_results_equal(results[0], results[3], "duplicate joins future");
}

namespace {

/// Throws on the first batch, works from the second on — exercises the
/// cache's error path: waiters get the exception, entries are removed, a
/// retry re-simulates.
class flaky_once_evaluator final : public ed::system_evaluator {
public:
    using ed::system_evaluator::system_evaluator;

    std::vector<ed::evaluation_result> evaluate_batch(
        std::span<const ed::system_config> configs,
        const ed::evaluation_options& options = {}) const override {
        if (!failed_) {
            failed_ = true;
            throw std::runtime_error("injected batch failure");
        }
        return ed::system_evaluator::evaluate_batch(configs, options);
    }

private:
    mutable bool failed_ = false;
};

}  // namespace

TEST(CachedEvaluatorBatch, ExceptionEvictsEntriesAndRetrySucceeds) {
    const flaky_once_evaluator inner(fast_scenario());
    const ed::cached_evaluator cache(inner);
    const auto configs = spread_configs(3);

    EXPECT_THROW(cache.evaluate_batch(configs), std::runtime_error);
    // Failed entries must not poison the cache: nothing retained, and the
    // identical request re-simulates instead of rethrowing a stored error.
    EXPECT_EQ(cache.stats().entries, 0u);
    const auto retry = cache.evaluate_batch(configs);
    ASSERT_EQ(retry.size(), configs.size());
    for (const auto& r : retry) EXPECT_TRUE(r.sim_ok);
    EXPECT_EQ(cache.stats().entries, 3u);
}

TEST(FlowBatch, BatchingOnAndOffProduceTheSameFlow) {
    const ed::system_evaluator evaluator(fast_scenario());

    const auto run = [&](std::size_t width, ehdse::obs::run_manifest* m) {
        ed::flow_options opts;
        opts.doe_runs = 10;
        opts.batch_width = width;
        opts.manifest = m;
        return ed::run_rsm_flow(evaluator, opts);
    };

    ehdse::obs::run_manifest with_m, without_m;
    const auto with = run(16, &with_m);
    const auto without = run(0, &without_m);

    // Same design, same responses, same optimum: batch_width is a runtime
    // execution knob, invisible in every recorded objective.
    ASSERT_EQ(with.responses.size(), without.responses.size());
    for (std::size_t i = 0; i < with.responses.size(); ++i)
        EXPECT_EQ(with.responses[i], without.responses[i]) << "point " << i;
    expect_results_close(with.original_eval, without.original_eval,
                         "baseline");
    ASSERT_EQ(with.outcomes.size(), without.outcomes.size());
    for (std::size_t i = 0; i < with.outcomes.size(); ++i) {
        EXPECT_EQ(with.outcomes[i].name, without.outcomes[i].name);
        expect_results_close(with.outcomes[i].validated,
                             without.outcomes[i].validated,
                             "outcome " + with.outcomes[i].name);
    }

    // The manifests key the same experiment: batch_width is absent from
    // the canonical spec, so both runs stamp the identical spec_hash.
    const auto hash_of = [](const ehdse::obs::run_manifest& m) {
        const std::string dump = m.to_json().dump();
        const auto pos = dump.find("\"spec_hash\"");
        EXPECT_NE(pos, std::string::npos);
        return dump.substr(pos, 40);
    };
    EXPECT_EQ(hash_of(with_m), hash_of(without_m));
}
