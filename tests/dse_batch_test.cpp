// Batch evaluation path: system_evaluator::evaluate_batch (positional
// results, lane independence, bitwise equality with evaluate(), scalar
// fallbacks), and run_rsm_flow's design points, each its own evaluate()
// call, against a fresh per-config evaluate().
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "dse/batch_envelope_system.hpp"
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

/// Exact equality of every deterministic field (wall_time_s and
/// batch_lanes describe the run, not its result).
void expect_results_equal(const ed::evaluation_result& a,
                          const ed::evaluation_result& b,
                          const std::string& what) {
    EXPECT_EQ(a.transmissions, b.transmissions) << what;
    EXPECT_EQ(a.suppressed_wakeups, b.suppressed_wakeups) << what;
    EXPECT_EQ(a.low_band_transmissions, b.low_band_transmissions) << what;
    EXPECT_EQ(a.tuning.wakeups, b.tuning.wakeups) << what;
    EXPECT_EQ(a.tuning.low_energy_skips, b.tuning.low_energy_skips) << what;
    EXPECT_EQ(a.tuning.measurements, b.tuning.measurements) << what;
    EXPECT_EQ(a.tuning.position_matches, b.tuning.position_matches) << what;
    EXPECT_EQ(a.tuning.coarse_tunings, b.tuning.coarse_tunings) << what;
    EXPECT_EQ(a.tuning.coarse_steps, b.tuning.coarse_steps) << what;
    EXPECT_EQ(a.tuning.fine_iterations, b.tuning.fine_iterations) << what;
    EXPECT_EQ(a.tuning.fine_steps, b.tuning.fine_steps) << what;
    EXPECT_EQ(a.tuning.fine_converged, b.tuning.fine_converged) << what;
    EXPECT_EQ(a.events, b.events) << what;
    EXPECT_EQ(a.ode_steps, b.ode_steps) << what;
    EXPECT_EQ(a.ode_steps_rejected, b.ode_steps_rejected) << what;
    EXPECT_EQ(a.final_voltage_v, b.final_voltage_v) << what;
    EXPECT_EQ(a.min_voltage_v, b.min_voltage_v) << what;
    EXPECT_EQ(a.max_voltage_v, b.max_voltage_v) << what;
    EXPECT_EQ(a.harvested_energy_j, b.harvested_energy_j) << what;
    EXPECT_EQ(a.sustained_load_energy_j, b.sustained_load_energy_j) << what;
    EXPECT_EQ(a.withdrawn_energy_j, b.withdrawn_energy_j) << what;
    EXPECT_EQ(a.ledger.accounts(), b.ledger.accounts()) << what;
    EXPECT_EQ(a.sim_ok, b.sim_ok) << what;
}

}  // namespace

TEST(EvaluateBatch, MatchesScalarBitForBit) {
    // Every lane of a batch is the scalar evaluate() of its config, for
    // both registered backends and both envelope front-ends.
    for (const char* harvester : {"electromagnetic", "electrostatic"}) {
        const ed::system_evaluator evaluator(
            fast_scenario(), ehdse::spec::harvester_spec{harvester});
        const auto configs = spread_configs(5);
        for (const ed::frontend_kind frontend :
             {ed::frontend_kind::diode_bridge, ed::frontend_kind::mppt}) {
            ed::evaluation_options eval;
            eval.frontend = frontend;
            const auto batch = evaluator.evaluate_batch(configs, eval);
            ASSERT_EQ(batch.size(), configs.size());
            for (std::size_t i = 0; i < configs.size(); ++i)
                expect_results_equal(
                    batch[i], evaluator.evaluate(configs[i], eval),
                    std::string(harvester) + " front-end " +
                        std::to_string(static_cast<int>(frontend)) + " lane " +
                        std::to_string(i));
        }
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

namespace {

/// Keeps every result the flow gets from evaluate(), by config, to hold
/// them against a fresh evaluator's evaluate().
class recording_evaluator final : public ed::system_evaluator {
public:
    using ed::system_evaluator::system_evaluator;

    ed::evaluation_result evaluate(
        const ed::system_config& config,
        const ed::evaluation_options& options = {}) const override {
        ed::evaluation_result result =
            ed::system_evaluator::evaluate(config, options);
        const std::lock_guard<std::mutex> lock(mutex_);
        calls_.emplace_back(config, result);
        return result;
    }

    std::vector<std::pair<ed::system_config, ed::evaluation_result>> calls()
        const {
        const std::lock_guard<std::mutex> lock(mutex_);
        return calls_;
    }

private:
    mutable std::mutex mutex_;
    mutable std::vector<std::pair<ed::system_config, ed::evaluation_result>>
        calls_;
};

}  // namespace

TEST(FlowBatch, BatchingOnAndOffProduceTheSameFlow) {
    // The simulate phase runs each design point as its own evaluate() task
    // (over a 3-worker pool here), with or without a pool; the result each
    // call returned, and so each response the surface is fitted to, is the
    // per-config evaluate() of a fresh evaluator, bit for bit.
    const recording_evaluator evaluator(fast_scenario());
    ed::flow_options opts;
    opts.doe_runs = 10;
    opts.parallel = true;
    opts.jobs = 3;
    const ed::flow_result flow = ed::run_rsm_flow(evaluator, opts);

    // Every simulation the flow cache missed reached evaluate().
    const auto calls = evaluator.calls();
    ASSERT_EQ(calls.size(), flow.cache.misses);
    const ed::system_evaluator plain(fast_scenario());
    for (std::size_t i = 0; i < flow.design_configs.size(); ++i) {
        const ed::system_config& config = flow.design_configs[i];
        const auto call = std::find_if(
            calls.begin(), calls.end(),
            [&](const auto& entry) { return entry.first == config; });
        ASSERT_NE(call, calls.end()) << "design point " << i;
        const ed::evaluation_result alone = plain.evaluate(config);
        expect_results_equal(call->second, alone,
                             "design point " + std::to_string(i));
        EXPECT_EQ(call->second.batch_lanes, 0u) << "design point " << i;
        EXPECT_EQ(flow.responses[i],
                  static_cast<double>(alone.transmissions))
            << "design point " << i;
    }
}
