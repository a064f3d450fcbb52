// Shared metamorphic / differential oracles: each function checks ONE
// cross-layer invariant for one concrete input and throws
// testkit::property_failure (via require) when it is violated. The
// property suites run them over ~10^2 generated cases; the regression
// suite replays each one on a pinned shrunk case from
// tests/data/regressions/ — same oracle code, no PRNG.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "doe/design.hpp"
#include "dse/cached_evaluator.hpp"
#include "dse/rsm_flow.hpp"
#include "dse/system_evaluator.hpp"
#include "numeric/rng.hpp"
#include "opt/genetic_algorithm.hpp"
#include "opt/optimizer.hpp"
#include "opt/simulated_annealing.hpp"
#include "rsm/quadratic_model.hpp"
#include "rsm/surrogate.hpp"
#include "spec/json_codec.hpp"
#include "spec/spec_hash.hpp"
#include "testkit/generators.hpp"
#include "testkit/property.hpp"

namespace ehdse::testkit::oracles {

// --- spec layer ------------------------------------------------------------

/// serialise -> parse recovers the identical spec; re-serialising the
/// parsed spec is byte-identical (the golden-file guarantee).
inline void check_spec_roundtrip(const spec::experiment_spec& s) {
    const std::string text = spec::to_json(s).dump();
    const spec::experiment_spec parsed = spec::parse_spec(text);
    require(parsed == s, "parse(serialise(spec)) != spec");
    require(spec::to_json(parsed).dump() == text,
            "serialise -> parse -> serialise is not byte-identical");
}

/// canonicalized() is idempotent, valid, and hash-stable across a JSON
/// round trip.
inline void check_canonical_idempotence(const spec::experiment_spec& s) {
    const spec::experiment_spec c1 = s.canonicalized();
    const spec::experiment_spec c2 = c1.canonicalized();
    require(c1 == c2, "canonicalized() is not idempotent");
    c1.validate();  // canonicalisation must never invalidate a valid spec
    require(spec::spec_hash(c1) == spec::spec_hash(c2),
            "idempotent canonical forms hash differently");
    const spec::experiment_spec parsed =
        spec::parse_spec(spec::to_json(s).dump());
    require(spec::spec_hash(s) == spec::spec_hash(parsed),
            "spec_hash changed across a JSON round trip");
}

// --- evaluator / cache -----------------------------------------------------

/// Exact equality of every deterministic field of two evaluation results
/// (wall_time_s and batch_lanes describe the run, not its result; traces
/// are compared where they are recorded).
inline void require_results_bit_equal(const dse::evaluation_result& a,
                                      const dse::evaluation_result& b,
                                      const std::string& what) {
    const auto eq = [&](bool ok, const char* field) {
        if (!ok) fail(what + ": field '" + field + "' differs");
    };
    eq(a.transmissions == b.transmissions, "transmissions");
    eq(a.suppressed_wakeups == b.suppressed_wakeups, "suppressed_wakeups");
    eq(a.low_band_transmissions == b.low_band_transmissions,
       "low_band_transmissions");
    eq(a.tuning.wakeups == b.tuning.wakeups, "tuning.wakeups");
    eq(a.tuning.low_energy_skips == b.tuning.low_energy_skips,
       "tuning.low_energy_skips");
    eq(a.tuning.measurements == b.tuning.measurements, "tuning.measurements");
    eq(a.tuning.position_matches == b.tuning.position_matches,
       "tuning.position_matches");
    eq(a.tuning.coarse_tunings == b.tuning.coarse_tunings,
       "tuning.coarse_tunings");
    eq(a.tuning.coarse_steps == b.tuning.coarse_steps, "tuning.coarse_steps");
    eq(a.tuning.fine_iterations == b.tuning.fine_iterations,
       "tuning.fine_iterations");
    eq(a.tuning.fine_steps == b.tuning.fine_steps, "tuning.fine_steps");
    eq(a.tuning.fine_converged == b.tuning.fine_converged,
       "tuning.fine_converged");
    eq(a.final_voltage_v == b.final_voltage_v, "final_voltage_v");
    eq(a.min_voltage_v == b.min_voltage_v, "min_voltage_v");
    eq(a.max_voltage_v == b.max_voltage_v, "max_voltage_v");
    eq(a.harvested_energy_j == b.harvested_energy_j, "harvested_energy_j");
    eq(a.sustained_load_energy_j == b.sustained_load_energy_j,
       "sustained_load_energy_j");
    eq(a.withdrawn_energy_j == b.withdrawn_energy_j, "withdrawn_energy_j");
    eq(a.ledger.accounts() == b.ledger.accounts(), "ledger");
    eq(a.ode_steps == b.ode_steps, "ode_steps");
    eq(a.ode_steps_rejected == b.ode_steps_rejected, "ode_steps_rejected");
    eq(a.events == b.events, "events");
    eq(a.sim_ok == b.sim_ok, "sim_ok");
}

/// Cached and uncached evaluation of the same request are bit-equal, a
/// repeat request hits the cache, and a request differing only in
/// canonicalised-away fields hits too.
inline void check_cache_bit_equality(const spec::experiment_spec& s) {
    const dse::system_evaluator inner(s.scn, s.harv);
    const dse::cached_evaluator cached(inner, 8);
    const dse::evaluation_result direct = inner.evaluate(s.config, s.eval);
    const dse::evaluation_result first = cached.evaluate(s.config, s.eval);
    const dse::evaluation_result repeat = cached.evaluate(s.config, s.eval);
    require(cached.stats().hits >= 1,
            "repeat of an identical request missed the cache");
    require_results_bit_equal(direct, first, "cached vs uncached");
    require_results_bit_equal(first, repeat, "cache hit vs stored result");
    if (!s.eval.record_traces) {
        // trace_interval_s is unobservable with traces off; the cache key
        // canonicalises it away, so this must be a hit, not a re-run.
        dse::evaluation_options alias = s.eval;
        alias.trace_interval_s = s.eval.trace_interval_s + 1.0;
        const std::uint64_t hits_before = cached.stats().hits;
        const dse::evaluation_result aliased = cached.evaluate(s.config, alias);
        require(cached.stats().hits == hits_before + 1,
                "canonically-equal request missed the cache");
        require_results_bit_equal(first, aliased, "canonical alias hit");
    }
}

/// Differential property of the SoA batch kernel. The batch width and the
/// extra lane configs derive deterministically from the spec (hash-seeded
/// PRNG), so a pinned spec replays the identical case. Two invariants,
/// both bitwise in every deterministic field:
///
///  1. Lane independence: evaluating a config in a batch of B equals
///     evaluating it alone through the same kernel — masked lockstep
///     means batch composition must not leak into any lane.
///  2. Path independence: each lane equals the scalar evaluate() of its
///     config, so a result never depends on which path computed it.
inline void check_batch_vs_scalar(const spec::experiment_spec& s) {
    // The kernel covers envelope fidelity without traces; other requests
    // fall back to the scalar path and are exercised elsewhere.
    spec::evaluation_options eval = s.eval;
    eval.model = spec::fidelity::envelope;
    eval.record_traces = false;

    const std::uint64_t seed = spec::spec_hash(s);
    prng lane_rng(seed);
    const std::size_t width = 1 + static_cast<std::size_t>(seed % 16);
    std::vector<dse::system_config> configs;
    configs.push_back(s.config);
    while (configs.size() < width) configs.push_back(gen_system_config(lane_rng));

    const dse::system_evaluator evaluator(s.scn, s.harv);
    const std::vector<dse::evaluation_result> batch =
        evaluator.evaluate_batch(configs, eval);
    require(batch.size() == configs.size(),
            "evaluate_batch returned the wrong number of results");

    for (std::size_t i = 0; i < configs.size(); ++i) {
        const std::string lane = "lane " + std::to_string(i) + "/" +
                                 std::to_string(configs.size());
        const std::vector<dse::evaluation_result> alone = evaluator.evaluate_batch(
            std::span<const dse::system_config>(&configs[i], 1), eval);
        require_results_bit_equal(batch[i], alone.front(),
                                  lane + " batched vs alone (independence)");
        require_results_bit_equal(batch[i], evaluator.evaluate(configs[i], eval),
                                  lane + " batch lane vs scalar evaluate");
    }
}

// --- flow ------------------------------------------------------------------

/// A sequential flow and a 3-worker parallel flow over the same spec
/// produce identical responses, fits, baselines and optimiser outcomes.
inline void check_jobs_determinism(const spec::experiment_spec& s) {
    const dse::system_evaluator evaluator(s.scn, s.harv);
    dse::flow_options seq = dse::flow_options_from_spec(s);
    seq.parallel = false;
    seq.jobs = 0;
    dse::flow_options par = dse::flow_options_from_spec(s);
    par.parallel = true;
    par.jobs = 3;
    const dse::flow_result a = dse::run_rsm_flow(evaluator, seq);
    const dse::flow_result b = dse::run_rsm_flow(evaluator, par);
    require(a.responses == b.responses,
            "design-point responses differ between --jobs 1 and --jobs 3");
    require(a.fit.r_squared == b.fit.r_squared,
            "fit r_squared differs under parallel execution");
    require_results_bit_equal(a.original_eval, b.original_eval,
                              "baseline run");
    require(a.outcomes.size() == b.outcomes.size(),
            "optimiser outcome count differs under parallel execution");
    for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
        const dse::optimizer_outcome& oa = a.outcomes[i];
        const dse::optimizer_outcome& ob = b.outcomes[i];
        require(oa.name == ob.name, "optimiser order differs");
        require(oa.coded == ob.coded,
                oa.name + ": optimum coded point differs under parallel");
        require(oa.predicted == ob.predicted,
                oa.name + ": predicted optimum differs under parallel");
        require_results_bit_equal(oa.validated, ob.validated,
                                  oa.name + ": validation run");
    }
}

// --- surrogate -------------------------------------------------------------

/// The quadratic surrogate reproduces a synthetic quadratic exactly when
/// trained on any registered design family's points.
inline void check_quadratic_exactness(const std::string& design,
                                      std::uint64_t seed) {
    prng r(seed);
    const std::size_t k = 3;
    const numeric::vec beta = gen_quadratic_coefficients(r, k);
    doe::design_request request;
    request.name = design;
    request.dimension = k;
    // 14 > 10 coefficients, so even the sampled families are comfortably
    // overdetermined (an exact quadratic has zero residual regardless).
    request.runs = 14;
    request.factorial_levels = 3;
    request.basis = [](const numeric::vec& x) {
        return rsm::quadratic_basis(x);
    };
    const doe::design_result d = doe::make_design(request);
    require(d.points.size() >= 10,
            design + ": design too small to determine a quadratic");
    numeric::vec y(d.points.size(), 0.0);
    for (std::size_t i = 0; i < d.points.size(); ++i)
        y[i] = eval_quadratic(beta, d.points[i]);
    const rsm::surrogate_fit fit =
        rsm::make_surrogate("quadratic")->fit(d.points, y);
    for (std::size_t i = 0; i < 5; ++i) {
        const numeric::vec x = gen_coded_point(r, k);
        require_near(fit.predict(x), eval_quadratic(beta, x), 1e-4,
                     design + ": quadratic surrogate is not exact");
    }
}

// --- optimisers ------------------------------------------------------------

/// Doubling an optimiser's budget under the same seed never worsens the
/// reported optimum (both run the same iteration prefix; the incumbent is
/// best-ever).
inline void check_budget_monotonicity(std::uint64_t seed) {
    prng r(seed);
    const numeric::vec beta = gen_quadratic_coefficients(r, 3);
    const opt::objective_fn f = [beta](const numeric::vec& x) {
        return eval_quadratic(beta, x);
    };
    opt::box_bounds bounds;
    bounds.lo = numeric::vec(3, -1.0);
    bounds.hi = numeric::vec(3, 1.0);
    const std::uint64_t opt_seed = r.next();
    {
        opt::sa_options small;
        small.max_epochs = 30;
        small.steps_per_epoch = 10;
        small.calibration_samples = 8;
        opt::sa_options big = small;
        big.max_epochs = 60;
        numeric::rng r1(opt_seed), r2(opt_seed);
        const double v1 =
            opt::simulated_annealing(small).maximize(f, bounds, r1).best_value;
        const double v2 =
            opt::simulated_annealing(big).maximize(f, bounds, r2).best_value;
        std::ostringstream os;
        os << "SA optimum worsened when max_epochs doubled: " << v1 << " -> "
           << v2;
        require(v2 >= v1, os.str());
    }
    {
        opt::ga_options small;
        small.population = 16;
        small.generations = 10;
        opt::ga_options big = small;
        big.generations = 25;
        numeric::rng r1(opt_seed), r2(opt_seed);
        const double v1 =
            opt::genetic_algorithm(small).maximize(f, bounds, r1).best_value;
        const double v2 =
            opt::genetic_algorithm(big).maximize(f, bounds, r2).best_value;
        std::ostringstream os;
        os << "GA optimum worsened when generations grew: " << v1 << " -> "
           << v2;
        require(v2 >= v1, os.str());
    }
}

}  // namespace ehdse::testkit::oracles
