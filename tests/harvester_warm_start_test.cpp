// Warm-started damping solve (harvester/damping_path.hpp): for any
// operating point and any path, solve_envelope warm-started from that
// path equals a fresh cold solve bit for bit in c_electrical, mech, elec
// and converged. Paths come from the previous point of a slow random
// walk, from an unrelated point, from random bits, and from a bisection
// of a doubled (expanded) bracket. Operating points span the tuning
// range, 0-2x the paper's 60 mg, every actuator position and 0-5 V of
// store voltage, so blocked and conducting points occur, and so do
// points where the end stops clip the trial amplitudes and flatten T
// (the test asserts all three do).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numbers>
#include <sstream>
#include <string>
#include <vector>

#include "harvester/envelope.hpp"
#include "harvester/vibration.hpp"
#include "power/rectifier.hpp"
#include "testkit/property.hpp"

namespace eh = ehdse::harvester;
namespace tk = ehdse::testkit;

namespace {

constexpr double k_accel_max = 2.0 * 0.060 * eh::k_gravity;
constexpr double k_store_max_v = 5.0;

const eh::microgenerator& gen() {
    static const eh::microgenerator g;
    return g;
}

struct op_point {
    int position = 0;
    double freq_hz = 0.0;
    double accel = 0.0;
    double store_v = 0.0;
};

struct warm_case {
    std::vector<op_point> walk;  ///< slow random walk of operating points
    op_point unrelated;          ///< an independent draw
    eh::damping_path garbage;    ///< random bits, depth 0-64
};

op_point draw_point(tk::prng& r) {
    op_point p;
    p.store_v = r.uniform(0.0, k_store_max_v);
    if (r.chance(0.125)) {
        // End-stop draw: full drive at the exact resonance of a low
        // position clips the open-circuit amplitude.
        p.position = static_cast<int>(r.integer(0, 16));
        p.freq_hz = gen().resonant_frequency(p.position);
        p.accel = k_accel_max;
        return p;
    }
    p.position = static_cast<int>(r.integer(0, 255));
    // Half the draws sit near the position's resonance, where the bridge
    // conducts hardest.
    p.freq_hz = r.chance(0.5)
                    ? gen().resonant_frequency(p.position) + r.uniform(-0.3, 0.3)
                    : r.uniform(gen().min_frequency(), gen().max_frequency());
    p.accel = r.uniform(0.0, k_accel_max);
    return p;
}

/// True when the end stops clip the amplitude at c_e = 0, so the
/// limiter shapes T over the low end of the bracket.
bool open_circuit_clipped(const op_point& p) {
    const double omega = 2.0 * std::numbers::pi * p.freq_hz;
    return gen().response(omega, p.accel, p.position, 0.0).displacement_limited;
}

/// Consecutive envelope RHS calls of one run: the store voltage creeps
/// (log-uniform steps, 1e-7..1e-2 V) and now and then the actuator or
/// the excitation moves.
op_point step(tk::prng& r, op_point p) {
    const double dv = r.log_uniform(1e-7, 1e-2);
    p.store_v = std::clamp(p.store_v + (r.chance(0.5) ? dv : -dv), 0.0,
                           k_store_max_v);
    if (r.chance(0.02))
        p.position = std::clamp(p.position + static_cast<int>(r.integer(-3, 3)),
                                0, 255);
    if (r.chance(0.02)) p.freq_hz += r.uniform(-0.2, 0.2);
    if (r.chance(0.02))
        p.accel = std::clamp(p.accel * r.uniform(0.9, 1.1), 0.0, k_accel_max);
    return p;
}

warm_case draw_case(tk::prng& r) {
    warm_case c;
    op_point p = draw_point(r);
    for (int i = 0; i < 150; ++i) {
        c.walk.push_back(p);
        p = step(r, p);
    }
    c.unrelated = draw_point(r);
    c.garbage.up_bits = r.next();
    c.garbage.depth = static_cast<int>(r.integer(0, 64));
    return c;
}

eh::envelope_point solve(const op_point& p, eh::damping_path* path) {
    return eh::solve_envelope(gen(), p.position, p.freq_hz, p.accel, p.store_v,
                              {}, {}, path);
}

/// The damping the bridge presents at trial damping c (the T(c) of
/// envelope.cpp), for the doubled-bracket reference bisection below.
double presented_damping(const op_point& p, double c) {
    const double omega = 2.0 * std::numbers::pi * p.freq_hz;
    const eh::linear_response mech = gen().response(omega, p.accel, p.position, c);
    const ehdse::power::rectifier_operating_point elec = ehdse::power::bridge_average(
        mech.emf_amp_v, p.store_v, gen().params().coil_resistance_ohm);
    if (!elec.conducting || !(mech.velocity_amp_ms > 0.0)) return 0.0;
    return 2.0 * elec.p_mech_w / (mech.velocity_amp_ms * mech.velocity_amp_ms);
}

/// The decisions of a solve whose bracket had doubled to [0, 2 c_hi].
/// No physical T makes solve_envelope expand (T <= phi^2 / R < c_hi), so
/// the test bisects the doubled bracket itself and records every step.
eh::damping_path expanded_path(const op_point& p) {
    const double phi = gen().params().coupling_v_per_ms;
    const double c_hi =
        phi * phi / gen().params().coil_resistance_ohm + gen().mech_damping();
    const double tol = eh::envelope_options{}.tolerance * gen().mech_damping();
    eh::damping_path path;
    double lo = 0.0;
    double hi = 2.0 * c_hi;
    int it = 0;
    for (; (hi - lo) > tol; ++it) {
        const double mid = 0.5 * (lo + hi);
        const bool up = presented_damping(p, mid) > mid;
        path.record(it, up);
        (up ? lo : hi) = mid;
    }
    path.finish(it);
    return path;
}

bool same_bits(double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void require_identical(const eh::envelope_point& warm,
                       const eh::envelope_point& cold, const op_point& p,
                       const std::string& source) {
    const bool same =
        same_bits(warm.c_electrical, cold.c_electrical) &&
        same_bits(warm.mech.displacement_amp_m, cold.mech.displacement_amp_m) &&
        same_bits(warm.mech.velocity_amp_ms, cold.mech.velocity_amp_ms) &&
        same_bits(warm.mech.emf_amp_v, cold.mech.emf_amp_v) &&
        warm.mech.displacement_limited == cold.mech.displacement_limited &&
        warm.elec.conducting == cold.elec.conducting &&
        same_bits(warm.elec.conduction_angle, cold.elec.conduction_angle) &&
        same_bits(warm.elec.i_avg_a, cold.elec.i_avg_a) &&
        same_bits(warm.elec.p_mech_w, cold.elec.p_mech_w) &&
        same_bits(warm.elec.p_store_w, cold.elec.p_store_w) &&
        same_bits(warm.elec.p_diode_w, cold.elec.p_diode_w) &&
        same_bits(warm.elec.p_coil_w, cold.elec.p_coil_w) &&
        warm.converged == cold.converged;
    if (same) return;
    std::ostringstream os;
    os << source << ": warm solve differs from cold at position " << p.position
       << ", " << std::hexfloat << p.freq_hz << " Hz, " << p.accel
       << " m/s^2, " << p.store_v << " V: c_e " << warm.c_electrical
       << " vs " << cold.c_electrical;
    tk::fail(os.str());
}

/// What the generated cases covered, summed over the run.
struct coverage {
    std::size_t blocked = 0;
    std::size_t conducting = 0;
    std::size_t clipped = 0;
    std::size_t warm_trials = 0;
    std::size_t cold_trials = 0;
};

void check_case(const warm_case& c, coverage& seen) {
    // Slow walk: one path carried from each point to the next.
    eh::damping_path walk_path;
    for (const op_point& p : c.walk) {
        const eh::envelope_point cold = solve(p, nullptr);
        const eh::envelope_point warm = solve(p, &walk_path);
        require_identical(warm, cold, p, "random-walk path");
        seen.blocked += cold.c_electrical == 0.0 ? 1 : 0;
        seen.conducting += cold.elec.conducting ? 1 : 0;
        seen.clipped += open_circuit_clipped(p) ? 1 : 0;
        seen.warm_trials += static_cast<std::size_t>(warm.iterations);
        seen.cold_trials += static_cast<std::size_t>(cold.iterations);
    }

    const op_point& target = c.walk.front();
    const eh::envelope_point cold = solve(target, nullptr);

    eh::damping_path foreign;
    solve(c.unrelated, &foreign);
    require_identical(solve(target, &foreign), cold, target, "unrelated path");

    eh::damping_path garbage = c.garbage;
    require_identical(solve(target, &garbage), cold, target, "random-bit path");

    eh::damping_path expanded = expanded_path(c.unrelated);
    require_identical(solve(target, &expanded), cold, target,
                      "expanded-bracket path");
    expanded = expanded_path(target);
    require_identical(solve(target, &expanded), cold, target,
                      "expanded-bracket path at the same point");
}

}  // namespace

TEST(WarmStart, WarmSolveEqualsColdSolveBitForBit) {
    coverage seen;
    tk::property_def<warm_case> def;
    def.name = "WarmStart.WarmSolveEqualsColdSolveBitForBit";
    def.generate = draw_case;
    def.property = [&seen](const warm_case& c) { check_case(c, seen); };
    tk::property_options options;
    options.cases = 60;
    const auto result = tk::run_property(def, options);
    EXPECT_TRUE(result.ok) << result.report();

    // The draws reach every regime of the bridge, and the walk really
    // runs warm: fewer trials of T than cold solving.
    EXPECT_GT(seen.blocked, 0u);
    EXPECT_GT(seen.conducting, 0u);
    EXPECT_GT(seen.clipped, 0u);
    EXPECT_LT(seen.warm_trials, seen.cold_trials);
}

TEST(WarmStart, ConductingSolveLeavesAPathBlockedSolveClearsIt) {
    const op_point conducting{128, gen().resonant_frequency(128),
                              0.060 * eh::k_gravity, 2.8};
    eh::damping_path path;
    const eh::envelope_point first = solve(conducting, &path);
    ASSERT_TRUE(first.elec.conducting);
    EXPECT_GT(path.depth, eh::k_warm_backoff);

    // Re-solving the same point replays all but the backed-off tail: two
    // checks, the re-bisected tail, the final evaluation.
    const eh::envelope_point again = solve(conducting, &path);
    EXPECT_EQ(again.iterations, eh::k_warm_backoff + 3);
    EXPECT_EQ(again.c_electrical, first.c_electrical);

    op_point blocked = conducting;
    blocked.store_v = 50.0;
    const eh::envelope_point b = solve(blocked, &path);
    EXPECT_EQ(b.c_electrical, 0.0);
    EXPECT_EQ(path.depth, 0);
}

TEST(WarmStart, ReplayKeepsItsCellInsideTheColdBracket) {
    // A replay that would end on the bracket's edge (all "down" keeps
    // lo = 0; all "up" keeps hi = c_hi) is not usable: the cold solve's
    // blocked and expansion decisions would not be implied.
    const double c_hi = 1.0;
    const double tol = 1e-6;
    eh::damping_path all_down;
    all_down.up_bits = 0;
    all_down.depth = 30;
    EXPECT_EQ(all_down.replay(c_hi, tol, 200).depth, 0);
    eh::damping_path all_up;
    all_up.up_bits = ~std::uint64_t{0};
    all_up.depth = 30;
    EXPECT_EQ(all_up.replay(c_hi, tol, 200).depth, 0);

    eh::damping_path mixed;
    mixed.up_bits = 0b0110;
    mixed.depth = 30;
    const eh::damping_cell cell = mixed.replay(c_hi, tol, 200);
    EXPECT_EQ(cell.depth, 30 - eh::k_warm_backoff);
    EXPECT_GT(cell.lo, 2.0 * tol);
    EXPECT_LT(cell.hi, c_hi);
    // The replayed depth counts towards the iteration limit.
    EXPECT_EQ(mixed.replay(c_hi, tol, 12).depth, 12 - eh::k_warm_backoff);
}
