// Warm start of the electromagnetic envelope kernel
// (harvester/damping_path.hpp), through the scalar hook that runs it on
// one lane: for any operating point and any predictor state, a call with
// a primed path equals a call with a fresh path bit for bit, in both rates
// and in the path it leaves. States come from the previous point of a
// slow random walk, from an unrelated point, from random special and
// out-of-range values, from a root beyond c_hi, and from predictions
// aimed at, just inside and just outside the ends of the kernel's cold
// final cell. Operating points span the tuning range, 0-2x the paper's
// 60 mg, every actuator position and 0-5 V of store voltage, so blocked
// and conducting points occur, and so do points where the end stops clip
// the trial amplitudes and flatten T (the test asserts all three do). A
// blocked call clears the path; a conducting one leaves a path whose own
// prediction is the final cell it converged in — the cell the next call
// at that point checks first. The libm reference solve's mech and elec
// must be the public response() and bridge_average() at its c_e, bit for
// bit. The walk of the cold grid, resumed from the path's stored cell,
// must end in the cell a walk from the top reaches, over creeping,
// jumping, special and off-grid predictions.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <numbers>
#include <sstream>
#include <string>
#include <vector>

#include "harvester/electromagnetic.hpp"
#include "harvester/envelope.hpp"
#include "harvester/vibration.hpp"
#include "power/rectifier.hpp"
#include "testkit/property.hpp"

namespace eh = ehdse::harvester;
namespace tk = ehdse::testkit;

namespace {

constexpr double k_accel_max = 2.0 * 0.060 * eh::k_gravity;
constexpr double k_store_max_v = 5.0;
constexpr double k_z_max_m = 1.5e-3;

const eh::microgenerator& gen() {
    static const eh::microgenerator g;
    return g;
}

const eh::electromagnetic_harvester& model() {
    static const eh::electromagnetic_harvester m;
    return m;
}

/// The kernel's unexpanded bracket end and bisection tolerance.
double c_hi() {
    const double phi = gen().params().coupling_v_per_ms;
    return phi * phi / gen().params().coil_resistance_ohm +
           gen().mech_damping();
}

double tol() {
    return eh::envelope_options{}.tolerance * gen().mech_damping();
}

struct op_point {
    int position = 0;
    double freq_hz = 0.0;
    double accel = 0.0;
    double store_v = 0.0;
    double z_env = 0.0;
};

struct warm_case {
    std::vector<op_point> walk;  ///< slow random walk of operating points
    op_point unrelated;          ///< an independent draw
    std::vector<eh::damping_path> garbage;  ///< special, out-of-range values
    eh::damping_path beyond;     ///< a root beyond c_hi
};

op_point draw_point(tk::prng& r) {
    op_point p;
    p.store_v = r.uniform(0.0, k_store_max_v);
    p.z_env = r.uniform(0.0, k_z_max_m);
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
/// (log-uniform steps, 1e-7..1e-2 V), the envelope drifts, and now and
/// then the actuator or the excitation moves.
op_point step(tk::prng& r, op_point p) {
    const double dv = r.log_uniform(1e-7, 1e-2);
    p.store_v = std::clamp(p.store_v + (r.chance(0.5) ? dv : -dv), 0.0,
                           k_store_max_v);
    p.z_env = std::clamp(p.z_env + r.uniform(-1e-6, 1e-6), 0.0, k_z_max_m);
    if (r.chance(0.02))
        p.position = std::clamp(p.position + static_cast<int>(r.integer(-3, 3)),
                                0, 255);
    if (r.chance(0.02)) p.freq_hz += r.uniform(-0.2, 0.2);
    if (r.chance(0.02))
        p.accel = std::clamp(p.accel * r.uniform(0.9, 1.1), 0.0, k_accel_max);
    return p;
}

/// Predictor state no solve leaves: NaN, infinite, signed-zero,
/// negative and beyond-c_hi roots; zero, positive, tiny, NaN and
/// infinite slopes; each mixed with ordinary values of the other field.
eh::damping_path draw_garbage(tk::prng& r) {
    constexpr double inf = std::numeric_limits<double>::infinity();
    constexpr double nan = std::numeric_limits<double>::quiet_NaN();
    constexpr double tiny = std::numeric_limits<double>::denorm_min();
    const double roots[] = {nan,
                            inf,
                            -inf,
                            0.0,
                            -0.0,
                            -tiny,
                            -r.uniform(0.0, c_hi()),
                            c_hi(),
                            std::nextafter(c_hi(), 0.0),
                            c_hi() * r.uniform(1.0, 4.0),
                            r.uniform(0.0, c_hi())};
    const double slopes[] = {nan,
                             inf,
                             -inf,
                             0.0,
                             -0.0,
                             tiny,
                             -tiny,
                             1e-300,
                             -1e-300,
                             r.log_uniform(1e-3, 1e3),
                             -r.log_uniform(1e-3, 1e3)};
    eh::damping_path path;
    path.root = roots[r.index(std::size(roots))];
    path.slope = slopes[r.index(std::size(slopes))];
    return path;
}

/// The state a solve on a doubled bracket [0, 2 c_hi] would leave if its
/// root lay beyond c_hi. No physical T makes the kernel expand
/// (T <= phi^2 / R < c_hi), so the test builds the state directly.
eh::damping_path beyond_c_hi_path(tk::prng& r) {
    eh::damping_path path;
    path.root = r.chance(0.25) ? c_hi() : c_hi() * r.uniform(1.0, 2.0);
    path.slope = -r.log_uniform(0.5, 50.0);
    return path;
}

warm_case draw_case(tk::prng& r) {
    warm_case c;
    op_point p = draw_point(r);
    for (int i = 0; i < 150; ++i) {
        c.walk.push_back(p);
        p = step(r, p);
    }
    c.unrelated = draw_point(r);
    for (int i = 0; i < 4; ++i) c.garbage.push_back(draw_garbage(r));
    c.beyond = beyond_c_hi_path(r);
    return c;
}

/// The diode-bridge envelope RHS at `p`, warm-started from `path`.
eh::envelope_rates rates(const op_point& p, eh::damping_path& path) {
    return model().envelope_dynamics(p.freq_hz, p.accel, p.position,
                                     p.store_v, p.z_env,
                                     eh::conditioning_kind::diode_bridge, 1.0,
                                     {}, path);
}

/// The libm reference solve at `p`.
eh::envelope_point solve(const op_point& p) {
    return eh::solve_envelope(gen(), p.position, p.freq_hz, p.accel, p.store_v);
}

/// A trusted state whose prediction is exactly `target`: the slope is so
/// steep that the Newton step vanishes below half an ulp of the root.
eh::damping_path aimed_at(double target) {
    eh::damping_path path;
    path.root = target;
    path.slope = -std::numeric_limits<double>::max();
    return path;
}

bool same_bits(double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// The final cell a conducting call converged in, read off the path it
/// left: its root is the cell's midpoint, so the walk of the cold grid
/// towards that root ends in the cell. Depth 0 when the cell is not one a
/// prediction may use (lo < 2 tol or hi = c_hi).
eh::damping_cell final_cell(eh::damping_path path) {
    const eh::damping_cell cell = path.predicted_cell(
        0.0, c_hi(), tol(), eh::envelope_options{}.max_iterations);
    if (cell.depth > 0 && !same_bits(0.5 * (cell.lo + cell.hi), path.root))
        tk::fail("the path's root is not the midpoint of its own cell");
    return cell;
}

/// The libm solve's mech and elec are response() and bridge_average() at
/// the c_e it returned (0 for a blocked point), and solve_damping agrees
/// with solve_envelope in everything but elec.
void require_reference_point(const op_point& p) {
    const eh::envelope_point pt = solve(p);
    const double omega = 2.0 * std::numbers::pi * p.freq_hz;
    const eh::linear_response mech =
        gen().response(omega, p.accel, p.position, pt.c_electrical);
    const ehdse::power::rectifier_operating_point elec =
        ehdse::power::bridge_average(mech.emf_amp_v, p.store_v,
                                     gen().params().coil_resistance_ohm);
    const eh::damping_point d =
        eh::solve_damping(gen(), p.position, p.freq_hz, p.accel, p.store_v);
    const bool same =
        same_bits(pt.mech.displacement_amp_m, mech.displacement_amp_m) &&
        same_bits(pt.mech.velocity_amp_ms, mech.velocity_amp_ms) &&
        same_bits(pt.mech.emf_amp_v, mech.emf_amp_v) &&
        pt.mech.displacement_limited == mech.displacement_limited &&
        pt.elec.conducting == elec.conducting &&
        same_bits(pt.elec.conduction_angle, elec.conduction_angle) &&
        same_bits(pt.elec.i_avg_a, elec.i_avg_a) &&
        same_bits(pt.elec.p_mech_w, elec.p_mech_w) &&
        same_bits(pt.elec.p_store_w, elec.p_store_w) &&
        same_bits(pt.elec.p_diode_w, elec.p_diode_w) &&
        same_bits(pt.elec.p_coil_w, elec.p_coil_w) &&
        same_bits(d.c_electrical, pt.c_electrical) &&
        same_bits(d.mech.displacement_amp_m, mech.displacement_amp_m) &&
        same_bits(d.mech.velocity_amp_ms, mech.velocity_amp_ms) &&
        same_bits(d.mech.emf_amp_v, mech.emf_amp_v) &&
        d.mech.displacement_limited == mech.displacement_limited &&
        d.converged == pt.converged;
    if (same) return;
    std::ostringstream os;
    os << "libm solve differs from response()/bridge_average() at position "
       << p.position << ", " << std::hexfloat << p.freq_hz << " Hz, "
       << p.accel << " m/s^2, " << p.store_v << " V, c_e " << pt.c_electrical;
    tk::fail(os.str());
}

/// A call from `path` equals the call from a fresh path in both rates and
/// in the path it leaves; returns the fresh call's path.
eh::damping_path require_identical(const op_point& p, eh::damping_path& path,
                                   const std::string& source) {
    eh::damping_path fresh;
    const eh::envelope_rates cold = rates(p, fresh);
    const eh::envelope_rates warm = rates(p, path);
    const bool same = same_bits(warm.amplitude_rate, cold.amplitude_rate) &&
                      same_bits(warm.charge_current_a, cold.charge_current_a) &&
                      same_bits(path.root, fresh.root) &&
                      same_bits(path.slope, fresh.slope);
    if (same) return fresh;
    std::ostringstream os;
    os << source << ": warm call differs from cold at position " << p.position
       << ", " << std::hexfloat << p.freq_hz << " Hz, " << p.accel
       << " m/s^2, " << p.store_v << " V, z " << p.z_env << ": rates "
       << warm.amplitude_rate << ", " << warm.charge_current_a << " vs "
       << cold.amplitude_rate << ", " << cold.charge_current_a << "; root "
       << path.root << " vs " << fresh.root;
    tk::fail(os.str());
    return fresh;
}

/// What the generated cases covered, summed over the run.
struct coverage {
    std::size_t blocked = 0;     ///< calls that left no prediction
    std::size_t conducting = 0;  ///< calls that left a trusted path
    std::size_t clipped = 0;
    std::size_t clipped_conducting = 0;  ///< clipped and loaded by the bridge
    std::size_t trusted_in = 0;  ///< walk calls entering with a trusted path
    std::size_t predicted = 0;   ///< walk calls whose path predicts its cell
    std::size_t aimed_inside = 0;
};

void check_case(const warm_case& c, coverage& seen) {
    // Slow walk: one path carried from each point to the next.
    eh::damping_path walk_path;
    for (const op_point& p : c.walk) {
        seen.trusted_in += walk_path.trusted(c_hi()) ? 1 : 0;
        const eh::damping_path left =
            require_identical(p, walk_path, "random-walk path");
        require_reference_point(p);
        const bool clipped = open_circuit_clipped(p);
        const bool conducting = left.trusted(c_hi());
        seen.blocked += conducting ? 0 : 1;
        seen.conducting += conducting ? 1 : 0;
        seen.clipped += clipped ? 1 : 0;
        seen.clipped_conducting += clipped && conducting ? 1 : 0;
        if (conducting && final_cell(left).depth > 0) ++seen.predicted;
    }

    const op_point& target = c.walk.front();
    eh::damping_path foreign;
    rates(c.unrelated, foreign);
    const eh::damping_path cold = require_identical(target, foreign,
                                                    "unrelated path");

    for (eh::damping_path garbage : c.garbage)
        require_identical(target, garbage, "special-value path");

    eh::damping_path beyond = c.beyond;
    require_identical(target, beyond, "beyond-c_hi path");

    // Predictions at, just inside and just outside the ends of the cold
    // final cell (width in (tol / 2, tol], so c_e +- tol / 4 lies inside
    // and c_e +- tol / 2 on or beyond an end). The walk of an aim inside
    // the cell ends in it; whatever the aim, the result is the cold one.
    if (!cold.trusted(c_hi())) return;  // blocked: no cell
    const eh::damping_cell ref = final_cell(cold);
    if (ref.depth == 0) return;  // at the bracket's edge: never predicted
    const double ce = cold.root;
    const double q = 0.25 * tol();
    const double inf = std::numeric_limits<double>::infinity();
    const double aims[] = {ce,
                           ce - q,
                           ce + q,
                           ce - 2.0 * q,
                           ce + 2.0 * q,
                           ref.lo,
                           ref.hi,
                           std::nextafter(ref.lo, -inf),
                           std::nextafter(ref.lo, inf),
                           std::nextafter(ref.hi, -inf),
                           std::nextafter(ref.hi, inf)};
    for (const double aim : aims) {
        eh::damping_path path = aimed_at(aim);
        const eh::damping_cell walked = eh::damping_path(path).predicted_cell(
            0.0, c_hi(), tol(), eh::envelope_options{}.max_iterations);
        const bool inside = aim > ref.lo && aim <= ref.hi;
        const bool reaches = walked.depth > 0 && same_bits(walked.lo, ref.lo) &&
                             same_bits(walked.hi, ref.hi);
        if (reaches != inside)
            tk::fail("an aimed prediction's walk disagrees with the cold cell");
        seen.aimed_inside += inside ? 1 : 0;
        require_identical(target, path, "aimed path");
    }
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
    // runs warm: calls enter with a trusted path, and conducting calls
    // leave a path that predicts the cell they converged in.
    EXPECT_GT(seen.blocked, 0u);
    EXPECT_GT(seen.conducting, 0u);
    EXPECT_GT(seen.clipped, 0u);
    EXPECT_GT(seen.clipped_conducting, 0u);
    EXPECT_GT(seen.trusted_in, 0u);
    EXPECT_GT(seen.predicted, 0u);
    EXPECT_GT(seen.aimed_inside, 0u);
}

TEST(WarmStart, ConductingSolveLeavesAPathBlockedSolveClearsIt) {
    const op_point conducting{128, gen().resonant_frequency(128),
                              0.060 * eh::k_gravity, 2.8, 5e-4};
    eh::damping_path path;
    const eh::envelope_rates first = rates(conducting, path);
    EXPECT_GT(first.charge_current_a, 0.0);
    ASSERT_TRUE(path.trusted(c_hi()));
    // The kernel's root is the libm solve's to solver tolerance.
    EXPECT_NEAR(path.root, solve(conducting).c_electrical, tol());

    // The path predicts the cell its call converged in, so re-solving the
    // same point checks that cell first; the result does not move.
    const double root = path.root;
    EXPECT_GT(final_cell(path).depth, 0);
    const eh::envelope_rates again = rates(conducting, path);
    EXPECT_TRUE(same_bits(again.amplitude_rate, first.amplitude_rate));
    EXPECT_TRUE(same_bits(again.charge_current_a, first.charge_current_a));
    EXPECT_TRUE(same_bits(path.root, root));

    op_point blocked = conducting;
    blocked.store_v = 50.0;
    const eh::envelope_rates b = rates(blocked, path);
    EXPECT_EQ(b.charge_current_a, 0.0);
    EXPECT_FALSE(path.trusted(c_hi()));
}

TEST(WarmStart, WalkedCellStaysInsideTheColdBracket) {
    // A walk that would end on the bracket's edge (a prediction below the
    // first cell keeps lo = 0; one above the last keeps hi = c_hi) is not
    // usable, nor is one whose lo is under 2 tol: the cold solve's blocked
    // and expansion decisions would not be implied.
    const double c_hi = 1.0;
    const double tol = 1e-6;
    const auto walk_to = [&](double c, int max_iterations) {
        eh::damping_path path;
        path.root = c;
        path.slope = -1.0;
        return path.predicted_cell(0.0, c_hi, tol, max_iterations);
    };
    EXPECT_EQ(walk_to(0.0, 200).depth, 0);
    EXPECT_EQ(walk_to(0.5 * tol, 200).depth, 0);
    EXPECT_EQ(walk_to(1.5 * tol, 200).depth, 0);
    EXPECT_EQ(walk_to(c_hi, 200).depth, 0);
    EXPECT_EQ(walk_to(std::nextafter(c_hi, 0.0), 200).depth, 0);

    const eh::damping_cell low = walk_to(3.0 * tol, 200);
    EXPECT_EQ(low.depth, 20);
    EXPECT_GE(low.lo, 2.0 * tol);

    const eh::damping_cell cell = walk_to(0.3, 200);
    EXPECT_EQ(cell.depth, 20);  // 2^-20 is the first width <= tol
    EXPECT_LT(cell.lo, 0.3);
    EXPECT_GE(cell.hi, 0.3);
    EXPECT_LE(cell.hi - cell.lo, tol);
    EXPECT_LT(cell.hi, c_hi);
    // The walked depth counts towards the iteration limit.
    const eh::damping_cell shallow = walk_to(0.3, 12);
    EXPECT_EQ(shallow.depth, 12);
    EXPECT_GT(shallow.hi - shallow.lo, tol);
}

TEST(WarmStart, InvalidOperatingPointsThrowFromBothEntryPoints) {
    // The kernel's hook rejects what the libm solve rejects, with the same
    // exception, from a fresh path and a trusted one: a bad position before
    // a bad store voltage, as the first trial's response() reported it
    // before its bridge_average(); NaN stimulus and store voltage; a
    // frequency <= 0; a negative acceleration. The hook also rejects a
    // negative or NaN envelope, whose charging emf bridge_average rejects.
    constexpr double nan = std::numeric_limits<double>::quiet_NaN();
    const double f = gen().resonant_frequency(128);
    const double a = 0.060 * eh::k_gravity;
    eh::damping_path trusted;
    rates({128, f, a, 2.8, 5e-4}, trusted);
    ASSERT_TRUE(trusted.trusted(c_hi()));

    const op_point invalid_argument[] = {
        {128, f, a, -0.1, 5e-4}, {128, f, a, nan, 5e-4},
        {128, f, nan, 2.8, 5e-4}, {128, nan, a, 2.8, 5e-4},
        {128, 0.0, a, 2.8, 5e-4}, {128, f, -1.0, 2.8, 5e-4}};
    for (const op_point& p : invalid_argument) {
        EXPECT_THROW(solve(p), std::invalid_argument);
        EXPECT_THROW(eh::solve_damping(gen(), p.position, p.freq_hz, p.accel,
                                       p.store_v),
                     std::invalid_argument);
        for (const bool warm : {false, true}) {
            eh::damping_path path = warm ? trusted : eh::damping_path{};
            EXPECT_THROW(rates(p, path), std::invalid_argument);
        }
    }
    for (const double z : {-1e-6, nan}) {
        eh::damping_path path = trusted;
        EXPECT_THROW(rates({128, f, a, 2.8, z}, path), std::invalid_argument);
    }
    EXPECT_THROW(solve({256, f, a, 2.8, 5e-4}), std::out_of_range);
    EXPECT_THROW(solve({256, f, a, -0.1, 5e-4}), std::out_of_range);
    for (const bool warm : {false, true}) {
        eh::damping_path path = warm ? trusted : eh::damping_path{};
        EXPECT_THROW(rates({256, f, a, 2.8, 5e-4}, path), std::out_of_range);
        EXPECT_THROW(rates({256, f, a, -0.1, 5e-4}, path), std::out_of_range);
    }
}

namespace {

/// predicted_cell's walk of the grid of [0, c_hi] towards c, from the
/// top every time: halvings while the cell is wider than tol, up to
/// `limit` of them.
eh::damping_cell walk_from_top(double c, double c_hi, double tol, int limit) {
    eh::damping_cell cell{0.0, c_hi, 0, 0};
    for (; cell.depth < limit && (cell.hi - cell.lo) > tol; ++cell.depth) {
        const double mid = 0.5 * (cell.lo + cell.hi);
        (c > mid ? cell.lo : cell.hi) = mid;
    }
    cell.halvings = cell.depth;
    return cell;
}

/// The cell predicted_cell must return: the walk's, when usable.
eh::damping_cell reference_cell(double c, double c_hi, double tol,
                                int max_iterations) {
    const eh::damping_cell cell = walk_from_top(c, c_hi, tol, max_iterations);
    if (!(cell.lo >= 2.0 * tol && cell.hi < c_hi)) return {};
    return cell;
}

/// One call of predicted_cell: the prediction and the grid it walks.
struct walk_call {
    double c = 0.0;
    double c_hi = 0.0;
    double tol = 0.0;
    int max_iterations = 200;
};

/// The resume cell a path holds, as the test tracks it: the cell the
/// last walk from the top passed at k_resume_depth, with its grid.
struct resume_model {
    bool set = false;
    double lo = 0.0;
    double hi = 0.0;
    double c_hi = 0.0;
    double tol = 0.0;

    bool holds(const walk_call& w) const {
        return set && w.max_iterations >= eh::damping_path::k_resume_depth &&
               c_hi == w.c_hi && tol == w.tol && lo < w.c && w.c <= hi;
    }
};

std::string describe(const walk_call& w) {
    std::ostringstream os;
    os << std::hexfloat << "c " << w.c << ", c_hi " << w.c_hi << ", tol "
       << w.tol << ", max_iterations " << w.max_iterations;
    return os.str();
}

}  // namespace

TEST(WarmStart, ResumedWalkEndsInTheCellAWalkFromTheTopReaches) {
    constexpr int k_depth = eh::damping_path::k_resume_depth;
    constexpr double inf = std::numeric_limits<double>::infinity();
    constexpr double nan = std::numeric_limits<double>::quiet_NaN();
    const double hi0 = c_hi();
    const double tol0 = tol();
    tk::prng r(0x5e5u);

    std::vector<walk_call> calls;
    const auto add = [&](double c, double grid_hi = -1.0, double grid_tol = -1.0,
                         int max_iterations = 200) {
        calls.push_back({c, grid_hi < 0.0 ? hi0 : grid_hi,
                         grid_tol < 0.0 ? tol0 : grid_tol, max_iterations});
    };
    // Slow creep across many final cells and a few resume cells.
    double c = 0.3 * hi0;
    for (int i = 0; i < 400; ++i) {
        c += r.uniform(0.0, 4.0) * tol0;
        add(c);
    }
    // Jumps, and alternation between two far cells.
    for (int i = 0; i < 100; ++i) add(r.uniform(0.0, hi0));
    for (int i = 0; i < 40; ++i) add(i % 2 == 0 ? 0.2 * hi0 : 0.7 * hi0);
    // Special and off-grid predictions, each after a walk that stored a
    // cell at the grid's top or bottom.
    for (const double special : {nan, inf, -inf, hi0, 2.0 * hi0, -1.0, 0.0}) {
        add(std::nextafter(hi0, 0.0));
        add(special);
        add(3.0 * tol0);
        add(special);
    }
    // Another c_hi, another tol (one that stops the walk above the resume
    // depth), and back; predictions inside the previous grid's cell.
    for (int i = 0; i < 20; ++i) {
        const double aim = r.uniform(0.1, 0.9) * hi0;
        add(aim);
        add(aim, 1.5 * hi0);
        add(aim);
        add(aim, -1.0, 2.0 * tol0);
        add(aim);
        add(aim, -1.0, hi0 / 1024.0);
        add(aim);
    }
    // Iteration limits at and below the resume depth.
    for (int i = 0; i < 20; ++i) {
        const double aim = r.uniform(0.1, 0.9) * hi0;
        add(aim);
        for (const int limit : {k_depth + 1, k_depth, k_depth - 1, 3, 0})
            add(aim + r.uniform(-0.5, 0.5) * tol0, -1.0, -1.0, limit);
    }

    eh::damping_path path;
    path.slope = -1.0;  // with f_root = 0 the prediction is exactly root
    resume_model stored;
    std::size_t resumed = 0;
    for (std::size_t i = 0; i < calls.size(); ++i) {
        walk_call w = calls[i];
        if (i > 0 && stored.set && i % 9 == 0) {
            // Aim at the stored cell's ends and one ulp either side.
            const double ends[] = {stored.lo, stored.hi};
            const double e = ends[(i / 9) % 2];
            const int side = static_cast<int>((i / 18) % 3) - 1;
            w.c = side == 0 ? e : std::nextafter(e, side < 0 ? -inf : inf);
            w.c_hi = stored.c_hi;
            w.tol = stored.tol;
            w.max_iterations = 200;
        }
        path.root = w.c;
        const eh::damping_cell got =
            path.predicted_cell(0.0, w.c_hi, w.tol, w.max_iterations);
        const eh::damping_cell want =
            reference_cell(w.c, w.c_hi, w.tol, w.max_iterations);
        ASSERT_TRUE(same_bits(got.lo, want.lo) && same_bits(got.hi, want.hi) &&
                    got.depth == want.depth)
            << "call " << i << " (" << describe(w) << "): got [" << std::hexfloat
            << got.lo << ", " << got.hi << "] depth " << got.depth << ", want ["
            << want.lo << ", " << want.hi << "] depth " << want.depth;

        // A usable cell shows whether the walk resumed: exactly when the
        // tracked resume cell holds the prediction.
        const bool expect_resume = stored.holds(w);
        if (got.depth > 0) {
            const bool did_resume = got.halvings != got.depth;
            EXPECT_EQ(did_resume, expect_resume) << "call " << i << " ("
                                                 << describe(w) << ")";
            if (did_resume) EXPECT_EQ(got.halvings, got.depth - k_depth);
            resumed += did_resume ? 1 : 0;
        }
        if (!expect_resume) {
            const eh::damping_cell passed = walk_from_top(
                w.c, w.c_hi, w.tol, std::min(w.max_iterations, k_depth));
            if (passed.depth == k_depth)
                stored = {true, passed.lo, passed.hi, w.c_hi, w.tol};
        }
    }
    // The creep alone resumes about 350 times.
    EXPECT_GE(resumed, 300u);
}
