// Warm start of the electromagnetic envelope kernel
// (harvester/damping_path.hpp), through the envelope_dynamics hook that
// runs it: for any operating point and any predictor state, a call with
// a primed path equals a call with a fresh path bit for bit, in both rates
// and in the whole path it leaves (root, slope, dr/du and the operating
// point). Paths come from the previous point of a random walk that
// crosses retunes, frequency steps, amplitude dropouts and 1 mV
// store-voltage jumps between slow creeps, so calls extrapolate, take the
// Newton step and solve cold; from an unrelated point; from planted
// garbage (NaN, infinite and huge roots and slopes in u, at the point's
// own drive and at drives that do not match); from a root beyond c_hi;
// and from predictions aimed at, just inside and just outside the ends
// of the kernel's cold final cell, through both predictors. Operating
// points span the tuning range, 0-2x the paper's 60 mg, every actuator
// position and 0-5 V of store voltage, so blocked and conducting points
// occur, and so do points where the end stops clip the trial amplitudes
// and flatten T (the test asserts all of these do). A blocked call clears
// the path. The libm reference solve's mech and elec must be the public
// response() and bridge_average() at its c_e, bit for bit. The closed-form
// final cell must be the cell a walk of the dyadic grid from the top
// reaches, and a grid deeper than the closed form covers solves cold.
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
constexpr double k_inf = std::numeric_limits<double>::infinity();
constexpr double k_nan = std::numeric_limits<double>::quiet_NaN();

const eh::microgenerator& gen() {
    static const eh::microgenerator g;
    return g;
}

const eh::electromagnetic_harvester& model() {
    static const eh::electromagnetic_harvester m;
    return m;
}

/// The grid the kernel bisects on, with its bracket end and tolerance.
const eh::damping_grid& grid() {
    static const eh::damping_grid g = eh::kernel_damping_grid(gen());
    return g;
}

double c_hi() { return grid().c_hi; }
double tol() { return grid().tol; }

struct op_point {
    int position = 0;
    double freq_hz = 0.0;
    double accel = 0.0;
    double store_v = 0.0;
    double z_env = 0.0;
};

/// The operating point as the kernel prepares it: the drive's omega,
/// detuning and m A, and the sink voltage V + 2 V_d.
struct prepared {
    double omega, re, ma, u;
};

prepared prepare(const op_point& p) {
    const eh::drive_point d =
        gen().drive(2.0 * std::numbers::pi * p.freq_hz, p.accel, p.position);
    return {d.omega_rad, d.detuning, d.mass_accel,
            p.store_v + 2.0 * ehdse::power::rectifier_params{}.diode_drop_v};
}

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
/// (log-uniform steps, 1e-7..1e-2 V) or jumps by 1 mV (a transmission
/// burst), the envelope drifts, and now and then the actuator retunes,
/// the excitation steps in frequency or amplitude, or drops out and
/// comes back.
op_point step(tk::prng& r, op_point p) {
    const double dv = r.chance(0.05) ? 1e-3 : r.log_uniform(1e-7, 1e-2);
    p.store_v = std::clamp(p.store_v + (r.chance(0.5) ? dv : -dv), 0.0,
                           k_store_max_v);
    p.z_env = std::clamp(p.z_env + r.uniform(-1e-6, 1e-6), 0.0, k_z_max_m);
    if (r.chance(0.02))
        p.position = std::clamp(p.position + static_cast<int>(r.integer(-3, 3)),
                                0, 255);
    if (r.chance(0.02)) p.freq_hz += r.uniform(-0.2, 0.2);
    if (r.chance(0.02))
        p.accel = std::clamp(p.accel * r.uniform(0.9, 1.1), 0.0, k_accel_max);
    if (r.chance(0.01))
        p.accel = p.accel > 0.0 ? 0.0 : r.uniform(0.0, k_accel_max);
    return p;
}

/// A value no solve leaves: NaN, infinite, signed-zero, tiny, huge and
/// out-of-range entries, mixed with ordinary ones.
double draw_garbage_value(tk::prng& r, double ordinary) {
    constexpr double tiny = std::numeric_limits<double>::denorm_min();
    constexpr double huge = std::numeric_limits<double>::max();
    const double values[] = {k_nan,  k_inf,   -k_inf, 0.0,      -0.0,
                             tiny,   -tiny,   huge,   -huge,    1e300,
                             -1e300, -ordinary, 4.0 * ordinary, ordinary};
    return values[r.index(std::size(values))];
}

/// Predictor state no solve leaves. With `own` the key is the target's
/// prepared operating point (so the kernel extrapolates from the
/// garbage); otherwise it is garbage too, or the target's with one field
/// nudged by an ulp (a drive that does not match).
eh::damping_path draw_garbage(tk::prng& r, const prepared& own) {
    eh::damping_path path;
    path.root = r.chance(0.25) ? r.uniform(0.0, c_hi())
                               : draw_garbage_value(r, c_hi());
    path.slope = r.chance(0.25) ? -r.log_uniform(1e-3, 1e3)
                                : draw_garbage_value(r, 1.0);
    path.root_du = r.chance(0.25) ? -r.log_uniform(1e-6, 1e-1)
                                  : draw_garbage_value(r, 1e-2);
    path.omega = own.omega;
    path.re = own.re;
    path.ma = own.ma;
    path.u = r.chance(0.5) ? own.u : draw_garbage_value(r, own.u);
    switch (r.index(4)) {
        case 0:
            break;  // the target's own drive
        case 1:
            path.omega = std::nextafter(own.omega, k_inf);
            break;
        case 2:
            path.ma = draw_garbage_value(r, own.ma);
            break;
        default:
            path.omega = draw_garbage_value(r, own.omega);
            path.re = draw_garbage_value(r, own.re);
            break;
    }
    return path;
}

/// The state a solve on a doubled bracket [0, 2 c_hi] would leave if its
/// root lay beyond c_hi. No physical T makes the kernel expand
/// (T <= phi^2 / R < c_hi), so the test builds the state directly.
eh::damping_path beyond_c_hi_path(tk::prng& r, const prepared& own) {
    eh::damping_path path;
    path.root = r.chance(0.25) ? c_hi() : c_hi() * r.uniform(1.0, 2.0);
    path.slope = -r.log_uniform(0.5, 50.0);
    path.root_du = -r.log_uniform(1e-6, 1e-1);
    if (r.chance(0.5)) {
        path.omega = own.omega;
        path.re = own.re;
        path.ma = own.ma;
        path.u = own.u;
    }
    return path;
}

struct warm_case {
    std::vector<op_point> walk;  ///< random walk of operating points
    op_point unrelated;          ///< an independent draw
    std::vector<eh::damping_path> garbage;  ///< planted at walk.front()
    eh::damping_path beyond;     ///< a root beyond c_hi
};

warm_case draw_case(tk::prng& r) {
    warm_case c;
    op_point p = draw_point(r);
    for (int i = 0; i < 150; ++i) {
        c.walk.push_back(p);
        p = step(r, p);
    }
    c.unrelated = draw_point(r);
    const prepared own = prepare(c.walk.front());
    for (int i = 0; i < 8; ++i) c.garbage.push_back(draw_garbage(r, own));
    c.beyond = beyond_c_hi_path(r, own);
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

bool same_bits(double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_path(const eh::damping_path& a, const eh::damping_path& b) {
    return same_bits(a.root, b.root) && same_bits(a.slope, b.slope) &&
           same_bits(a.root_du, b.root_du) && same_bits(a.omega, b.omega) &&
           same_bits(a.re, b.re) && same_bits(a.ma, b.ma) &&
           same_bits(a.u, b.u);
}

/// A path whose prediction at `p` is exactly `target`: through the
/// extrapolation (p's own drive and sink voltage, no slope in u), or
/// through the Newton step (another drive, and a slope so steep that the
/// step vanishes below half an ulp of the root).
eh::damping_path aimed_at(const op_point& p, double target, bool newton) {
    const prepared own = prepare(p);
    eh::damping_path path;
    path.root = target;
    if (newton) {
        path.slope = -std::numeric_limits<double>::max();
        path.omega = std::nextafter(own.omega, 0.0);
        path.re = own.re;
        path.ma = own.ma;
        path.u = own.u;
    } else {
        path.slope = -1.0;
        path.omega = own.omega;
        path.re = own.re;
        path.ma = own.ma;
        path.u = own.u;
    }
    return path;
}

/// The final cell a conducting call converged in, read off the path it
/// left: its root r* lies in that cell.
eh::damping_cell final_cell(const eh::damping_path& path) {
    return grid().cell_of(path.root);
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
                      same_bits(warm.relaxation_rate, cold.relaxation_rate) &&
                      same_bits(warm.charge_slope, cold.charge_slope) &&
                      same_path(path, fresh);
    if (same) return fresh;
    std::ostringstream os;
    os << source << ": warm call differs from cold at position " << p.position
       << ", " << std::hexfloat << p.freq_hz << " Hz, " << p.accel
       << " m/s^2, " << p.store_v << " V, z " << p.z_env << ": rates "
       << warm.amplitude_rate << ", " << warm.charge_current_a << " vs "
       << cold.amplitude_rate << ", " << cold.charge_current_a << "; root "
       << path.root << " vs " << fresh.root << ", slope " << path.slope
       << " vs " << fresh.slope << ", dr/du " << path.root_du << " vs "
       << fresh.root_du;
    tk::fail(os.str());
    return fresh;
}

/// What the generated cases covered, summed over the run.
struct coverage {
    std::size_t blocked = 0;     ///< calls that left no prediction
    std::size_t conducting = 0;  ///< calls that left a trusted path
    std::size_t clipped = 0;
    std::size_t clipped_conducting = 0;  ///< clipped and loaded by the bridge
    std::size_t extrapolated = 0;  ///< walk calls at the path's own drive
    std::size_t extrapolated_hit = 0;  ///< ... whose cell is the cold one
    std::size_t newton = 0;  ///< walk calls after a drive change
    std::size_t cold = 0;    ///< walk calls with nothing to predict from
    std::size_t garbage_extrapolated = 0;  ///< planted at the own drive
    std::size_t aimed_inside = 0;
};

/// Which predictor a call at `p` from `path` runs, as the kernel decides.
void count_entry(const op_point& p, const eh::damping_path& path,
                 const eh::damping_path& left, coverage& seen) {
    const prepared now = prepare(p);
    if (path.same_drive(now.omega, now.re, now.ma)) {
        const eh::damping_cell cell = grid().cell_of(path.extrapolate(now.u));
        ++seen.extrapolated;
        if (cell.usable && left.trusted(c_hi()) &&
            same_bits(cell.q_lo, final_cell(left).q_lo))
            ++seen.extrapolated_hit;
    } else if (path.trusted(c_hi())) {
        ++seen.newton;
    } else {
        ++seen.cold;
    }
}

void check_case(const warm_case& c, coverage& seen) {
    // The walk: one path carried from each point to the next.
    eh::damping_path walk_path;
    for (const op_point& p : c.walk) {
        const eh::damping_path entering = walk_path;
        const eh::damping_path left =
            require_identical(p, walk_path, "random-walk path");
        count_entry(p, entering, left, seen);
        require_reference_point(p);
        const bool clipped = open_circuit_clipped(p);
        const bool conducting = left.trusted(c_hi());
        seen.blocked += conducting ? 0 : 1;
        seen.conducting += conducting ? 1 : 0;
        seen.clipped += clipped ? 1 : 0;
        seen.clipped_conducting += clipped && conducting ? 1 : 0;
    }

    const op_point& target = c.walk.front();
    const prepared own = prepare(target);
    eh::damping_path foreign;
    rates(c.unrelated, foreign);
    const eh::damping_path cold = require_identical(target, foreign,
                                                    "unrelated path");

    for (eh::damping_path garbage : c.garbage) {
        seen.garbage_extrapolated +=
            garbage.same_drive(own.omega, own.re, own.ma) ? 1 : 0;
        require_identical(target, garbage, "planted path");
    }

    eh::damping_path beyond = c.beyond;
    require_identical(target, beyond, "beyond-c_hi path");

    // Predictions at, just inside and just outside the ends of the cold
    // final cell (width in (tol / 2, tol], so c_e +- tol / 4 lies inside
    // and c_e +- tol / 2 on or beyond an end), through either predictor.
    // The closed-form cell of an aim inside the cell is that cell;
    // whatever the aim, the result is the cold one.
    if (!cold.trusted(c_hi())) return;  // blocked: no cell
    const eh::damping_cell ref = final_cell(cold);
    if (!ref.usable) return;  // at the bracket's edge: never predicted
    const double ce = c_hi() * (ref.q_lo + 0.5 * grid().width);
    const double q = 0.25 * tol();
    const double aims[] = {ce,
                           ce - q,
                           ce + q,
                           ce - 2.0 * q,
                           ce + 2.0 * q,
                           ref.lo,
                           ref.hi,
                           std::nextafter(ref.lo, -k_inf),
                           std::nextafter(ref.lo, k_inf),
                           std::nextafter(ref.hi, -k_inf),
                           std::nextafter(ref.hi, k_inf)};
    for (const double aim : aims) {
        const eh::damping_cell cell = grid().cell_of(aim);
        const bool inside = aim > ref.lo && aim <= ref.hi;
        const bool reaches = cell.usable && same_bits(cell.lo, ref.lo) &&
                             same_bits(cell.hi, ref.hi);
        if (reaches != inside)
            tk::fail("an aimed prediction's cell disagrees with the cold cell");
        seen.aimed_inside += inside ? 1 : 0;
        for (const bool newton : {false, true}) {
            eh::damping_path path = aimed_at(target, aim, newton);
            require_identical(target, path,
                              newton ? "aimed Newton path"
                                     : "aimed extrapolated path");
        }
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

    // The draws reach every regime of the bridge, and the walk runs every
    // predictor: calls at the path's own drive extrapolate (mostly into
    // the cell the cold solve ends in), calls after a drive change take
    // the Newton step, and calls after a blocked one solve cold. Planted
    // garbage reaches the extrapolation too.
    EXPECT_GT(seen.blocked, 0u);
    EXPECT_GT(seen.conducting, 0u);
    EXPECT_GT(seen.clipped, 0u);
    EXPECT_GT(seen.clipped_conducting, 0u);
    EXPECT_GT(seen.extrapolated, 0u);
    EXPECT_GT(seen.extrapolated_hit, seen.extrapolated / 2);
    EXPECT_GT(seen.newton, 0u);
    EXPECT_GT(seen.cold, 0u);
    EXPECT_GT(seen.garbage_extrapolated, 0u);
    EXPECT_GT(seen.aimed_inside, 0u);
}

TEST(WarmStart, ConductingSolveLeavesAPathBlockedSolveClearsIt) {
    const op_point conducting{128, gen().resonant_frequency(128),
                              0.060 * eh::k_gravity, 2.8, 5e-4};
    eh::damping_path path;
    const eh::envelope_rates first = rates(conducting, path);
    EXPECT_GT(first.charge_current_a, 0.0);
    ASSERT_TRUE(path.trusted(c_hi()));
    // The kernel's root is the libm solve's to solver tolerance, and the
    // path keeps the point it solved at.
    EXPECT_NEAR(path.root, solve(conducting).c_electrical, tol());
    const prepared own = prepare(conducting);
    EXPECT_TRUE(path.same_drive(own.omega, own.re, own.ma));
    EXPECT_TRUE(same_bits(path.u, own.u));
    // A higher sink voltage conducts less: the root falls with u.
    EXPECT_LT(path.root_du, 0.0);

    // The path extrapolates into the cell its call converged in, so
    // re-solving the same point checks that cell first; the result does
    // not move.
    EXPECT_TRUE(final_cell(path).usable);
    EXPECT_TRUE(same_bits(path.extrapolate(own.u), path.root));
    const eh::damping_path learned = path;
    const eh::envelope_rates again = rates(conducting, path);
    EXPECT_TRUE(same_bits(again.amplitude_rate, first.amplitude_rate));
    EXPECT_TRUE(same_bits(again.charge_current_a, first.charge_current_a));
    EXPECT_TRUE(same_path(path, learned));

    op_point blocked = conducting;
    blocked.store_v = 50.0;
    const eh::envelope_rates b = rates(blocked, path);
    EXPECT_EQ(b.charge_current_a, 0.0);
    EXPECT_FALSE(path.trusted(c_hi()));
    EXPECT_TRUE(same_path(path, eh::damping_path{}));
}

TEST(WarmStart, PredictedCellStaysInsideTheColdBracket) {
    // A cell on the bracket's edge (a prediction below the first cell
    // keeps lo = 0; one above the last keeps hi = c_hi) is not usable,
    // nor is one whose lo is under 2 tol: the cold solve's blocked and
    // expansion decisions would not be implied.
    const eh::damping_grid g(1.0, 1e-6, 200);
    EXPECT_EQ(g.depth, 20);  // 2^-20 is the first width <= tol
    EXPECT_FALSE(g.cell_of(0.0).usable);
    EXPECT_FALSE(g.cell_of(0.5e-6).usable);
    EXPECT_FALSE(g.cell_of(1.5e-6).usable);
    EXPECT_FALSE(g.cell_of(1.0).usable);
    EXPECT_FALSE(g.cell_of(std::nextafter(1.0, 0.0)).usable);
    for (const double c : {k_nan, k_inf, -k_inf, -0.3, 2.0})
        EXPECT_FALSE(g.cell_of(c).usable) << c;

    // 2.5e-6 lies above 2 tol, but its cell starts at 2 * 2^-20 < 2 tol.
    EXPECT_FALSE(g.cell_of(2.5e-6).usable);
    const eh::damping_cell low = g.cell_of(3e-6);
    EXPECT_TRUE(low.usable);
    EXPECT_GE(low.lo, 2e-6);

    const eh::damping_cell cell = g.cell_of(0.3);
    ASSERT_TRUE(cell.usable);
    EXPECT_LT(cell.lo, 0.3);
    EXPECT_GE(cell.hi, 0.3);
    EXPECT_LE(cell.hi - cell.lo, 1e-6);
    EXPECT_LT(cell.hi, 1.0);
    EXPECT_TRUE(same_bits(cell.lo, g.c_hi * cell.q_lo));
    EXPECT_TRUE(same_bits(cell.hi, g.c_hi * (cell.q_lo + g.width)));

    // The iteration limit caps the depth, as it caps the cold bisection.
    const eh::damping_grid shallow(1.0, 1e-6, 12);
    EXPECT_EQ(shallow.depth, 12);
    const eh::damping_cell wide = shallow.cell_of(0.3);
    EXPECT_TRUE(wide.usable);
    EXPECT_GT(wide.hi - wide.lo, 1e-6);

    // The closed form needs exact q = j 2^-depth: a grid deeper than
    // k_max_depth has no usable cell, so every solve on it is cold.
    constexpr int k_max = eh::damping_grid::k_max_depth;
    const eh::damping_grid deepest(1.0, std::ldexp(1.0, -k_max), 200);
    EXPECT_EQ(deepest.depth, k_max);
    EXPECT_TRUE(deepest.cell_of(0.3).usable);
    const eh::damping_grid too_deep(1.0, std::ldexp(1.0, -k_max - 1), 200);
    EXPECT_EQ(too_deep.depth, k_max + 1);
    EXPECT_FALSE(too_deep.cell_of(0.3).usable);

    // The paper device bisects 25 deep.
    EXPECT_EQ(grid().depth, 25);
}

TEST(WarmStart, AGridTooDeepForTheClosedFormSolvesCold) {
    // A device so lightly damped that the tolerance (relative to the
    // mechanical damping) sits more than 2^52 below c_hi: the hook solves
    // every call cold, and a carried path still changes nothing.
    eh::microgenerator_params params;
    params.damping_ratio = 1e-13;
    const eh::microgenerator light(params);
    ASSERT_GT(eh::kernel_damping_grid(light).depth,
              eh::damping_grid::k_max_depth);
    const eh::electromagnetic_harvester em(params);
    const int pos = 128;
    const double f = light.resonant_frequency(pos) + 0.2;
    const double a = 0.060 * eh::k_gravity;
    eh::damping_path carried;
    std::size_t conducting = 0;
    for (int i = 0; i < 20; ++i) {
        const double v = 2.8 + 1e-4 * i;
        eh::damping_path fresh;
        const eh::envelope_rates cold = em.envelope_dynamics(
            f, a, pos, v, 5e-4, eh::conditioning_kind::diode_bridge, 1.0, {},
            fresh);
        const eh::envelope_rates warm = em.envelope_dynamics(
            f, a, pos, v, 5e-4, eh::conditioning_kind::diode_bridge, 1.0, {},
            carried);
        EXPECT_TRUE(same_bits(warm.amplitude_rate, cold.amplitude_rate)) << i;
        EXPECT_TRUE(same_bits(warm.charge_current_a, cold.charge_current_a))
            << i;
        EXPECT_TRUE(same_path(carried, fresh)) << i;
        conducting += cold.charge_current_a > 0.0 ? 1 : 0;
    }
    EXPECT_GT(conducting, 0u);
}

TEST(WarmStart, InvalidOperatingPointsThrowFromBothEntryPoints) {
    // The kernel's hook rejects what the libm solve rejects, with the same
    // exception, from a fresh path and a trusted one: a bad position before
    // a bad store voltage, as the first trial's response() reported it
    // before its bridge_average(); NaN stimulus and store voltage; a
    // frequency <= 0; a negative acceleration. The hook also rejects a
    // negative or NaN envelope, whose charging emf bridge_average rejects.
    const double f = gen().resonant_frequency(128);
    const double a = 0.060 * eh::k_gravity;
    eh::damping_path trusted;
    rates({128, f, a, 2.8, 5e-4}, trusted);
    ASSERT_TRUE(trusted.trusted(c_hi()));

    const op_point invalid_argument[] = {
        {128, f, a, -0.1, 5e-4}, {128, f, a, k_nan, 5e-4},
        {128, f, k_nan, 2.8, 5e-4}, {128, k_nan, a, 2.8, 5e-4},
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
    for (const double z : {-1e-6, k_nan}) {
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

/// The cold bisection's descent of the dyadic grid of [0, c_hi] towards
/// c, from the top: halvings at c_hi * 0.5 * (q_lo + q_hi) while the
/// cell is wider than tol, up to `limit` of them, going up when c lies
/// above the midpoint.
eh::damping_cell walk_from_top(double c, double c_hi, double tol, int limit) {
    double q_lo = 0.0;
    double q_hi = 1.0;
    for (int depth = 0; depth < limit && c_hi * (q_hi - q_lo) > tol; ++depth) {
        const double q = 0.5 * (q_lo + q_hi);
        (c > c_hi * q ? q_lo : q_hi) = q;
    }
    eh::damping_cell cell;
    cell.q_lo = q_lo;
    cell.lo = c_hi * q_lo;
    cell.hi = c_hi * q_hi;
    return cell;
}

/// One closed-form lookup: the prediction and the grid.
struct lookup {
    double c = 0.0;
    double c_hi = 0.0;
    double tol = 0.0;
    int max_iterations = 200;
};

std::string describe(const lookup& w) {
    std::ostringstream os;
    os << std::hexfloat << "c " << w.c << ", c_hi " << w.c_hi << ", tol "
       << w.tol << ", max_iterations " << w.max_iterations;
    return os.str();
}

}  // namespace

TEST(WarmStart, ClosedFormCellIsTheCellAWalkFromTheTopReaches) {
    const double hi0 = c_hi();
    const double tol0 = tol();
    tk::prng r(0x5e5u);

    std::vector<lookup> lookups;
    const auto add = [&](double c, double grid_hi = -1.0,
                         double grid_tol = -1.0, int max_iterations = 200) {
        lookups.push_back({c, grid_hi < 0.0 ? hi0 : grid_hi,
                           grid_tol < 0.0 ? tol0 : grid_tol, max_iterations});
    };
    // Slow creep across many final cells, and jumps.
    double c = 0.3 * hi0;
    for (int i = 0; i < 400; ++i) {
        c += r.uniform(0.0, 4.0) * tol0;
        add(c);
    }
    for (int i = 0; i < 400; ++i) add(r.uniform(0.0, hi0));
    // Special and out-of-range predictions, and the bracket's ends.
    for (const double special :
         {k_nan, k_inf, -k_inf, hi0, 2.0 * hi0, -1.0, 0.0, -0.0, 2.0 * tol0,
          std::nextafter(2.0 * tol0, 0.0), std::nextafter(hi0, 0.0)})
        add(special);
    // Other grids: another c_hi, coarser and finer tolerances (down to
    // the deepest grid the closed form covers, and past it), and
    // iteration limits below the natural depth.
    for (int i = 0; i < 40; ++i) {
        const double aim = r.uniform(0.001, 0.999);
        add(aim * hi0, 1.5 * hi0);
        add(aim * hi0, -1.0, 2.0 * tol0);
        add(aim * hi0, -1.0, hi0 / 1024.0);
        add(aim, 1.0, std::ldexp(1.0, -40));
        add(aim, 1.0, std::ldexp(1.0, -52));
        add(aim, 1.0, std::ldexp(1.0, -53));
        add(aim, 3.0, std::ldexp(3.0, -52));
        for (const int limit : {30, 25, 24, 3, 0})
            add(aim * hi0, -1.0, -1.0, limit);
    }

    std::size_t usable = 0;
    for (std::size_t i = 0; i < lookups.size(); ++i) {
        lookup w = lookups[i];
        const eh::damping_grid g(w.c_hi, w.tol, w.max_iterations);
        // Every 7th lookup aims exactly at, or an ulp beside, a grid point
        // of the final depth.
        if (i % 7 == 0 && g.depth > 0 && g.depth <= 52) {
            const double j = std::floor(r.uniform(0.0, 1.0) / g.width);
            const double end = w.c_hi * (j * g.width);
            const int side = static_cast<int>((i / 7) % 3) - 1;
            w.c = side == 0 ? end : std::nextafter(end, side < 0 ? -k_inf : k_inf);
        }
        const eh::damping_cell got = g.cell_of(w.c);
        const eh::damping_cell want =
            walk_from_top(w.c, w.c_hi, w.tol, w.max_iterations);
        const bool want_usable = g.depth <= eh::damping_grid::k_max_depth &&
                                 want.lo >= 2.0 * w.tol && want.hi < w.c_hi;
        ASSERT_EQ(got.usable, want_usable)
            << "lookup " << i << " (" << describe(w) << ")";
        if (!want_usable) continue;
        ++usable;
        ASSERT_TRUE(same_bits(got.q_lo, want.q_lo) &&
                    same_bits(got.lo, want.lo) && same_bits(got.hi, want.hi))
            << "lookup " << i << " (" << describe(w) << "): got ["
            << std::hexfloat << got.lo << ", " << got.hi << "], want ["
            << want.lo << ", " << want.hi << "]";
    }
    EXPECT_GT(usable, lookups.size() / 2);
}
