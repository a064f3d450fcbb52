// Warm start for the self-consistent damping bisection of the
// electromagnetic envelope kernel (electromagnetic_batch.cpp), which the
// scalar envelope_dynamics hook runs on one lane and an envelope_batch on
// many. The libm reference solve (solve_damping, envelope.hpp) is cold
// and keeps its own 0.5 * (lo + hi) grid.
//
// The kernel bisects f(c) = T(c) - c on [0, c_hi], where T is the
// equivalent damping the diode bridge presents at trial damping c. It
// bisects on a dyadic grid (damping_grid): every point is c_hi * q for an
// exact dyadic fraction q, each midpoint is c_hi * 0.5 * (q_lo + q_hi),
// an expansion doubles q_hi, and the stop rule is c_hi * (q_hi - q_lo) >
// tol. That rule is exact and the same for every cell of a depth, so the
// cold solve of the unexpanded bracket always stops at one depth D (25 on
// the paper device), and the final cell holding a point c is
// floor(c / c_hi * 2^D) in closed form, with at most one +-1 correction
// by comparison — a few arithmetic operations, no walk of dependent
// branches.
//
// Along one simulation run consecutive solves sit at nearly the same
// operating point, so the root moves smoothly. A damping_path keeps, from
// the last conducting solve, the regula-falsi root r* of its final cell,
// the slope of f across that cell, the prepared operating point it solved
// at (the kernel's omega, re and ma rows and the sink voltage u = V +
// 2 V_d), and the root's slope in u, dr/du = -(dT/du) / slope. T depends
// on u only through x = u / e (below), and dx/du = x / u, so
//     dT/du = -(4 phi^2 / (pi R)) x sqrt(1 - x^2) / u,
// with x from the solve's final mechanics (not from its last trial: that
// would make the learned dr/du, and so the path a solve leaves, depend on
// the path it started from). The next solve predicts its root:
//   * at the same mechanics (omega, re and ma all equal — the store
//     voltage alone moved), c = r* + dr/du (u - u0), with no trial of T;
//   * after a retune, a frequency step or an amplitude change, with one
//     trial at r* and a Newton step, c = r* - f(r*) / slope.
// Two trials check that the root lies in the final cell holding c (T(lo)
// > lo and T(hi) <= hi), and the cell's midpoint is the result, where
// only the mechanics are evaluated: two trials (three after a drive
// change) and one mechanics evaluation instead of the cold solve's 27
// trials and one. A cell the trials reject, and any other case, solves
// cold.
//
// Why the result is bit-identical to the cold solve for any path (stale,
// foreign or garbage): T depends on c only through x = u / e, as
// T = (2 phi^2 / (pi R)) g(x) with g'(x) = -2 sqrt(1 - x^2) <= 0, and the
// emf amplitude e does not increase with c, so f falls with slope <= -1.
// The checked cell lies on the cold bisection's grid at the depth where
// the cold solve stops: its ends are c_hi * q for the very q the cold
// solve would compute there (q = j 2^-D is exact), so a trial there has
// the cold solve's own operands. Those ends are exactly the points where
// a bisection into the cell makes its last "up" and its last "down"
// decision. Every other decision on the way down lies at least one final
// cell width (about tol / 2 or more) from that checked sign change,
// orders of magnitude beyond T's rounding error, so the cold solve
// decides it the same way and ends in the same cell; the midpoint is then
// the cold solve's final evaluation. Requiring lo >= 2 tol and hi < c_hi
// makes the cold solve's "blocked at c = 0" and "expand past c_hi"
// decisions implied as well. Only the number of evaluations changes.
//
// The kernel evaluates T as K g(x) with no division (x from the
// mechanical impedance, electromagnetic_batch.cpp), not as 2 P_mech /
// (omega Z)^2 through the bridge's power, so its T rounds differently
// from that form. The argument above covers either form, since warm and
// cold solves share one; between the forms, T's rounding reaches the
// result only through a decision within a few ulps of T(c) = c. The two
// gave the same bits in every case checked (the golden fixtures, 9,000
// seeded evaluations, 32 million seeded hook calls), which is a
// measurement, not a proof.
//
// Predictor state is untrusted input: the argument above holds whatever
// the path holds, because the check decides, not the prediction. The
// extrapolation and the Newton step may give any value; one that is not
// in [2 tol, c_hi) (NaN and infinities included) has no usable cell, and
// the lane solves cold. A Newton trial needs a root in [0, c_hi) and a
// falling slope — a root below 0 is no point of the bracket. The grid is
// exact only while D <= damping_grid::k_max_depth (52): a deeper grid
// has no usable cell, so every solve on it is cold.
//
// A path is per-run state: a scalar run's envelope_system owns one and
// passes it to the hook, a batch run's envelope_batch owns one per lane
// (never shared between runs or threads); harvester models stay
// stateless.
#pragma once

namespace ehdse::harvester {

/// A final-depth cell [lo, hi] = c_hi * [q_lo, q_lo + width] of a
/// damping_grid, and whether the kernel may check it instead of solving
/// cold.
struct damping_cell {
    double q_lo = 0.0;
    double lo = 0.0;
    double hi = 0.0;
    bool usable = false;
};

/// The cold bisection's grid of [0, c_hi]: the points c_hi * q for
/// dyadic q, halved while the cell width c_hi * (q_hi - q_lo) exceeds
/// `tol`, for at most `max_iterations` halvings.
struct damping_grid {
    /// Deepest final depth the closed form covers: a cell index j below
    /// 2^depth and j * 2^-depth must be exact doubles.
    static constexpr int k_max_depth = 52;

    double c_hi = 0.0;
    double tol = 0.0;
    int max_iterations = 0;
    int depth = 0;       ///< where the cold bisection of [0, c_hi] stops
    double width = 1.0;  ///< 2^-depth, a final cell's width in q
    double scale = 0.0;  ///< 2^depth / c_hi, cells per unit of c

    damping_grid(double c_hi_, double tol_, int max_iterations_) noexcept
        : c_hi(c_hi_), tol(tol_), max_iterations(max_iterations_) {
        // The cold stop rule, halving by halving.
        for (; depth < max_iterations && c_hi * width > tol; ++depth)
            width *= 0.5;
        scale = 1.0 / width / c_hi;
    }

    /// The final-depth cell with lo < c <= hi. Usable when the grid is
    /// within k_max_depth, c lies in [2 tol, c_hi), lo >= 2 tol and
    /// hi < c_hi.
    damping_cell cell_of(double c) const noexcept {
        constexpr double k_two52 = 4503599627370496.0;
        // Any c outside [2 tol, c_hi), NaN included, is parked at 0 so
        // that the arithmetic stays finite.
        const bool inside = c >= 2.0 * tol && c < c_hi;
        const double t = (inside ? c : 0.0) * scale;
        // floor(t) for 0 <= t < 2^52: adding 2^52 rounds t to an integer.
        const double rounded = (t + k_two52) - k_two52;
        const double j = rounded > t ? rounded - 1.0 : rounded;
        // t and the cell ends carry rounding: step to the neighbouring
        // cell where the comparison puts c there.
        double q_lo = j * width;
        const double lo = c_hi * q_lo;
        const double hi = c_hi * (q_lo + width);
        q_lo += c <= lo ? -width : c > hi ? width : 0.0;
        damping_cell cell;
        cell.q_lo = q_lo;
        cell.lo = c_hi * q_lo;
        cell.hi = c_hi * (q_lo + width);
        cell.usable = depth <= k_max_depth && inside && cell.lo < c &&
                      c <= cell.hi && cell.lo >= 2.0 * tol &&
                      cell.hi < c_hi;
        return cell;
    }
};

/// Predictor state one damping solve leaves for the next.
/// Default-constructed: no prediction.
struct damping_path {
    double root = 0.0;     ///< r*, the regula-falsi root of the final cell
    double slope = 0.0;    ///< of f across that cell; < 0 when usable
    double root_du = 0.0;  ///< dr/du at that solve
    /// The prepared operating point of that solve.
    double omega = 0.0, re = 0.0, ma = 0.0, u = 0.0;

    /// Whether the state is worth a trial of T at `root`: root in
    /// [0, c_hi) and a falling slope. False for NaN or infinite values.
    bool trusted(double c_hi) const noexcept {
        return root >= 0.0 && root < c_hi && slope < 0.0;
    }

    /// Whether the last solve ran at the same mechanics.
    bool same_drive(double omega_now, double re_now,
                    double ma_now) const noexcept {
        return omega == omega_now && re == re_now && ma == ma_now;
    }

    /// The root extrapolated to sink voltage `u_now` at the same drive.
    double extrapolate(double u_now) const noexcept {
        return root + root_du * (u_now - u);
    }

    /// Newton step from `root`, where f now reads `f_root`.
    double newton(double f_root) const noexcept {
        return root - f_root / slope;
    }

    /// Keep a conducting solve at operating point (omega, re, ma, u): its
    /// final cell [lo, hi], where f read `f_lo` and `f_hi`, and dT/du at
    /// its result.
    void learn(double lo, double f_lo, double hi, double f_hi, double dT_du,
               double omega_now, double re_now, double ma_now,
               double u_now) noexcept {
        slope = (f_hi - f_lo) / (hi - lo);
        root = lo - f_lo / slope;
        root_du = -dT_du / slope;
        omega = omega_now;
        re = re_now;
        ma = ma_now;
        u = u_now;
    }

    /// Drop the prediction (a blocked solve has no cell).
    void forget() noexcept { *this = damping_path{}; }
};

}  // namespace ehdse::harvester
