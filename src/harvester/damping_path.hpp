// Warm start for the self-consistent damping bisection of the
// electromagnetic envelope kernel (electromagnetic_batch.cpp), which the
// scalar envelope_dynamics hook runs on one lane and an envelope_batch on
// many. The libm reference solve (solve_damping, envelope.hpp) is cold.
//
// The kernel bisects f(c) = T(c) - c on [0, c_hi], where T is the
// equivalent damping the diode bridge presents at trial damping c. Along
// one simulation run consecutive solves sit at nearly the same operating
// point, so the root moves smoothly. A damping_path keeps the previous
// solve's root and the slope of f across that solve's final cell, both
// from trials it already made. The next solve spends one trial at that
// root, takes one Newton step, and walks the cold bisection's own
// 0.5 * (lo + hi) grid and stop rule down to the final-depth cell holding
// the prediction — arithmetic only, no trial of T. Two trials check that
// the root lies in that cell (T(lo) > lo and T(hi) <= hi), and the
// cell's midpoint is the result, where only the mechanics are evaluated:
// three trials of T and one mechanics evaluation instead of the cold
// solve's 27 trials and one. Any other case solves cold.
//
// Why the result is bit-identical to the cold solve for any path (stale,
// foreign or garbage): T depends on c only through x = u / e, as
// T = (2 phi^2 / (pi R)) g(x) with g'(x) = -2 sqrt(1 - x^2) <= 0, and the
// emf amplitude e does not increase with c, so f falls with slope <= -1.
// The walked cell lies on the cold bisection's grid at the depth where
// the cold solve stops. Its ends are exactly the points where a bisection
// into the cell makes its last "up" and its last "down" decision, and the
// check evaluates T there with the cold solve's own operands. Every other
// decision on the way down lies at least one final cell width (about
// tol / 2 or more) from that checked sign change, orders of magnitude
// beyond T's rounding error, so the cold solve decides it the same way
// and ends in the same cell; the midpoint is then the cold solve's final
// evaluation. Requiring lo >= 2 tol and hi < c_hi makes the cold solve's
// "blocked at c = 0" and "expand past c_hi" decisions implied as well.
// Only the number of evaluations changes.
//
// The walk resumes where the last one passed. Walking [0, c_hi] down to
// the final depth (25 halvings on the paper device) is a chain of
// dependent steps, and consecutive predictions mostly share its upper
// part. So the path keeps the cell its last walk from the top passed at
// depth k_resume_depth, with the c_hi and tol of that grid. A prediction
// c inside that cell on the same grid (lo < c <= hi, the walk's own rule
// of going up when c > mid), with an iteration limit of at least
// k_resume_depth, resumes the walk there. That cannot change the cell
// the walk ends in: every shallower cell of the grid contains the stored
// one, and every shallower decision goes the same way for any point of
// it (up exactly when the stored cell lies above that decision's
// midpoint), so a walk from the top passes the same cells, with the same
// widths against the same tol, and reaches the stored cell at the same
// depth.
//
// Predictor state is untrusted input: the argument above holds whatever
// the root and slope are, because the walk and the check decide, not the
// prediction. A root that is not in [0, c_hi) (NaN and infinities
// included) or a slope that is not negative is not worth a trial — and a
// root below 0 would make T throw — so such a path solves cold. Only the
// walk writes the resume cell, so no caller can plant a cell that is off
// the grid, and a prediction that is NaN, infinite or beyond c_hi resumes
// only where a walk from the top would pass anyway.
//
// A path is per-run state: a scalar run's envelope_system owns one and
// passes it to the hook, a batch run's envelope_batch owns one per lane
// (never shared between runs or threads); harvester models stay
// stateless.
#pragma once

#include <algorithm>

namespace ehdse::harvester {

/// Final-depth cell of the cold bisection's grid, reached after `depth`
/// halvings of [0, c_hi]. depth == 0 means no usable cell — solve cold.
struct damping_cell {
    double lo = 0.0;
    double hi = 0.0;
    int depth = 0;
    /// Of the `depth` halvings, those the walk computed: fewer when it
    /// resumed from the path's stored cell.
    int halvings = 0;
};

/// Predictor state one damping solve leaves for the next.
/// Default-constructed: no prediction.
struct damping_path {
    /// Depth of the cell a walk from the top stores for the next walk to
    /// resume from. Deeper resumes save more halvings but fewer walks
    /// stay inside the stored cell.
    static constexpr int k_resume_depth = 16;

    double root = 0.0;   ///< the previous solve's c_e
    double slope = 0.0;  ///< of f across its final cell; < 0 when usable

    /// Whether the state is worth a trial of T at `root`: root in
    /// [0, c_hi) and a falling slope. False for NaN or infinite values.
    bool trusted(double c_hi) const noexcept {
        return root >= 0.0 && root < c_hi && slope < 0.0;
    }

    /// Newton step from `root`, where f now reads `f_root`, then the walk
    /// of the cold bisection's grid of [0, c_hi] while the cell is wider
    /// than `tol` and within `max_iterations` (the cold stop rule, so the
    /// walked depth counts towards the iteration limit), resumed from the
    /// stored cell when it holds the prediction. Returns depth 0 unless
    /// the reached cell has lo >= 2 tol and hi < c_hi.
    damping_cell predicted_cell(double f_root, double c_hi, double tol,
                                int max_iterations) noexcept {
        const double c = root - f_root / slope;
        const bool resume = max_iterations >= k_resume_depth &&
                            resume_.depth == k_resume_depth &&
                            resume_c_hi_ == c_hi && resume_tol_ == tol &&
                            resume_.lo < c && c <= resume_.hi;
        double lo = resume ? resume_.lo : 0.0;
        double hi = resume ? resume_.hi : c_hi;
        int depth = resume ? k_resume_depth : 0;
        double mid = 0.5 * (lo + hi);
        const auto walk = [&](int limit) {
            for (; depth < limit && (hi - lo) > tol; ++depth) {
                // Both candidates for the next 0.5 * (lo + hi), computed
                // while the comparison resolves (the sum commutes exactly).
                const double mid_up = 0.5 * (mid + hi);
                const double mid_down = 0.5 * (lo + mid);
                const bool up = c > mid;
                lo = up ? mid : lo;
                hi = up ? hi : mid;
                mid = up ? mid_up : mid_down;
            }
        };
        walk(std::min(max_iterations, k_resume_depth));
        if (depth == k_resume_depth) {
            resume_ = {lo, hi, depth, depth};
            resume_c_hi_ = c_hi;
            resume_tol_ = tol;
        }
        walk(max_iterations);
        if (!(lo >= 2.0 * tol && hi < c_hi)) return {};
        return {lo, hi, depth, resume ? depth - k_resume_depth : depth};
    }

    /// Keep a solve's result: root `c_e`, final cell [lo, hi] where f
    /// read `f_lo` and `f_hi`.
    void learn(double c_e, double lo, double f_lo, double hi,
               double f_hi) noexcept {
        root = c_e;
        slope = (f_hi - f_lo) / (hi - lo);
    }

    /// Drop the prediction (a blocked solve has no cell). The stored
    /// walk cell is not a prediction and stays.
    void forget() noexcept {
        root = 0.0;
        slope = 0.0;
    }

private:
    damping_cell resume_;  ///< depth k_resume_depth when set
    double resume_c_hi_ = 0.0;
    double resume_tol_ = 0.0;
};

}  // namespace ehdse::harvester
