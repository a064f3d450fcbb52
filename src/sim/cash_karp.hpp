// One Cash–Karp RK45 step, element by element: the tableau, the stage
// inputs, the embedded fifth/fourth-order pair with its error ratio, and
// the step-size control, from which rk45_integrator (ode.cpp) builds its
// steps.
//
// The exponential form. A system may name one stiff element s of its
// state and report its Jacobian column a = df/dx_s (analog_system::
// stiff_column); a_s = -lambda with lambda > 0 is the element's
// relaxation rate. Then L = a e_s^T satisfies L^2 = -lambda L, so
// exp(tau L) v = v + psi(tau) a v_s with psi(tau) = (1 - exp(-lambda
// tau)) / lambda, and the step integrates that column's linear dynamics
// exactly around the step start's equilibrium z* = x_s + k1_s / lambda
// (an integrating-factor, or Lawson, Runge–Kutta step):
//
//   X_i = x + psi(c_i h) a d0 + h sum_j b_ij [N_j + psi((c_i - c_j) h) a N_j,s]
//   N_j = k_j - a (X_j,s - z*),   d0 = x_s - z*,
//
// and the fifth- and fourth-order solutions use the c and d weights with
// psi((1 - c_j) h). Element by element that is the plain expression on
// the remainders N_j (remainder()) plus a times one shift per stage
// (stiff_step, applied by shifted()). The error ratio and the step
// control are the plain step's. N_1,s vanishes by the choice of z*, so
// the shifts leave out its (rounding-sized) terms.
//
// The nodes are 0, 8, 12, 24, 40 and 35 fortieths of h, so every factor
// is a power of q = exp(-lambda h / 40): one std::exp per step.
// Far from equilibrium (|d0| > 1e-3 |z*|: frequency steps, retunes,
// dropout edges) the step is capped at lambda h = 3, inside Cash–Karp's
// own real-axis bound of about 3.7: there a nonlinear remainder that
// decays like exp(-2 lambda t) (the bridge current's) is missed by both
// embedded solutions alike, so the error estimate cannot see it.
#pragma once

#include <algorithm>
#include <cmath>

namespace ehdse::sim::cash_karp {

// Stage times, as fractions of the step.
constexpr double a2 = 1.0 / 5.0;
constexpr double a3 = 3.0 / 10.0;
constexpr double a4 = 3.0 / 5.0;
constexpr double a5 = 1.0;
constexpr double a6 = 7.0 / 8.0;

constexpr double b21 = 1.0 / 5.0;
constexpr double b31 = 3.0 / 40.0, b32 = 9.0 / 40.0;
constexpr double b41 = 3.0 / 10.0, b42 = -9.0 / 10.0, b43 = 6.0 / 5.0;
constexpr double b51 = -11.0 / 54.0, b52 = 5.0 / 2.0, b53 = -70.0 / 27.0,
                 b54 = 35.0 / 27.0;
constexpr double b61 = 1631.0 / 55296.0, b62 = 175.0 / 512.0,
                 b63 = 575.0 / 13824.0, b64 = 44275.0 / 110592.0,
                 b65 = 253.0 / 4096.0;

// Fifth-order weights (c) and the embedded fourth-order ones (d).
constexpr double c1 = 37.0 / 378.0, c3 = 250.0 / 621.0, c4 = 125.0 / 594.0,
                 c6 = 512.0 / 1771.0;
constexpr double d1 = 2825.0 / 27648.0, d3 = 18575.0 / 48384.0,
                 d4 = 13525.0 / 55296.0, d5 = 277.0 / 14336.0, d6 = 1.0 / 4.0;

/// Input of stage 2..6 for one element x of the state, from the earlier
/// stages' derivatives k1..k5 at step dt.
inline double stage2(double x, double dt, double k1) {
    return x + dt * (b21 * k1);
}
inline double stage3(double x, double dt, double k1, double k2) {
    return x + dt * (b31 * k1 + b32 * k2);
}
inline double stage4(double x, double dt, double k1, double k2, double k3) {
    return x + dt * (b41 * k1 + b42 * k2 + b43 * k3);
}
inline double stage5(double x, double dt, double k1, double k2, double k3,
                     double k4) {
    return x + dt * (b51 * k1 + b52 * k2 + b53 * k3 + b54 * k4);
}
inline double stage6(double x, double dt, double k1, double k2, double k3,
                     double k4, double k5) {
    return x + dt * (b61 * k1 + b62 * k2 + b63 * k3 + b64 * k4 + b65 * k5);
}

/// The fifth-order solution, which an accepted step keeps.
inline double fifth_order(double x, double dt, double k1, double k3,
                          double k4, double k6) {
    return x + dt * (c1 * k1 + c3 * k3 + c4 * k4 + c6 * k6);
}

/// The embedded fourth-order solution, for the error estimate.
inline double fourth_order(double x, double dt, double k1, double k3,
                           double k4, double k5, double k6) {
    return x + dt * (d1 * k1 + d3 * k3 + d4 * k4 + d5 * k5 + d6 * k6);
}

/// One element's error against its tolerance; the step is accepted when
/// the largest ratio over the state is at most 1.
inline double error_ratio(double x, double x5, double x4, double abs_tol,
                          double rel_tol) {
    const double scale =
        abs_tol + rel_tol * std::max(std::abs(x), std::abs(x5));
    return std::abs(x5 - x4) / scale;
}

/// Next step after accepting step `dt` at error ratio `err` (at most 5x
/// growth, capped at max_dt).
inline double grown_dt(double dt, double err, double max_dt) {
    const double grow = err > 1e-10 ? 0.9 * std::pow(err, -0.2) : 5.0;
    return std::min(dt * std::min(grow, 5.0), max_dt);
}

/// Retry step after rejecting step `dt` at error ratio `err` > 1 (at
/// least a tenth of it).
inline double shrunk_dt(double dt, double err) {
    return dt * std::max(0.9 * std::pow(err, -0.25), 0.1);
}

// --- The exponential form (see the top of this file) ----------------------

/// |d0| above this share of |z*| counts as far from equilibrium.
constexpr double k_far_from_equilibrium = 1e-3;
/// Largest lambda h of a step taken far from equilibrium.
constexpr double k_far_rate_step = 3.0;

/// Remainder N_j of one element of stage derivative k, for column entry
/// a and the stage's stiff deviation X_j,s - z*.
inline double remainder(double k, double a, double deviation) {
    return k - a * deviation;
}

/// An element of an exponential stage input or solution: its plain
/// expression on the remainders, plus column entry a times the step's
/// shift for that stage.
inline double shifted(double plain, double a, double shift) {
    return plain + a * shift;
}

/// One exponential step: the equilibrium, the (capped) step and the psi
/// factors, and from them the per-stage shifts. The n_j arguments are the
/// stiff element's remainders N_j,s.
struct stiff_step {
    double z_star = 0.0;  ///< the step start's equilibrium of x_s
    double d0 = 0.0;      ///< x_s - z*
    double h = 0.0;       ///< the step, capped far from equilibrium
    // psi(k h / 40) for every k the tableau needs; m5 is k = -5.
    double p4 = 0.0, p5 = 0.0, p8 = 0.0, p11 = 0.0, p12 = 0.0, p16 = 0.0,
           p23 = 0.0, p24 = 0.0, p27 = 0.0, p28 = 0.0, p32 = 0.0, p35 = 0.0,
           p40 = 0.0, m5 = 0.0;

    /// Set up a step of at most `dt` at relaxation rate `lambda` from the
    /// stiff element's value xs and rate k1s at the step start. False
    /// (take the plain step) unless lambda is finite and positive.
    bool start(double lambda, double xs, double k1s, double dt) {
        if (!(lambda > 0.0 && std::isfinite(lambda))) return false;
        const double inv = 1.0 / lambda;
        z_star = xs + k1s * inv;
        d0 = xs - z_star;
        h = std::abs(d0) > k_far_from_equilibrium * std::abs(z_star)
                ? std::min(dt, k_far_rate_step * inv)
                : dt;
        const double q = std::exp(-(lambda * h) * (1.0 / 40.0));
        const double q2 = q * q, q3 = q2 * q, q4 = q2 * q2, q5 = q4 * q;
        const double q8 = q4 * q4, q16 = q8 * q8, q24 = q16 * q8;
        const double q32 = q16 * q16;
        const auto psi = [inv](double qk) { return (1.0 - qk) * inv; };
        p4 = psi(q4);
        p5 = psi(q5);
        p8 = psi(q8);
        p11 = psi(q8 * q3);
        p12 = psi(q8 * q4);
        p16 = psi(q16);
        p23 = psi(q16 * q4 * q3);
        p24 = psi(q24);
        p27 = psi(q24 * q3);
        p28 = psi(q24 * q4);
        p32 = psi(q32);
        p35 = psi(q32 * q3);
        p40 = psi(q32 * q8);
        m5 = psi(1.0 / q5);
        return true;
    }

    double shift2() const { return p8 * d0; }
    double shift3(double n2) const { return p12 * d0 + h * (b32 * p4 * n2); }
    double shift4(double n2, double n3) const {
        return p24 * d0 + h * (b42 * p16 * n2 + b43 * p12 * n3);
    }
    double shift5(double n2, double n3, double n4) const {
        return p40 * d0 +
               h * (b52 * p32 * n2 + b53 * p28 * n3 + b54 * p16 * n4);
    }
    double shift6(double n2, double n3, double n4, double n5) const {
        return p35 * d0 + h * (b62 * p27 * n2 + b63 * p23 * n3 +
                               b64 * p11 * n4 + b65 * m5 * n5);
    }
    /// Shifts of the fifth- and fourth-order solutions (psi(0) = 0 drops
    /// the fourth order's stage-5 term).
    double shift_fifth(double n3, double n4, double n6) const {
        return p40 * d0 + h * (c3 * p28 * n3 + c4 * p16 * n4 + c6 * p5 * n6);
    }
    double shift_fourth(double n3, double n4, double n6) const {
        return p40 * d0 + h * (d3 * p28 * n3 + d4 * p16 * n4 + d6 * p5 * n6);
    }
};

}  // namespace ehdse::sim::cash_karp
