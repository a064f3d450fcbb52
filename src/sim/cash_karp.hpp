// One Cash–Karp RK45 step, element by element: the tableau, the stage
// inputs, the embedded fifth/fourth-order pair with its error ratio, and
// the step-size control. The scalar rk45_integrator (ode.cpp) and the
// lane-masked batch_rk45_integrator (batch_ode.cpp) both build their
// steps from these expressions, so a state advanced by either integrator
// has the same bits.
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

}  // namespace ehdse::sim::cash_karp
