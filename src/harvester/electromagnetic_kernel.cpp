// The electromagnetic envelope RHS: the damping kernel that
// electromagnetic_harvester::envelope_dynamics runs at one operating
// point.
//
// Most of the RHS's time is the damping solve: a bisection on the
// self-consistent electrical damping (envelope.hpp) whose every trial
// evaluates the equivalent damping the averaged diode bridge presents at
// trial damping c. With emf e = phi omega Z (Z the displacement
// amplitude) and the conduction-angle argument x = u / e, that damping
// 2 P_mech / (omega Z)^2 reduces to
//     T(c) = K g(x),  K = 2 phi^2 / (pi R),
//     g(x) = pi/2 - asin x - x sqrt(1 - x^2),
// and Z = min(m A / |Z_m(c)|, x_max) turns x into
//     x = min(max(x_a |Z_m(c)|, x_b), 1),
//     x_a = u / (phi omega m A),  x_b = u / (phi omega x_max),
// where |Z_m(c)| = sqrt(re^2 + ((c_m + c) omega)^2) is the modulus of
// the dynamic stiffness and x_b is the end stops' limit. K, x_a and x_b
// are prepared once per call, so a trial costs three square roots and no
// division. A blocked bridge (e <= u) clamps x to 1, where g is exactly
// 0. libm's asin is replaced by a fitted polynomial (numeric/det_math.hpp),
// and cos(asin x) = sqrt(1 - x^2). The kernel agrees with the libm
// reference solve (solve_envelope) to solver tolerance.
//
// The caller's damping_path warm-starts the bisection, bit-identical to
// the kernel's cold bisection on its dyadic grid
// (harvester/damping_path.hpp): at an unchanged drive the root is
// extrapolated in the store voltage without a trial; after a drive change
// one trial at the previous root gives a Newton step. One pair of trials
// checks the predicted cell, and a final evaluation at the converged
// damping runs the mechanics, which also give x and so dT/du for the next
// prediction (the bridge there is not read).
//
// kernel_rates and eval_damping are always inlined into the hook, which
// holds the operating point, a copy of the path and the outputs in
// locals: nothing takes their address, so GCC keeps the solve's values in
// registers. (Returning the outputs as one struct from kernel_rates
// instead made a full-hour evaluation about 15% slower; EXPERIMENTS.md.)
#include "harvester/electromagnetic.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "harvester/envelope.hpp"
#include "numeric/det_math.hpp"

namespace ehdse::harvester {

namespace {

constexpr double k_pi = std::numbers::pi;

/// The prepared operating point of one call: omega, k_eff - m omega^2,
/// m A, and the bridge's sink voltage V + 2 Vd.
struct operating_point {
    double omega, re, ma, u;
};

/// One trial of the damping fixed point at `op`: T(c) = K g(x), the
/// damping the bridge presents at trial damping c, with x_a = `xa` and
/// x_b = `xb`.
[[gnu::always_inline]] inline double eval_damping(const operating_point op,
                                                  double xa, double xb,
                                                  double c_mech, double K,
                                                  double c) {
    const double im = (c_mech + c) * op.omega;
    const double z = std::sqrt(op.re * op.re + im * im);
    // A NaN operand lands at 1 (blocked), as the comparisons of a
    // not-a-number emf do.
    const double x = std::min(1.0, std::max(xa * z, xb));
    return K * (0.5 * k_pi - numeric::asin_unit(x) -
                x * std::sqrt(1.0 - x * x));
}

/// The envelope RHS at operating point `op`, store voltage `v_in` and
/// envelope `z_in`, with the damping bisected on `grid`
/// (kernel_damping_grid of `gen`) from `path`, which it updates: the
/// amplitude rate, the charging current, 1/tau and the current's slope
/// d ich / d z_env into `r`. For the hook's emf checks, the diode bridge
/// also sets `za` to the final mechanics' displacement amplitude and `e`
/// to the charging emf (the mppt front-end leaves both alone).
[[gnu::always_inline]] inline void kernel_rates(
    const microgenerator& gen, const damping_grid& grid,
    const operating_point op, damping_path& path, double v_in, double z_in,
    conditioning_kind conditioning, double efficiency, envelope_rates& r,
    double& za, double& e) {
    const auto& gp = gen.params();
    const double m = gp.mass_kg;
    const double c_mech = gen.mech_damping();
    const double phi = gp.coupling_v_per_ms;
    const double xmax = gp.max_displacement_m;
    const double inv_pir = 1.0 / (k_pi * gp.coil_resistance_ohm);

    if (conditioning == conditioning_kind::diode_bridge) {
        // --- Bisection for the self-consistent electrical damping, the
        // bisection of solve_damping (same tolerance, same bracket, same
        // expansion and stop rules) on the dyadic grid c_hi * q, plus the
        // warm start. ---
        const double c_hi = grid.c_hi;
        const double tol = grid.tol;
        const double K = 2.0 * phi * phi * inv_pir;
        const double phi_omega = phi * op.omega;
        const double xa = op.u / (phi_omega * op.ma);
        const double xb = op.u / (phi_omega * xmax);

        // Warm start (harvester/damping_path.hpp): at the path's mechanics
        // the root is extrapolated to the sink voltage; after a drive
        // change one trial at the previous root gives a Newton step. The
        // prediction's final cell comes in closed form. The next two
        // trials probe the cell's ends; without a cell they probe 0 and
        // c_hi, which are exactly the cold solve's first two trials.
        const bool same = path.same_drive(op.omega, op.re, op.ma);
        const bool newton = !same && path.trusted(c_hi);
        double ce = same ? path.extrapolate(op.u) : newton ? path.root : 0.0;
        const double c =
            newton ? path.newton(eval_damping(op, xa, xb, c_mech, K, ce) - ce)
                   : ce;
        const damping_cell cell = grid.cell_of(c);
        bool warm = cell.usable;
        double q_lo = warm ? cell.q_lo : 0.0;
        double q_hi = warm ? cell.q_lo + grid.width : 1.0;
        double lo = warm ? cell.lo : 0.0;
        double hi = warm ? cell.hi : c_hi;
        int it = warm ? grid.depth : 0;
        double ct_lo = eval_damping(op, xa, xb, c_mech, K, lo);
        double ct = eval_damping(op, xa, xb, c_mech, K, hi);

        // A root that left the predicted cell restarts cold.
        if (warm && !(ct_lo > lo && !(ct > hi))) {
            warm = false;
            q_lo = 0.0;
            q_hi = 1.0;
            lo = 0.0;
            hi = c_hi;
            it = 0;
            ct_lo = eval_damping(op, xa, xb, c_mech, K, lo);
            ct = eval_damping(op, xa, xb, c_mech, K, hi);
        }

        // Cold: a trial at c_e = 0 that the bridge does not load means
        // blocked — the open-circuit amplitude.
        const bool blocked = !warm && ct_lo <= tol;

        // Cold bracket [0, c_hi]; the displacement limiter can distort T,
        // so expand defensively (<= 8 doublings of q_hi). A warm solve's
        // check already implies T(c_hi) <= c_hi.
        for (int expand = 0; expand < 8 && !warm && !blocked && ct > hi;
             ++expand) {
            q_hi *= 2.0;
            hi = c_hi * q_hi;
            ct = eval_damping(op, xa, xb, c_mech, K, hi);
        }

        // f = T - c at the bracket ends, for the next prediction.
        double f_lo = ct_lo - lo;
        double f_hi = ct - hi;

        // Bisection with its iteration counter (a warm solve starts at the
        // grid's final depth, so it is already done).
        while (!blocked && c_hi * (q_hi - q_lo) > tol &&
               it < grid.max_iterations) {
            ++it;
            ce = c_hi * (0.5 * (q_lo + q_hi));
            ct = eval_damping(op, xa, xb, c_mech, K, ce);
            const bool up = ct > ce;
            const double f = ct - ce;
            const double q = 0.5 * (q_lo + q_hi);
            q_lo = up ? q : q_lo;
            lo = up ? ce : lo;
            f_lo = up ? f : f_lo;
            q_hi = !up ? q : q_hi;
            hi = !up ? ce : hi;
            f_hi = !up ? f : f_hi;
        }

        // Final evaluation at the converged damping (0 when blocked): the
        // mechanics give the steady-state amplitude the envelope relaxes
        // towards, and from the same |Z_m| the argument x.
        ce = blocked ? 0.0 : c_hi * (0.5 * (q_lo + q_hi));
        const double im = (c_mech + ce) * op.omega;
        const double z = std::sqrt(op.re * op.re + im * im);
        za = std::min(op.ma / z, xmax);
        const double x = std::min(1.0, std::max(xa * z, xb));
        // dT/du at the result: T depends on u only through x, with
        // dx/du = x / u and g'(x) = -2 sqrt(1 - x^2).
        const double dT_du_scale = -2.0 * K;
        if (blocked)
            path.forget();
        else
            path.learn(lo, f_lo, hi, f_hi,
                       dT_du_scale * x * std::sqrt(1.0 - x * x) / op.u,
                       op.omega, op.re, op.ma, op.u);

        const double tau = 2.0 * m / (c_mech + ce);
        r.amplitude_rate = (za - z_in) / tau;
        r.relaxation_rate = 1.0 / tau;

        // Charging from the instantaneous envelope amplitude (not the
        // target): one more bridge evaluation at emf = phi * omega * z.
        // While the bridge conducts, d/de [2 e cos th1 - u (pi - 2 th1)] =
        // 2 cos th1 (sin th1 = u/e), so d ich / d z = phi omega 2 cos th1
        // / (pi R); a blocked bridge's current does not move with z.
        e = phi * op.omega * z_in;
        // theta1 = asin(x) via the range-reduced polynomial; cos(theta1)
        // via the identity cos(asin x) = sqrt(1 - x^2).
        const double xe = std::min(op.u / e, 1.0);
        const double th1 = numeric::asin_unit(xe);
        const double cth = std::sqrt(1.0 - xe * xe);
        const double span = k_pi - 2.0 * th1;
        const double i_avg = (2.0 * e * cth - op.u * span) * inv_pir;
        const bool conducting = e > op.u;
        r.charge_current_a = conducting ? i_avg : 0.0;
        r.charge_slope =
            conducting ? phi * op.omega * 2.0 * cth * inv_pir : 0.0;
    } else {
        // MPPT front-end: matched load c_e = c_mech independent of the
        // store voltage; extracted power delivered at fixed efficiency.
        const double c_match = c_mech;
        const double c_total = c_mech + c_match;
        const double tau = 2.0 * m / c_total;
        const double im = c_total * op.omega;
        const double denom = std::sqrt(op.re * op.re + im * im);
        double amp = op.ma / denom;
        amp = std::min(amp, xmax);
        r.amplitude_rate = (amp - z_in) / tau;
        r.relaxation_rate = 1.0 / tau;
        const double vel_env = op.omega * z_in;
        const double p_extracted = 0.5 * c_match * vel_env * vel_env;
        const double i = efficiency * p_extracted / v_in;
        const bool on = v_in > 0.05;
        r.charge_current_a = on ? i : 0.0;
        r.charge_slope = on ? efficiency * c_match * op.omega * op.omega *
                                  z_in / v_in
                            : 0.0;
    }
}

}  // namespace

envelope_rates electromagnetic_harvester::envelope_dynamics(
    double freq_hz, double accel_amp_ms2, int position, double store_v,
    double z_env, conditioning_kind conditioning, double efficiency,
    const power::rectifier_params& rect, damping_path& path) const {
    const bool bridge = conditioning == conditioning_kind::diode_bridge;
    // The operating point's checks, with the exceptions of the libm solve
    // (solve_damping) for the bridge and of response() for the mppt
    // front-end, in their order: frequency and acceleration, then omega
    // and position (drive), then store voltage and coil resistance.
    if (bridge && freq_hz <= 0.0)
        throw std::invalid_argument("envelope_dynamics: frequency must be > 0");
    if (bridge && accel_amp_ms2 < 0.0)
        throw std::invalid_argument("envelope_dynamics: negative acceleration");
    const drive_point drive =
        gen_.drive(2.0 * k_pi * freq_hz, accel_amp_ms2, position);
    if (bridge)
        (void)power::bridge_sink(store_v, gen_.params().coil_resistance_ohm,
                                 rect);

    // A copy of the caller's path that goes back once the kernel has run.
    damping_path carried = path;
    envelope_rates out;
    double za = 0.0, e = 0.0;
    kernel_rates(gen_, grid_,
                 {drive.omega_rad, drive.detuning, drive.mass_accel,
                  store_v + 2.0 * rect.diode_drop_v},
                 carried, store_v, z_env, conditioning, efficiency, out, za,
                 e);
    path = carried;
    // The libm solve's emf checks: a stimulus whose trial emf is not a
    // number (the trials share it, so the velocity omega Z of the final
    // mechanics stands for all of them), and a charging emf phi omega
    // z_env that is negative or not a number.
    if (bridge && !(drive.omega_rad * za >= 0.0 && e >= 0.0))
        throw std::invalid_argument(
            "envelope_dynamics: emf amplitude must be >= 0");
    return out;
}

}  // namespace ehdse::harvester
