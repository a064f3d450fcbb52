// The electromagnetic envelope RHS: one lockstep damping kernel that
// electromagnetic_harvester::envelope_dynamics runs on one lane and
// make_envelope_batch on B lanes, so a scalar evaluation and a batch lane
// of the same operating point compute the same bits.
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
// the dynamic stiffness and x_b is the end stops' limit. K, x_a and x_b are prepared
// once per call, so a trial costs three square roots and no division. A
// blocked bridge (e <= u) clamps x to 1, where g is exactly 0. The trial
// is one flat loop over lanes, branch-free, so GCC auto-vectorises it in
// an -O3 batch; libm's asin is replaced by a fitted polynomial
// (numeric/det_math.hpp), and cos(asin x) = sqrt(1 - x^2). Per-lane
// brackets update under masks, so a lane's answer never depends on which
// other lanes share the run: batch(B) == batch(1) == the scalar hook,
// bitwise. The kernel agrees with the libm reference solve
// (solve_envelope) to solver tolerance.
//
// Each lane carries its own damping_path, so the bisection warm-starts per
// lane, bit-identical to the kernel's cold bisection on its dyadic grid
// (harvester/damping_path.hpp): a lane whose drive did not change
// extrapolates its root in the store voltage without a trial, one whose
// drive changed spends one lockstep trial at its previous root; one pair
// checks every lane's predicted cell, and a final lockstep evaluation at
// the converged damping runs the mechanics, which also give x and so
// dT/du for the next prediction (the bridge there is not read).
//
// The kernel is one template over its row storage (kernel_rows): the
// batch lays B-lane rows over vectors it keeps for its run
// (kernel_lanes), the scalar hook passes one_lane, whose rows are
// one-element arrays held by value. Inlined, nothing takes that lane's
// address, so GCC can keep the scalar solve's values in registers. Both
// instantiate the same expressions.
//
// The batch's lane loops only vectorise with this file's COMPILE_OPTIONS
// (src/harvester/CMakeLists.txt).
#include "harvester/electromagnetic.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <stdexcept>
#include <vector>

#include "harvester/envelope.hpp"
#include "harvester/vibration.hpp"
#include "numeric/det_math.hpp"

namespace ehdse::harvester {

namespace {

constexpr double k_pi = std::numbers::pi;

// theta1 = asin(x) via the range-reduced polynomial; cos(theta1) via
// the identity cos(asin x) = sqrt(1 - x^2). Every call passes distinct
// rows.
inline void conduction_angle_lanes(std::size_t B,
                                   const double* __restrict__ xxv,
                                   double* __restrict__ th1,
                                   double* __restrict__ cth) {
    for (std::size_t l = 0; l < B; ++l) {
        const double x = xxv[l];
        th1[l] = numeric::asin_unit(x);
        cth[l] = std::sqrt(1.0 - x * x);
    }
}

/// The rows one run of the kernel reads and writes, lane l of each at
/// index l: the operating point its caller fills, the per-call trial
/// constants and scratch the kernel fills, and each lane's damping_path.
/// Row<T> is a row of T: a pointer into run storage (kernel_lanes) or a
/// one-element array held by value (one_lane).
template <template <class> class Row>
struct kernel_rows {
    // Operating point: omega, k_eff - m omega^2, m A, and the bridge's
    // sink voltage V + 2 Vd.
    Row<double> omega, re, ma, u;
    // x_a = u / (phi omega m A) and x_b = u / (phi omega x_max).
    Row<double> xa, xb;
    // Damping-solve and charging-bridge scratch.
    Row<double> lo, hi, ce, ct, ct_lo, za, e, xx, th1, cth;
    Row<double> q_lo, q_hi;  ///< lo = c_hi q_lo, hi = c_hi q_hi on the grid
    Row<double> f_lo, f_hi;  ///< T - c at lo / hi
    Row<std::uint8_t> blocked, refine, warm;
    Row<int> it;  ///< per-lane bisection decisions
    Row<damping_path> paths;
};

template <class T>
using row_pointer = T*;
template <class T>
using row_value = T[1];

/// B lanes over storage the batch keeps for its run (lay_out).
struct kernel_lanes : kernel_rows<row_pointer> {
    /// Rows of doubles and of flags that lay_out() carves.
    static constexpr std::size_t k_double_rows = 20;
    static constexpr std::size_t k_flag_rows = 3;

    std::size_t count = 0;
};

/// The scalar hook's one lane, every row held by value.
struct one_lane : kernel_rows<row_value> {
    static constexpr std::size_t count = 1;
};

/// kernel_lanes for `count` lanes over k_double_rows * count doubles,
/// k_flag_rows * count flags, `count` ints and `count` paths.
kernel_lanes lay_out(std::size_t count, double* doubles, std::uint8_t* flags,
                     int* it, damping_path* paths) {
    kernel_lanes k{};
    k.count = count;
    double** const rows[kernel_lanes::k_double_rows] = {
        &k.omega, &k.re,  &k.ma,  &k.u,    &k.xa,   &k.xb,   &k.lo,
        &k.hi,    &k.ce,  &k.ct,  &k.ct_lo, &k.za,  &k.e,    &k.xx,
        &k.th1,   &k.cth, &k.q_lo, &k.q_hi, &k.f_lo, &k.f_hi};
    for (std::size_t r = 0; r < kernel_lanes::k_double_rows; ++r)
        *rows[r] = doubles + r * count;
    k.blocked = flags;
    k.refine = flags + count;
    k.warm = flags + 2 * count;
    k.it = it;
    k.paths = paths;
    return k;
}

/// One lockstep trial of the damping fixed point over every lane of `k`:
/// t[l] = T(c[l]) = K g(x), the damping the bridge presents at trial
/// damping c[l]. Reads the omega, re, xa and xb rows of `k`.
///
/// Always inlined, as kernel_rates is: an out-of-line call would take the
/// address of the scalar hook's one_lane and so keep its rows in memory
/// (GCC 12 at -O2 leaves this function out of line otherwise).
template <class Rows, class Row>
[[gnu::always_inline]] inline void eval_damping(const Rows& k, double c_mech,
                                                double K, const Row& c,
                                                Row& t) {
    for (std::size_t l = 0; l < k.count; ++l) {
        const double im = (c_mech + c[l]) * k.omega[l];
        const double z = std::sqrt(k.re[l] * k.re[l] + im * im);
        // A NaN operand lands at 1 (blocked), as the comparisons of a
        // not-a-number emf do.
        const double x = std::min(1.0, std::max(k.xa[l] * z, k.xb[l]));
        t[l] = K * (0.5 * k_pi - numeric::asin_unit(x) -
                    x * std::sqrt(1.0 - x * x));
    }
}

/// The envelope RHS of every lane of `k` at its operating point, store
/// voltage v_in[l] and envelope z_in[l], with the damping bisected on
/// `grid` (kernel_damping_grid of `gen`): the amplitude rate into dz[l],
/// the charging current into ich[l], 1/tau into rate[l] and the current's
/// slope d ich / d z_env into slope[l]. Every lane is computed in full width
/// and branch-free: lanes the integrator masked out get (ignored) values
/// too, which is cheaper than breaking the vector loops up.
template <class Rows>
[[gnu::always_inline]] inline void kernel_rates(
    const microgenerator& gen, const damping_grid& grid, Rows& k,
    const double* v_in, const double* z_in, conditioning_kind conditioning,
    double efficiency, double* dz, double* ich, double* rate,
    double* slope) {
    const std::size_t B = k.count;
    const auto& gp = gen.params();
    const double m = gp.mass_kg;
    const double c_mech = gen.mech_damping();
    const double phi = gp.coupling_v_per_ms;
    const double xmax = gp.max_displacement_m;
    const double inv_pir = 1.0 / (k_pi * gp.coil_resistance_ohm);

    if (conditioning == conditioning_kind::diode_bridge) {
        // --- Lockstep bisection for the self-consistent electrical damping,
        // the bisection of solve_damping lane for lane (same tolerance,
        // same bracket, same expansion and stop rules) on the dyadic grid
        // c_hi * q, plus the warm start. ---
        const double c_hi = grid.c_hi;
        const double tol = grid.tol;
        const double K = 2.0 * phi * phi * inv_pir;
        for (std::size_t l = 0; l < B; ++l) {
            const double phi_omega = phi * k.omega[l];
            k.xa[l] = k.u[l] / (phi_omega * k.ma[l]);
            k.xb[l] = k.u[l] / (phi_omega * xmax);
        }

        // Warm start (harvester/damping_path.hpp): a lane at its path's
        // mechanics extrapolates the root to its sink voltage; one whose
        // drive changed spends a lockstep trial at its previous root and
        // takes a Newton step. The prediction's final cell comes in
        // closed form. The next two trials probe every lane's cell ends;
        // a lane without a cell probes 0 and c_hi, which are exactly the
        // cold solve's first two trials.
        bool any_newton = false;
        for (std::size_t l = 0; l < B; ++l) {
            const damping_path& p = k.paths[l];
            const bool same = p.same_drive(k.omega[l], k.re[l], k.ma[l]);
            const bool newton = !same && p.trusted(c_hi);
            k.warm[l] = newton ? 1 : 0;
            k.ce[l] = same ? p.extrapolate(k.u[l]) : newton ? p.root : 0.0;
            any_newton = any_newton || newton;
        }
        if (any_newton) eval_damping(k, c_mech, K, k.ce, k.ct);
        for (std::size_t l = 0; l < B; ++l) {
            const double c =
                k.warm[l] ? k.paths[l].newton(k.ct[l] - k.ce[l]) : k.ce[l];
            const damping_cell cell = grid.cell_of(c);
            const bool warm = cell.usable;
            k.warm[l] = warm ? 1 : 0;
            k.q_lo[l] = warm ? cell.q_lo : 0.0;
            k.q_hi[l] = warm ? cell.q_lo + grid.width : 1.0;
            k.lo[l] = warm ? cell.lo : 0.0;
            k.hi[l] = warm ? cell.hi : c_hi;
            k.it[l] = warm ? grid.depth : 0;
        }
        eval_damping(k, c_mech, K, k.lo, k.ct_lo);
        eval_damping(k, c_mech, K, k.hi, k.ct);

        // Lanes whose root left the predicted cell restart cold.
        // Re-probing the passing lanes' unchanged ends reproduces their
        // values, so one extra pair serves every failing lane.
        bool any_failed = false;
        for (std::size_t l = 0; l < B; ++l) {
            if (k.warm[l] && !(k.ct_lo[l] > k.lo[l] && !(k.ct[l] > k.hi[l]))) {
                k.warm[l] = 0;
                k.q_lo[l] = 0.0;
                k.q_hi[l] = 1.0;
                k.lo[l] = 0.0;
                k.hi[l] = c_hi;
                k.it[l] = 0;
                any_failed = true;
            }
        }
        if (any_failed) {
            eval_damping(k, c_mech, K, k.lo, k.ct_lo);
            eval_damping(k, c_mech, K, k.hi, k.ct);
        }

        // Cold lanes: a trial at c_e = 0 that the bridge does not load
        // means blocked — they take the open-circuit amplitude.
        for (std::size_t l = 0; l < B; ++l)
            k.blocked[l] = !k.warm[l] && k.ct_lo[l] <= tol ? 1 : 0;

        // Cold bracket [0, c_hi]; the displacement limiter can distort T,
        // so expand defensively (masked, <= 8 doublings of q_hi). A warm
        // lane's check already implies T(c_hi) <= c_hi.
        for (int expand = 0; expand < 8; ++expand) {
            bool any = false;
            for (std::size_t l = 0; l < B; ++l) {
                const bool need =
                    !k.warm[l] && !k.blocked[l] && k.ct[l] > k.hi[l];
                k.refine[l] = need ? 1 : 0;
                any = any || need;
            }
            if (!any) break;
            for (std::size_t l = 0; l < B; ++l) {
                if (!k.refine[l]) continue;
                k.q_hi[l] *= 2.0;
                k.hi[l] = c_hi * k.q_hi[l];
            }
            eval_damping(k, c_mech, K, k.hi, k.ct);
        }

        // f = T - c at every lane's bracket ends, for its next prediction.
        for (std::size_t l = 0; l < B; ++l) {
            k.f_lo[l] = k.ct_lo[l] - k.lo[l];
            k.f_hi[l] = k.ct[l] - k.hi[l];
        }

        // Masked bisection with per-lane iteration counters (a warm lane
        // starts at the grid's final depth, so it is already done): a
        // converged lane's bracket stops moving, so every lane lands where
        // it would alone.
        for (;;) {
            bool any = false;
            for (std::size_t l = 0; l < B; ++l) {
                const bool r = !k.blocked[l] &&
                               c_hi * (k.q_hi[l] - k.q_lo[l]) > tol &&
                               k.it[l] < grid.max_iterations;
                k.refine[l] = r ? 1 : 0;
                k.it[l] += r ? 1 : 0;
                any = any || r;
            }
            if (!any) break;
            for (std::size_t l = 0; l < B; ++l)
                k.ce[l] = c_hi * (0.5 * (k.q_lo[l] + k.q_hi[l]));
            eval_damping(k, c_mech, K, k.ce, k.ct);
            for (std::size_t l = 0; l < B; ++l) {
                const bool r = k.refine[l] != 0;
                const bool up = k.ct[l] > k.ce[l];
                const double f = k.ct[l] - k.ce[l];
                const double q = 0.5 * (k.q_lo[l] + k.q_hi[l]);
                k.q_lo[l] = (r && up) ? q : k.q_lo[l];
                k.lo[l] = (r && up) ? k.ce[l] : k.lo[l];
                k.f_lo[l] = (r && up) ? f : k.f_lo[l];
                k.q_hi[l] = (r && !up) ? q : k.q_hi[l];
                k.hi[l] = (r && !up) ? k.ce[l] : k.hi[l];
                k.f_hi[l] = (r && !up) ? f : k.f_hi[l];
            }
        }

        // Final evaluation at the converged damping (0 for blocked lanes):
        // the mechanics give the steady-state amplitude the envelope
        // relaxes towards, and from the same |Z_m| the argument x.
        for (std::size_t l = 0; l < B; ++l) {
            const double ce =
                k.blocked[l] ? 0.0 : c_hi * (0.5 * (k.q_lo[l] + k.q_hi[l]));
            k.ce[l] = ce;
            const double im = (c_mech + ce) * k.omega[l];
            const double z = std::sqrt(k.re[l] * k.re[l] + im * im);
            k.za[l] = std::min(k.ma[l] / z, xmax);
            k.xx[l] = std::min(1.0, std::max(k.xa[l] * z, k.xb[l]));
        }
        // dT/du at the result: T depends on u only through x, with
        // dx/du = x / u and g'(x) = -2 sqrt(1 - x^2).
        const double dT_du_scale = -2.0 * K;
        for (std::size_t l = 0; l < B; ++l) {
            const double x = k.xx[l];
            if (k.blocked[l])
                k.paths[l].forget();
            else
                k.paths[l].learn(
                    k.lo[l], k.f_lo[l], k.hi[l], k.f_hi[l],
                    dT_du_scale * x * std::sqrt(1.0 - x * x) / k.u[l],
                    k.omega[l], k.re[l], k.ma[l], k.u[l]);
        }

        for (std::size_t l = 0; l < B; ++l) {
            const double tau = 2.0 * m / (c_mech + k.ce[l]);
            dz[l] = (k.za[l] - z_in[l]) / tau;
            rate[l] = 1.0 / tau;
        }

        // Charging from the instantaneous envelope amplitude (not the
        // target): one more bridge evaluation at emf = phi * omega * z.
        // While the bridge conducts, d/de [2 e cos th1 - u (pi - 2 th1)] =
        // 2 cos th1 (sin th1 = u/e), so d ich / d z = phi omega 2 cos th1
        // / (pi R); a blocked bridge's current does not move with z.
        for (std::size_t l = 0; l < B; ++l) {
            k.e[l] = phi * k.omega[l] * z_in[l];
            k.xx[l] = std::min(k.u[l] / k.e[l], 1.0);
        }
        conduction_angle_lanes(B, k.xx, k.th1, k.cth);
        for (std::size_t l = 0; l < B; ++l) {
            const double ee = k.e[l];
            const double span = k_pi - 2.0 * k.th1[l];
            const double i_avg =
                (2.0 * ee * k.cth[l] - k.u[l] * span) * inv_pir;
            const bool conducting = ee > k.u[l];
            ich[l] = conducting ? i_avg : 0.0;
            slope[l] =
                conducting ? phi * k.omega[l] * 2.0 * k.cth[l] * inv_pir : 0.0;
        }
    } else {
        // MPPT front-end: matched load c_e = c_mech independent of the
        // store voltage; extracted power delivered at fixed efficiency.
        const double c_match = c_mech;
        const double c_total = c_mech + c_match;
        const double tau = 2.0 * m / c_total;
        for (std::size_t l = 0; l < B; ++l) {
            const double im = c_total * k.omega[l];
            const double denom = std::sqrt(k.re[l] * k.re[l] + im * im);
            double amp = k.ma[l] / denom;
            amp = std::min(amp, xmax);
            dz[l] = (amp - z_in[l]) / tau;
            rate[l] = 1.0 / tau;
            const double vel_env = k.omega[l] * z_in[l];
            const double p_extracted = 0.5 * c_match * vel_env * vel_env;
            const double i = efficiency * p_extracted / v_in[l];
            const bool on = v_in[l] > 0.05;
            ich[l] = on ? i : 0.0;
            slope[l] = on ? efficiency * c_match * k.omega[l] * k.omega[l] *
                                z_in[l] / v_in[l]
                          : 0.0;
        }
    }
}

class em_envelope_batch final : public envelope_batch {
public:
    em_envelope_batch(const microgenerator& gen, const damping_grid& grid,
                      std::size_t lanes)
        : gen_(gen),
          grid_(grid),
          doubles_(kernel_lanes::k_double_rows * lanes),
          flags_(kernel_lanes::k_flag_rows * lanes),
          it_(lanes),
          paths_(lanes),
          lanes_(lay_out(lanes, doubles_.data(), flags_.data(), it_.data(),
                         paths_.data())) {}

    void rates(const envelope_lanes& in, conditioning_kind conditioning,
               double efficiency, const power::rectifier_params& rect,
               const envelope_lane_rates& out) override {
        // Per-lane operating point. The schedule and stiffness lookups are
        // scalar per lane (the schedules piecewise-constant, a handful of
        // segments) — negligible next to the damping solve.
        const double m = gen_.params().mass_kg;
        const double two_vd = 2.0 * rect.diode_drop_v;
        for (std::size_t l = 0; l < lanes_.count; ++l) {
            const double omega = 2.0 * k_pi * in.vib.frequency_at(in.t[l]);
            lanes_.omega[l] = omega;
            lanes_.re[l] =
                gen_.effective_stiffness(in.position[l]) - m * omega * omega;
            lanes_.ma[l] = m * in.vib.amplitude_at(in.t[l]);
            lanes_.u[l] = in.store_v[l] + two_vd;
        }
        kernel_rates(gen_, grid_, lanes_, in.store_v.data(), in.z_env.data(),
                     conditioning, efficiency, out.amplitude_rate.data(),
                     out.charge_current.data(), out.relaxation_rate.data(),
                     out.charge_slope.data());
    }

private:
    const microgenerator& gen_;
    const damping_grid grid_;
    // The run's lane arrays (lanes_ points into these) and each lane's
    // damping-solve warm start, carried across rates() calls.
    std::vector<double> doubles_;
    std::vector<std::uint8_t> flags_;
    std::vector<int> it_;
    std::vector<damping_path> paths_;
    kernel_lanes lanes_;
};

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

    // One lane by value, with a copy of the caller's path that goes back
    // once the kernel has run. The kernel writes every row before it
    // reads it.
    one_lane lane;
    lane.omega[0] = drive.omega_rad;
    lane.re[0] = drive.detuning;
    lane.ma[0] = drive.mass_accel;
    lane.u[0] = store_v + 2.0 * rect.diode_drop_v;
    lane.paths[0] = path;

    envelope_rates out;
    kernel_rates(gen_, grid_, lane, &store_v, &z_env, conditioning,
                 efficiency, &out.amplitude_rate, &out.charge_current_a,
                 &out.relaxation_rate, &out.charge_slope);
    path = lane.paths[0];
    // The libm solve's emf checks: a stimulus whose trial emf is not a
    // number (the trials share it, so the velocity omega Z of the final
    // mechanics stands for all of them), and a charging emf phi omega
    // z_env that is negative or not a number.
    if (bridge && !(lane.omega[0] * lane.za[0] >= 0.0 && lane.e[0] >= 0.0))
        throw std::invalid_argument(
            "envelope_dynamics: emf amplitude must be >= 0");
    return out;
}

std::unique_ptr<envelope_batch> electromagnetic_harvester::make_envelope_batch(
    std::size_t lanes) const {
    return std::make_unique<em_envelope_batch>(gen_, grid_, lanes);
}

}  // namespace ehdse::harvester
