// SoA batch form of the electromagnetic envelope RHS
// (electromagnetic_harvester::make_envelope_batch): B lanes' operating
// points advance through one lockstep damping solve.
//
// The scalar hook spends most of its time inside solve_envelope — a
// bisection on the self-consistent electrical damping whose every trial
// evaluates the mechanical response and the averaged diode bridge. Here
// that bisection runs across all lanes at once: each trial is three flat
// loops over lanes (mechanics / asin–cos / bridge power + bracket update)
// written branch-free with value selects so GCC auto-vectorises them, and
// libm calls are replaced by a fitted polynomial asin plus the exact
// identities cos(asin x) = sqrt(1 - x^2) and sin(2 asin x) = 2 x sqrt(1 -
// x^2). Per-lane brackets update under masks, so lanes converge exactly as
// their scalar counterparts would (same iteration count, same semantics);
// results agree with the scalar hook to solver tolerance, enforced per
// lane by HarvesterRegistry.EnvelopeBatchMatchesTheScalarHookPerLane and
// end to end by the batch_vs_scalar_equivalence testkit property. Each
// lane carries its own damping_path, so the bisection warm-starts per lane
// exactly like the scalar solve, bit-identical to a cold bisection: one
// lockstep trial at every lane's previous root, one pair checking every
// lane's predicted cell, and a final lockstep evaluation at the converged
// damping that runs the mechanics only (the bridge there is not read).
//
// The lane loops only vectorise with this file's COMPILE_OPTIONS
// (src/harvester/CMakeLists.txt).
#include "harvester/electromagnetic.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <vector>

#include "harvester/envelope.hpp"
#include "harvester/vibration.hpp"

namespace ehdse::harvester {

namespace {

constexpr double k_pi = std::numbers::pi;
constexpr double k_half_pi = 0.5 * std::numbers::pi;

// Minimax-quality polynomial for asin on [0, 1]: degree-15 Chebyshev-node
// fit of g(z) = asin(sqrt(z)) / sqrt(z), combined with the standard range
// reduction
//     x <= 0.5 : asin(x) = x * P(x^2)
//     x  > 0.5 : asin(x) = pi/2 - 2 * sqrt(z) * P(z),  z = (1 - x) / 2
// Max abs error 3.3e-16 over [0, 1) — at libm rounding level, so the batch
// bridge matches the scalar std::asin path to solver tolerance.
constexpr double k_asin_c[16] = {
    0.999999999999999999892,   0.166666666666666696405,
    0.0749999999999929945523,  0.0446428571436258050417,
    0.0303819443995999728947,  0.022372160664339752716,
    0.0173527281512837325891,  0.0139654279848651728254,
    0.0115449458992990427777,  0.00982171026194061776089,
    0.0079925162814942219587,  0.00929049937150757007781,
    -0.00077758985480906203174, 0.024269122565511237245,
    -0.0254272641358987083118, 0.0311710800182602128524,
};

// Horner form, fully unrolled: a `for` over the coefficients is control
// flow the vectoriser refuses, so spell the recurrence out.
inline double asin_poly_eval(double z) {
    double p = k_asin_c[15];
    p = p * z + k_asin_c[14];
    p = p * z + k_asin_c[13];
    p = p * z + k_asin_c[12];
    p = p * z + k_asin_c[11];
    p = p * z + k_asin_c[10];
    p = p * z + k_asin_c[9];
    p = p * z + k_asin_c[8];
    p = p * z + k_asin_c[7];
    p = p * z + k_asin_c[6];
    p = p * z + k_asin_c[5];
    p = p * z + k_asin_c[4];
    p = p * z + k_asin_c[3];
    p = p * z + k_asin_c[2];
    p = p * z + k_asin_c[1];
    p = p * z + k_asin_c[0];
    return p;
}

// The hot lane loops live in free functions whose pointer parameters are
// __restrict__: GCC only assigns no-alias cliques to restrict *parameters*
// (never to restrict locals), and without them these loops reference more
// arrays than the vectoriser's runtime alias-check budget covers and
// silently stay scalar. All call sites pass distinct scratch vectors.

// Mechanics: linear response at the trial damping (displacement limiter
// as a value select — no control flow in the loop).
inline void mechanics_lanes(std::size_t B, double c_mech, double phi,
                            double xmax, const double* __restrict__ ce,
                            const double* __restrict__ omega,
                            const double* __restrict__ re,
                            const double* __restrict__ ma,
                            const double* __restrict__ u,
                            double* __restrict__ za,
                            double* __restrict__ e,
                            double* __restrict__ vel,
                            double* __restrict__ xxv) {
    for (std::size_t l = 0; l < B; ++l) {
        const double im = (c_mech + ce[l]) * omega[l];
        const double denom = std::sqrt(re[l] * re[l] + im * im);
        double amp = ma[l] / denom;
        amp = std::min(amp, xmax);
        za[l] = amp;
        const double v = omega[l] * amp;
        vel[l] = v;
        const double ee = phi * v;
        e[l] = ee;
        // Conduction-angle argument u/e, clamped into the asin domain; a
        // blocked lane (e <= u) lands at 1 => theta1 = pi/2, zero span.
        xxv[l] = std::min(u[l] / ee, 1.0);
    }
}

// theta1 = asin(x) via the range-reduced polynomial; cos(theta1) via
// the identity cos(asin x) = sqrt(1 - x^2). Both branches are computed
// unconditionally and selected, keeping the loop vectorisable.
inline void conduction_angle_lanes(std::size_t B,
                                   const double* __restrict__ xxv,
                                   double* __restrict__ th1,
                                   double* __restrict__ cth) {
    for (std::size_t l = 0; l < B; ++l) {
        const double x = xxv[l];
        const double z_lo = x * x;
        const double z_hi = 0.5 * (1.0 - x);
        const bool upper = x > 0.5;
        const double z = upper ? z_hi : z_lo;
        const double p = asin_poly_eval(z);
        const double sq = std::sqrt(z);
        const double s = upper ? sq : x;
        const double r0 = s * p;
        th1[l] = upper ? k_half_pi - 2.0 * r0 : r0;
        cth[l] = std::sqrt(1.0 - x * x);
    }
}

// Averaged bridge power and the equivalent damping it presents:
// T(c_e) = 2 P_mech / vel^2, with sin(2 theta1) = 2 x cos(theta1).
inline void bridge_damping_lanes(std::size_t B, double inv_pir,
                                 const double* __restrict__ e,
                                 const double* __restrict__ u,
                                 const double* __restrict__ vel,
                                 const double* __restrict__ xxv,
                                 const double* __restrict__ th1,
                                 const double* __restrict__ cth,
                                 double* __restrict__ c_target) {
    for (std::size_t l = 0; l < B; ++l) {
        const double ee = e[l];
        const double span = k_pi - 2.0 * th1[l];
        const double s2 = 2.0 * xxv[l] * cth[l];
        const double p_mech =
            (ee * ee * (0.5 * span + 0.5 * s2) - 2.0 * u[l] * ee * cth[l]) *
            inv_pir;
        const double v = vel[l];
        const double ct = 2.0 * p_mech / (v * v);
        // Bitwise & keeps the two comparisons branch-free (&& would
        // reintroduce control flow and kill vectorisation).
        const bool conducting = (ee > u[l]) & (v > 0.0);
        c_target[l] = conducting ? ct : 0.0;
    }
}

class em_envelope_batch final : public envelope_batch {
public:
    em_envelope_batch(const microgenerator& gen, std::size_t lanes)
        : gen_(gen),
          lanes_(lanes),
          omega_(lanes), re_(lanes), ma_(lanes), u_(lanes),
          lo_(lanes), hi_(lanes), ce_(lanes), ct_(lanes), za_(lanes),
          e_(lanes), vel_(lanes), xx_(lanes), th1_(lanes), cth_(lanes),
          ct_lo_(lanes), f_lo_(lanes), f_hi_(lanes), blocked_(lanes, 0),
          refine_(lanes, 0), warm_(lanes, 0), it_(lanes, 0), paths_(lanes) {}

    void rates(const envelope_lanes& in, conditioning_kind conditioning,
               double efficiency, const power::rectifier_params& rect,
               std::span<double> amplitude_rate,
               std::span<double> charge_current) override;

private:
    /// One lockstep trial of the damping fixed point: given per-lane trial
    /// damping ce[], fill c_target[] (the damping the bridge presents
    /// there) and za[] (the steady-state displacement amplitude). Reads
    /// the per-call scratch (omega/re/ma/u) prepared by rates().
    void eval_damping(const double* ce, double* c_target, double* za);

    const microgenerator& gen_;
    std::size_t lanes_;

    // Per-call scratch, lane-contiguous.
    std::vector<double> omega_, re_, ma_, u_;
    std::vector<double> lo_, hi_, ce_, ct_, za_;
    std::vector<double> e_, vel_, xx_, th1_, cth_, ct_lo_;
    std::vector<double> f_lo_, f_hi_;  ///< T - c at lo_ / hi_
    std::vector<std::uint8_t> blocked_, refine_, warm_;
    std::vector<int> it_;  ///< per-lane bisection decisions

    // Per-lane damping-solve warm start, carried across rates() calls
    // (harvester/damping_path.hpp); changes only speed.
    std::vector<damping_path> paths_;
};

void em_envelope_batch::eval_damping(const double* ce, double* c_target,
                                     double* za) {
    const std::size_t B = lanes_;
    const auto& gp = gen_.params();
    const double c_mech = gen_.mech_damping();
    const double phi = gp.coupling_v_per_ms;
    const double xmax = gp.max_displacement_m;
    const double inv_pir = 1.0 / (k_pi * gp.coil_resistance_ohm);

    mechanics_lanes(B, c_mech, phi, xmax, ce, omega_.data(), re_.data(),
                    ma_.data(), u_.data(), za, e_.data(), vel_.data(),
                    xx_.data());
    conduction_angle_lanes(B, xx_.data(), th1_.data(), cth_.data());
    bridge_damping_lanes(B, inv_pir, e_.data(), u_.data(), vel_.data(),
                         xx_.data(), th1_.data(), cth_.data(), c_target);
}

void em_envelope_batch::rates(const envelope_lanes& in,
                              conditioning_kind conditioning,
                              double efficiency,
                              const power::rectifier_params& rect,
                              std::span<double> amplitude_rate,
                              std::span<double> charge_current) {
    // Full-width, branch-free-per-lane computation: lanes the integrator
    // masked out get (ignored) values computed too — cheaper than breaking
    // the vector loops up.
    const std::size_t B = lanes_;
    const auto& gp = gen_.params();
    const double m = gp.mass_kg;
    const double c_mech = gen_.mech_damping();
    const double phi = gp.coupling_v_per_ms;
    const double inv_pir = 1.0 / (k_pi * gp.coil_resistance_ohm);
    const double two_vd = 2.0 * rect.diode_drop_v;

    const double* v_in = in.store_v.data();
    const double* z_in = in.z_env.data();
    double* dz = amplitude_rate.data();
    double* ich = charge_current.data();

    // Per-lane stimulus and coefficients. The schedule and stiffness
    // lookups are scalar per lane (the schedules piecewise-constant, a
    // handful of segments) — negligible next to the damping solve below.
    for (std::size_t l = 0; l < B; ++l) {
        const double omega = 2.0 * k_pi * in.vib.frequency_at(in.t[l]);
        omega_[l] = omega;
        re_[l] = gen_.effective_stiffness(in.position[l]) - m * omega * omega;
        ma_[l] = m * in.vib.amplitude_at(in.t[l]);
        u_[l] = v_in[l] + two_vd;
    }

    if (conditioning == conditioning_kind::diode_bridge) {
        // --- Lockstep bisection for the self-consistent electrical damping,
        // mirroring solve_envelope lane-for-lane (same tolerance, same
        // bracket, same warm start, same expansion and stop rules). ---
        const double tol = envelope_options{}.tolerance * c_mech;
        const double c_hi_limit =
            phi * phi / gp.coil_resistance_ohm + c_mech;
        const int max_iterations = envelope_options{}.max_iterations;

        // Warm start (harvester/damping_path.hpp): one lockstep trial at
        // every trusted lane's previous root, a Newton step and a walk of
        // the cold grid give each lane a final-depth cell. The next two
        // trials probe every lane's cell ends; a lane without a cell
        // probes 0 and c_hi, which are exactly the cold solve's first two
        // trials.
        bool any_trusted = false;
        for (std::size_t l = 0; l < B; ++l) {
            const bool trusted = paths_[l].trusted(c_hi_limit);
            warm_[l] = trusted ? 1 : 0;
            ce_[l] = trusted ? paths_[l].root : 0.0;
            any_trusted = any_trusted || trusted;
        }
        if (any_trusted) eval_damping(ce_.data(), ct_.data(), za_.data());
        for (std::size_t l = 0; l < B; ++l) {
            const damping_cell cell =
                warm_[l] ? paths_[l].predicted_cell(ct_[l] - ce_[l],
                                                    c_hi_limit, tol,
                                                    max_iterations)
                         : damping_cell{};
            const bool warm = cell.depth > 0;
            warm_[l] = warm ? 1 : 0;
            lo_[l] = warm ? cell.lo : 0.0;
            hi_[l] = warm ? cell.hi : c_hi_limit;
            it_[l] = cell.depth;
        }
        const auto probe_ends = [&] {
            eval_damping(lo_.data(), ct_lo_.data(), za_.data());
            eval_damping(hi_.data(), ct_.data(), za_.data());
        };
        probe_ends();

        // Lanes whose root left the predicted cell restart cold.
        // Re-probing the passing lanes' unchanged ends reproduces their
        // values, so one extra pair serves every failing lane.
        bool any_failed = false;
        for (std::size_t l = 0; l < B; ++l) {
            if (warm_[l] && !(ct_lo_[l] > lo_[l] && !(ct_[l] > hi_[l]))) {
                warm_[l] = 0;
                lo_[l] = 0.0;
                hi_[l] = c_hi_limit;
                it_[l] = 0;
                any_failed = true;
            }
        }
        if (any_failed) probe_ends();

        // Cold lanes: a trial at c_e = 0 that the bridge does not load
        // means blocked — they take the open-circuit amplitude.
        for (std::size_t l = 0; l < B; ++l)
            blocked_[l] = !warm_[l] && ct_lo_[l] <= tol ? 1 : 0;

        // Cold bracket [0, c_hi]; the displacement limiter can distort T,
        // so expand defensively (masked, <= 8 doublings — as the scalar
        // does). A warm lane's check already implies T(c_hi) <= c_hi.
        for (int expand = 0; expand < 8; ++expand) {
            bool any = false;
            for (std::size_t l = 0; l < B; ++l) {
                const bool need = !warm_[l] && !blocked_[l] && ct_[l] > hi_[l];
                refine_[l] = need ? 1 : 0;
                any = any || need;
            }
            if (!any) break;
            for (std::size_t l = 0; l < B; ++l)
                if (refine_[l]) hi_[l] *= 2.0;
            eval_damping(hi_.data(), ct_.data(), za_.data());
        }

        // f = T - c at every lane's bracket ends, for its next prediction.
        for (std::size_t l = 0; l < B; ++l) {
            f_lo_[l] = ct_lo_[l] - lo_[l];
            f_hi_[l] = ct_[l] - hi_[l];
        }

        // Masked bisection with per-lane iteration counters (a warm lane's
        // walked depth counts, so it is already done): a converged lane's
        // bracket stops moving, so every lane lands exactly where its
        // scalar run would.
        for (;;) {
            bool any = false;
            for (std::size_t l = 0; l < B; ++l) {
                const bool r = !blocked_[l] && (hi_[l] - lo_[l]) > tol &&
                               it_[l] < max_iterations;
                refine_[l] = r ? 1 : 0;
                it_[l] += r ? 1 : 0;
                any = any || r;
            }
            if (!any) break;
            for (std::size_t l = 0; l < B; ++l)
                ce_[l] = 0.5 * (lo_[l] + hi_[l]);
            eval_damping(ce_.data(), ct_.data(), za_.data());
            for (std::size_t l = 0; l < B; ++l) {
                const bool r = refine_[l] != 0;
                const bool up = ct_[l] > ce_[l];
                const double f = ct_[l] - ce_[l];
                lo_[l] = (r && up) ? ce_[l] : lo_[l];
                f_lo_[l] = (r && up) ? f : f_lo_[l];
                hi_[l] = (r && !up) ? ce_[l] : hi_[l];
                f_hi_[l] = (r && !up) ? f : f_hi_[l];
            }
        }

        // Final evaluation at the converged damping (0 for blocked lanes):
        // the mechanics alone give the steady-state amplitude the envelope
        // relaxes towards.
        for (std::size_t l = 0; l < B; ++l)
            ce_[l] = blocked_[l] ? 0.0 : 0.5 * (lo_[l] + hi_[l]);
        mechanics_lanes(B, c_mech, phi, gp.max_displacement_m, ce_.data(),
                        omega_.data(), re_.data(), ma_.data(), u_.data(),
                        za_.data(), e_.data(), vel_.data(), xx_.data());
        for (std::size_t l = 0; l < B; ++l) {
            if (blocked_[l])
                paths_[l].forget();
            else
                paths_[l].learn(ce_[l], lo_[l], f_lo_[l], hi_[l], f_hi_[l]);
        }

        for (std::size_t l = 0; l < B; ++l) {
            const double tau = 2.0 * m / (c_mech + ce_[l]);
            dz[l] = (za_[l] - z_in[l]) / tau;
        }

        // Charging from the instantaneous envelope amplitude (not the
        // target): one more bridge evaluation at emf = phi * omega * z.
        for (std::size_t l = 0; l < B; ++l) {
            e_[l] = phi * omega_[l] * z_in[l];
            xx_[l] = std::min(u_[l] / e_[l], 1.0);
        }
        conduction_angle_lanes(B, xx_.data(), th1_.data(), cth_.data());
        for (std::size_t l = 0; l < B; ++l) {
            const double ee = e_[l];
            const double span = k_pi - 2.0 * th1_[l];
            const double i_avg =
                (2.0 * ee * cth_[l] - u_[l] * span) * inv_pir;
            ich[l] = ee > u_[l] ? i_avg : 0.0;
        }
    } else {
        // MPPT front-end: matched load c_e = c_mech independent of the
        // store voltage; extracted power delivered at fixed efficiency.
        const double c_match = c_mech;
        const double c_total = c_mech + c_match;
        const double tau = 2.0 * m / c_total;
        const double xmax = gp.max_displacement_m;
        for (std::size_t l = 0; l < B; ++l) {
            const double im = c_total * omega_[l];
            const double denom = std::sqrt(re_[l] * re_[l] + im * im);
            double amp = ma_[l] / denom;
            amp = std::min(amp, xmax);
            dz[l] = (amp - z_in[l]) / tau;
            const double vel_env = omega_[l] * z_in[l];
            const double p_extracted = 0.5 * c_match * vel_env * vel_env;
            const double i = efficiency * p_extracted / v_in[l];
            ich[l] = v_in[l] > 0.05 ? i : 0.0;
        }
    }
}

}  // namespace

std::unique_ptr<envelope_batch> electromagnetic_harvester::make_envelope_batch(
    std::size_t lanes) const {
    return std::make_unique<em_envelope_batch>(gen_, lanes);
}

}  // namespace ehdse::harvester
