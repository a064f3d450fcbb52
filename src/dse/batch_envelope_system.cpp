#include "dse/batch_envelope_system.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "harvester/envelope.hpp"

namespace ehdse::dse {

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

}  // namespace

batch_envelope_system::batch_envelope_system(
    const harvester::microgenerator& gen,
    const harvester::vibration_source& vib,
    std::shared_ptr<const power::storage_model> storage,
    power::rectifier_params rect, std::size_t lanes)
    : gen_(gen),
      vib_(vib),
      storage_(std::move(storage)),
      rect_(rect),
      lanes_(lanes),
      position_(lanes, 0),
      stiffness_(lanes, gen.effective_stiffness(0)),
      loads_(lanes),
      load_slots_(lanes),
      ledgers_(lanes),
      v_(lanes), z_(lanes), omega_(lanes), re_(lanes), ma_(lanes), u_(lanes),
      lo_(lanes), hi_(lanes), ce_(lanes), ct_(lanes), za_(lanes),
      e_(lanes), vel_(lanes), xx_(lanes), th1_(lanes), cth_(lanes),
      ct_lo_(lanes), f_lo_(lanes), f_hi_(lanes), blocked_(lanes, 0),
      refine_(lanes, 0), warm_(lanes, 0), it_(lanes, 0), paths_(lanes) {
    if (!storage_)
        throw std::invalid_argument("batch_envelope_system: null storage");
    if (lanes == 0)
        throw std::invalid_argument("batch_envelope_system: zero lanes");
    plants_.reserve(lanes);
    for (std::size_t l = 0; l < lanes; ++l)
        plants_.push_back(std::make_unique<lane_plant>(*this, l));
}

sim::batch_simulator& batch_envelope_system::bsim() const {
    if (bsim_ == nullptr)
        throw std::logic_error("batch_envelope_system: no simulator attached");
    return *bsim_;
}

void batch_envelope_system::set_frontend(frontend_kind kind,
                                         double efficiency) {
    if (kind == frontend_kind::mppt && !(efficiency > 0.0 && efficiency <= 1.0))
        throw std::invalid_argument(
            "batch_envelope_system: mppt efficiency must be in (0, 1]");
    frontend_ = kind;
    frontend_efficiency_ = efficiency;
}

std::vector<double> batch_envelope_system::initial_state(
    double v0, int initial_position) {
    if (v0 < 0.0)
        throw std::invalid_argument(
            "batch_envelope_system: negative initial voltage");
    for (std::size_t l = 0; l < lanes_; ++l) plant(l).set_position(initial_position);
    // Scalar solve — runs once per batch; identical to the scalar system's
    // initial state so both paths start from the same point.
    const harvester::envelope_point pt = harvester::solve_envelope(
        gen_, initial_position, vib_.frequency_at(0.0), vib_.amplitude_at(0.0),
        v0, rect_);
    std::vector<double> x(k_state_count, 0.0);
    x[ix_voltage] = v0;
    x[ix_amplitude] = pt.mech.displacement_amp_m;
    return x;
}

sim::ode_options batch_envelope_system::suggested_ode_options() const {
    // Identical to envelope_system::suggested_ode_options().
    sim::ode_options ode;
    ode.abs_tol = 1e-8;
    ode.rel_tol = 1e-6;
    ode.initial_dt = 1e-3;
    ode.max_dt = 5.0;
    return ode;
}

namespace {

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

}  // namespace

void batch_envelope_system::eval_damping(const double* ce, double* c_target,
                                         double* za) const {
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

void batch_envelope_system::derivatives(
    std::span<const double> t, const sim::batch_state& x,
    sim::batch_state& dxdt, std::span<const std::uint8_t> /*active*/) const {
    // Full-width, branch-free-per-lane computation: lanes the integrator
    // masked out get (ignored) values computed too — cheaper than breaking
    // the vector loops up.
    const std::size_t B = lanes_;
    const auto& gp = gen_.params();
    const double m = gp.mass_kg;
    const double c_mech = gen_.mech_damping();
    const double phi = gp.coupling_v_per_ms;
    const double inv_pir = 1.0 / (k_pi * gp.coil_resistance_ohm);
    const double two_vd = 2.0 * rect_.diode_drop_v;

    const double* xv = x.var(ix_voltage);
    const double* xz = x.var(ix_amplitude);
    double* dv = dxdt.var(ix_voltage);
    double* dz = dxdt.var(ix_amplitude);
    double* dh = dxdt.var(ix_harvested);
    double* de = dxdt.var(ix_load_energy);

    // Per-lane stimulus and coefficients. The schedule lookups are scalar
    // per lane (piecewise-constant, a handful of segments) — negligible
    // next to the damping solve below.
    for (std::size_t l = 0; l < B; ++l) {
        const double v = std::max(xv[l], 0.0);
        v_[l] = v;
        z_[l] = std::max(xz[l], 0.0);
        const double omega = 2.0 * k_pi * vib_.frequency_at(t[l]);
        omega_[l] = omega;
        re_[l] = stiffness_[l] - m * omega * omega;
        ma_[l] = m * vib_.amplitude_at(t[l]);
        u_[l] = v + two_vd;
    }

    // i_charge lands in ct_ once the solver is done with it.
    double* ich = ct_.data();

    if (frontend_ == frontend_kind::diode_bridge) {
        // --- Lockstep bisection for the self-consistent electrical damping,
        // mirroring harvester::solve_envelope lane-for-lane (same tolerance,
        // same bracket, same warm start, same expansion and stop rules). ---
        const double tol = harvester::envelope_options{}.tolerance * c_mech;
        const double c_hi_limit =
            phi * phi / gp.coil_resistance_ohm + c_mech;
        const int max_iterations =
            harvester::envelope_options{}.max_iterations;

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
            const harvester::damping_cell cell =
                warm_[l] ? paths_[l].predicted_cell(ct_[l] - ce_[l],
                                                    c_hi_limit, tol,
                                                    max_iterations)
                         : harvester::damping_cell{};
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

        // Final evaluation at the converged damping (0 for blocked lanes)
        // gives the steady-state amplitude the envelope relaxes towards.
        for (std::size_t l = 0; l < B; ++l)
            ce_[l] = blocked_[l] ? 0.0 : 0.5 * (lo_[l] + hi_[l]);
        eval_damping(ce_.data(), ct_.data(), za_.data());
        for (std::size_t l = 0; l < B; ++l) {
            if (blocked_[l])
                paths_[l].forget();
            else
                paths_[l].learn(ce_[l], lo_[l], f_lo_[l], hi_[l], f_hi_[l]);
        }

        for (std::size_t l = 0; l < B; ++l) {
            const double tau = 2.0 * m / (c_mech + ce_[l]);
            dz[l] = (za_[l] - z_[l]) / tau;
        }

        // Charging from the instantaneous envelope amplitude (not the
        // target): one more bridge evaluation at emf = phi * omega * z.
        for (std::size_t l = 0; l < B; ++l) {
            e_[l] = phi * omega_[l] * z_[l];
            xx_[l] = std::min(u_[l] / e_[l], 1.0);
        }
        for (std::size_t l = 0; l < B; ++l) {
            const double xw = xx_[l];
            const double z_lo = xw * xw;
            const double z_hi = 0.5 * (1.0 - xw);
            const bool upper = xw > 0.5;
            const double zz = upper ? z_hi : z_lo;
            const double p = asin_poly_eval(zz);
            const double sq = std::sqrt(zz);
            const double s = upper ? sq : xw;
            const double r0 = s * p;
            th1_[l] = upper ? k_half_pi - 2.0 * r0 : r0;
            cth_[l] = std::sqrt(1.0 - xw * xw);
        }
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
        const double eff = frontend_efficiency_;
        const double xmax = gp.max_displacement_m;
        for (std::size_t l = 0; l < B; ++l) {
            const double im = c_total * omega_[l];
            const double denom = std::sqrt(re_[l] * re_[l] + im * im);
            double amp = ma_[l] / denom;
            amp = std::min(amp, xmax);
            dz[l] = (amp - z_[l]) / tau;
            const double vel_env = omega_[l] * z_[l];
            const double p_extracted = 0.5 * c_match * vel_env * vel_env;
            const double i = eff * p_extracted / v_[l];
            ich[l] = v_[l] > 0.05 ? i : 0.0;
        }
    }

    // Common tail: sustained loads, storage dynamics, energy integrals.
    // Per-lane load banks and the (shared, virtual) storage model run
    // scalar — they are event-rate-configured and trivially cheap next to
    // the damping solve.
    for (std::size_t l = 0; l < B; ++l) {
        const double v = v_[l];
        const double i_loads = loads_[l].total_current(v);
        dv[l] = storage_->dv_dt(v, ich[l] - i_loads);
        dh[l] = v * ich[l];
        de[l] = v * i_loads;
    }
}

// --- lane_plant -----------------------------------------------------------

double batch_envelope_system::lane_plant::storage_voltage() const {
    return owner_->bsim().state_at(lane_, ix_voltage);
}

void batch_envelope_system::lane_plant::withdraw(double joules,
                                                 const std::string& account) {
    if (joules < 0.0)
        throw std::invalid_argument(
            "batch_envelope_system: negative withdrawal");
    const double v = storage_voltage();
    owner_->bsim().set_state(
        lane_, ix_voltage, owner_->storage_->voltage_after_withdrawal(v, joules));
    owner_->ledgers_[lane_].record(account, joules);
}

void batch_envelope_system::lane_plant::set_sustained_draw(
    const std::string& account, double amps) {
    auto& slots = owner_->load_slots_[lane_];
    auto it = slots.find(account);
    if (it == slots.end())
        it = slots.emplace(account, owner_->loads_[lane_].add_load(account))
                 .first;
    owner_->loads_[lane_].set_current(it->second, amps);
}

void batch_envelope_system::lane_plant::set_position(int position) {
    if (position < 0 ||
        position >= harvester::microgenerator_params::k_position_count)
        throw std::out_of_range(
            "batch_envelope_system: actuator position outside [0,255]");
    owner_->position_[lane_] = position;
    owner_->stiffness_[lane_] = owner_->gen_.effective_stiffness(position);
}

double batch_envelope_system::lane_plant::vibration_frequency() const {
    return owner_->vib_.frequency_at(owner_->bsim().now(lane_));
}

double batch_envelope_system::lane_plant::phase_lag() const {
    // Event-rate measurement tap: the scalar solver keeps it bit-faithful
    // to the scalar system's phase_lag at the same (t, V, position).
    const double tnow = owner_->bsim().now(lane_);
    const double v = storage_voltage();
    const harvester::envelope_point pt = harvester::solve_envelope(
        owner_->gen_, owner_->position_[lane_], owner_->vib_.frequency_at(tnow),
        owner_->vib_.amplitude_at(tnow), v, owner_->rect_);
    const double omega = 2.0 * k_pi * owner_->vib_.frequency_at(tnow);
    const double k = owner_->stiffness_[lane_];
    const double m = owner_->gen_.params().mass_kg;
    const double c_total = owner_->gen_.mech_damping() + pt.c_electrical;
    return std::atan2(c_total * omega, k - m * omega * omega);
}

}  // namespace ehdse::dse
