#include "sim/batch_ode.hpp"

#include <algorithm>
#include <stdexcept>

#include "sim/cash_karp.hpp"

namespace ehdse::sim {

void batch_state::set_lane(std::size_t lane, std::span<const double> x) {
    if (x.size() != vars_)
        throw std::invalid_argument("batch_state::set_lane: size mismatch");
    for (std::size_t v = 0; v < vars_; ++v) var(v)[lane] = x[v];
}

std::vector<double> batch_state::lane_state(std::size_t lane) const {
    std::vector<double> x(vars_);
    for (std::size_t v = 0; v < vars_; ++v) x[v] = var(v)[lane];
    return x;
}

batch_rk45_integrator::batch_rk45_integrator(std::size_t vars,
                                             std::size_t lanes,
                                             ode_options options)
    : vars_(vars),
      lanes_(lanes),
      opt_(options),
      dt_hint_(lanes, 0.0),
      dt_try_(lanes, 0.0),
      stage_t_(lanes, 0.0),
      err_(lanes, 0.0),
      attempt_(lanes, 0),
      failed_(lanes, 0),
      segment_attempts_(lanes, 0),
      steps_taken_(lanes, 0),
      steps_rejected_(lanes, 0),
      ex_(lanes, 0),
      dev_(lanes, 0.0),
      shift_(lanes, 0.0),
      shift4_(lanes, 0.0),
      stiff_(lanes),
      column_(vars, lanes),
      k1_(vars, lanes),
      k2_(vars, lanes),
      k3_(vars, lanes),
      k4_(vars, lanes),
      k5_(vars, lanes),
      k6_(vars, lanes),
      xtmp_(vars, lanes),
      x5_(vars, lanes) {
    if (vars == 0 || lanes == 0)
        throw std::invalid_argument("batch_rk45_integrator: empty batch");
}

std::size_t batch_rk45_integrator::step_once(const batch_analog_system& sys,
                                             std::span<double> t,
                                             std::span<const double> target,
                                             batch_state& x,
                                             std::span<lane_step> outcome) {
    const std::size_t B = lanes_;
    if (t.size() != B || target.size() != B || outcome.size() != B ||
        x.lanes() != B || x.vars() != vars_)
        throw std::invalid_argument("batch_rk45_integrator: size mismatch");
    const std::size_t s = sys.stiff_element();
    const bool stiff = s != no_stiff_element;
    if (stiff && s >= vars_)
        throw std::invalid_argument(
            "batch_rk45_integrator: stiff element out of range");

    // Build this sweep's attempt mask and per-lane trial steps. An
    // inactive lane gets dt_try = 0, which makes every stage below a
    // no-op for its slots (xtmp == x, stage time == t) without branching
    // inside the vectorised loops.
    std::size_t attempted = 0;
    for (std::size_t l = 0; l < B; ++l) {
        outcome[l] = lane_step::idle;
        const bool active = !failed_[l] && t[l] < target[l];
        attempt_[l] = active ? 1 : 0;
        if (!active) {
            dt_try_[l] = 0.0;
            continue;
        }
        ++attempted;
        double dt = dt_hint_[l] > 0.0 ? dt_hint_[l] : opt_.initial_dt;
        dt = std::min(dt, opt_.max_dt);
        dt = std::min(dt, target[l] - t[l]);
        dt_try_[l] = dt;
    }
    if (attempted == 0) return 0;

    const auto stage = [&](const batch_state& from, double frac,
                           batch_state& k) {
        for (std::size_t l = 0; l < B; ++l)
            stage_t_[l] = t[l] + frac * dt_try_[l];
        sys.derivatives(stage_t_, from, k, attempt_);
    };

    // Six Cash–Karp stages, each a flat var-major loop over lanes. Lanes
    // with a usable stiff column (ex_) take the exponential form: their
    // stage derivatives become remainders and their stage inputs shift
    // (cash_karp.hpp); value selects leave every other lane's plain
    // expressions, so a lane's step never depends on its neighbours.
    namespace ck = cash_karp;
    const double* h = dt_try_.data();
    stage(x, 0.0, k1_);
    bool any_ex = false;
    if (stiff) {
        sys.stiff_column(column_);
        const double* as = column_.var(s);
        const double* xs = x.var(s);
        const double* k1s = k1_.var(s);
        for (std::size_t l = 0; l < B; ++l) {
            const bool ex =
                attempt_[l] && stiff_[l].start(-as[l], xs[l], k1s[l], h[l]);
            ex_[l] = ex ? 1 : 0;
            dt_try_[l] = ex ? stiff_[l].h : dt_try_[l];
            dev_[l] = ex ? stiff_[l].d0 : 0.0;
            any_ex = any_ex || ex;
        }
    } else {
        std::fill(ex_.begin(), ex_.end(), std::uint8_t{0});
    }
    const auto remainders = [&](batch_state& k) {
        for (std::size_t v = 0; v < vars_; ++v) {
            const double* av = column_.var(v);
            double* kv = k.var(v);
            for (std::size_t l = 0; l < B; ++l)
                kv[l] = ex_[l] ? ck::remainder(kv[l], av[l], dev_[l]) : kv[l];
        }
    };
    // After stage j's derivatives: X_j,s - z* per lane, then remainders.
    const auto stage_remainders = [&](batch_state& k) {
        const double* xs = xtmp_.var(s);
        for (std::size_t l = 0; l < B; ++l)
            dev_[l] = ex_[l] ? xs[l] - stiff_[l].z_star : 0.0;
        remainders(k);
    };
    // Shift this sweep's stage input by shift_ on the exponential lanes.
    const auto shift_inputs = [&] {
        for (std::size_t v = 0; v < vars_; ++v) {
            const double* av = column_.var(v);
            double* tv = xtmp_.var(v);
            for (std::size_t l = 0; l < B; ++l)
                tv[l] = ex_[l] ? ck::shifted(tv[l], av[l], shift_[l]) : tv[l];
        }
    };
    if (any_ex) remainders(k1_);
    for (std::size_t v = 0; v < vars_; ++v) {
        const double* xv = x.var(v);
        const double* k1v = k1_.var(v);
        double* tv = xtmp_.var(v);
        for (std::size_t l = 0; l < B; ++l)
            tv[l] = ck::stage2(xv[l], h[l], k1v[l]);
    }
    if (any_ex) {
        for (std::size_t l = 0; l < B; ++l)
            shift_[l] = ex_[l] ? stiff_[l].shift2() : 0.0;
        shift_inputs();
    }
    stage(xtmp_, ck::a2, k2_);
    if (any_ex) stage_remainders(k2_);
    for (std::size_t v = 0; v < vars_; ++v) {
        const double* xv = x.var(v);
        const double* k1v = k1_.var(v);
        const double* k2v = k2_.var(v);
        double* tv = xtmp_.var(v);
        for (std::size_t l = 0; l < B; ++l)
            tv[l] = ck::stage3(xv[l], h[l], k1v[l], k2v[l]);
    }
    if (any_ex) {
        const double* n2 = k2_.var(s);
        for (std::size_t l = 0; l < B; ++l)
            shift_[l] = ex_[l] ? stiff_[l].shift3(n2[l]) : 0.0;
        shift_inputs();
    }
    stage(xtmp_, ck::a3, k3_);
    if (any_ex) stage_remainders(k3_);
    for (std::size_t v = 0; v < vars_; ++v) {
        const double* xv = x.var(v);
        const double* k1v = k1_.var(v);
        const double* k2v = k2_.var(v);
        const double* k3v = k3_.var(v);
        double* tv = xtmp_.var(v);
        for (std::size_t l = 0; l < B; ++l)
            tv[l] = ck::stage4(xv[l], h[l], k1v[l], k2v[l], k3v[l]);
    }
    if (any_ex) {
        const double* n2 = k2_.var(s);
        const double* n3 = k3_.var(s);
        for (std::size_t l = 0; l < B; ++l)
            shift_[l] = ex_[l] ? stiff_[l].shift4(n2[l], n3[l]) : 0.0;
        shift_inputs();
    }
    stage(xtmp_, ck::a4, k4_);
    if (any_ex) stage_remainders(k4_);
    for (std::size_t v = 0; v < vars_; ++v) {
        const double* xv = x.var(v);
        const double* k1v = k1_.var(v);
        const double* k2v = k2_.var(v);
        const double* k3v = k3_.var(v);
        const double* k4v = k4_.var(v);
        double* tv = xtmp_.var(v);
        for (std::size_t l = 0; l < B; ++l)
            tv[l] = ck::stage5(xv[l], h[l], k1v[l], k2v[l], k3v[l], k4v[l]);
    }
    if (any_ex) {
        const double* n2 = k2_.var(s);
        const double* n3 = k3_.var(s);
        const double* n4 = k4_.var(s);
        for (std::size_t l = 0; l < B; ++l)
            shift_[l] =
                ex_[l] ? stiff_[l].shift5(n2[l], n3[l], n4[l]) : 0.0;
        shift_inputs();
    }
    stage(xtmp_, ck::a5, k5_);
    if (any_ex) stage_remainders(k5_);
    for (std::size_t v = 0; v < vars_; ++v) {
        const double* xv = x.var(v);
        const double* k1v = k1_.var(v);
        const double* k2v = k2_.var(v);
        const double* k3v = k3_.var(v);
        const double* k4v = k4_.var(v);
        const double* k5v = k5_.var(v);
        double* tv = xtmp_.var(v);
        for (std::size_t l = 0; l < B; ++l)
            tv[l] = ck::stage6(xv[l], h[l], k1v[l], k2v[l], k3v[l], k4v[l],
                               k5v[l]);
    }
    if (any_ex) {
        const double* n2 = k2_.var(s);
        const double* n3 = k3_.var(s);
        const double* n4 = k4_.var(s);
        const double* n5 = k5_.var(s);
        for (std::size_t l = 0; l < B; ++l)
            shift_[l] = ex_[l] ? stiff_[l].shift6(n2[l], n3[l], n4[l], n5[l])
                               : 0.0;
        shift_inputs();
    }
    stage(xtmp_, ck::a6, k6_);
    if (any_ex) stage_remainders(k6_);

    // The solutions' shifts: shift_ for the fifth order, shift4_ for the
    // fourth (both 0 on plain lanes).
    if (any_ex) {
        const double* n3 = k3_.var(s);
        const double* n4 = k4_.var(s);
        const double* n6 = k6_.var(s);
        for (std::size_t l = 0; l < B; ++l) {
            shift_[l] = ex_[l] ? stiff_[l].shift_fifth(n3[l], n4[l], n6[l])
                               : 0.0;
            shift4_[l] = ex_[l] ? stiff_[l].shift_fourth(n3[l], n4[l], n6[l])
                                : 0.0;
        }
    }

    // Embedded 4th/5th-order error estimate, per lane (max over variables).
    for (std::size_t l = 0; l < B; ++l) err_[l] = 0.0;
    for (std::size_t v = 0; v < vars_; ++v) {
        const double* xv = x.var(v);
        const double* k1v = k1_.var(v);
        const double* k3v = k3_.var(v);
        const double* k4v = k4_.var(v);
        const double* k5v = k5_.var(v);
        const double* k6v = k6_.var(v);
        const double* av = column_.var(v);
        double* x5v = x5_.var(v);
        double* err = err_.data();
        for (std::size_t l = 0; l < B; ++l) {
            double x5 =
                ck::fifth_order(xv[l], h[l], k1v[l], k3v[l], k4v[l], k6v[l]);
            double x4 = ck::fourth_order(xv[l], h[l], k1v[l], k3v[l], k4v[l],
                                         k5v[l], k6v[l]);
            x5 = ex_[l] ? ck::shifted(x5, av[l], shift_[l]) : x5;
            x4 = ex_[l] ? ck::shifted(x4, av[l], shift4_[l]) : x4;
            x5v[l] = x5;
            err[l] = std::max(err[l], ck::error_ratio(xv[l], x5, x4,
                                                      opt_.abs_tol,
                                                      opt_.rel_tol));
        }
    }

    // Per-lane accept/reject — scalar bookkeeping (pow is off the
    // vector path; it runs once per lane per sweep, not per stage).
    for (std::size_t l = 0; l < B; ++l) {
        if (!attempt_[l]) continue;
        if (segment_attempts_[l] >= opt_.max_steps) {
            failed_[l] = 1;
            outcome[l] = lane_step::failed;
            continue;
        }
        ++segment_attempts_[l];
        const double dt = dt_try_[l];
        const double err_ratio = err_[l];
        if (err_ratio <= 1.0) {
            t[l] += dt;
            for (std::size_t v = 0; v < vars_; ++v)
                x.var(v)[l] = x5_.var(v)[l];
            ++steps_taken_[l];
            outcome[l] = lane_step::advanced;
            dt_hint_[l] = cash_karp::grown_dt(dt, err_ratio, opt_.max_dt);
        } else {
            ++steps_rejected_[l];
            const double shrunk = cash_karp::shrunk_dt(dt, err_ratio);
            dt_hint_[l] = shrunk;
            if (shrunk < opt_.min_dt) {
                failed_[l] = 1;
                outcome[l] = lane_step::failed;
            } else {
                outcome[l] = lane_step::rejected;
            }
        }
    }
    return attempted;
}

}  // namespace ehdse::sim
