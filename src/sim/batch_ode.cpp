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

    // Six Cash–Karp stages, each a flat var-major loop over lanes.
    namespace ck = cash_karp;
    const double* h = dt_try_.data();
    stage(x, 0.0, k1_);
    for (std::size_t v = 0; v < vars_; ++v) {
        const double* xv = x.var(v);
        const double* k1v = k1_.var(v);
        double* tv = xtmp_.var(v);
        for (std::size_t l = 0; l < B; ++l)
            tv[l] = ck::stage2(xv[l], h[l], k1v[l]);
    }
    stage(xtmp_, ck::a2, k2_);
    for (std::size_t v = 0; v < vars_; ++v) {
        const double* xv = x.var(v);
        const double* k1v = k1_.var(v);
        const double* k2v = k2_.var(v);
        double* tv = xtmp_.var(v);
        for (std::size_t l = 0; l < B; ++l)
            tv[l] = ck::stage3(xv[l], h[l], k1v[l], k2v[l]);
    }
    stage(xtmp_, ck::a3, k3_);
    for (std::size_t v = 0; v < vars_; ++v) {
        const double* xv = x.var(v);
        const double* k1v = k1_.var(v);
        const double* k2v = k2_.var(v);
        const double* k3v = k3_.var(v);
        double* tv = xtmp_.var(v);
        for (std::size_t l = 0; l < B; ++l)
            tv[l] = ck::stage4(xv[l], h[l], k1v[l], k2v[l], k3v[l]);
    }
    stage(xtmp_, ck::a4, k4_);
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
    stage(xtmp_, ck::a5, k5_);
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
    stage(xtmp_, ck::a6, k6_);

    // Embedded 4th/5th-order error estimate, per lane (max over variables).
    for (std::size_t l = 0; l < B; ++l) err_[l] = 0.0;
    for (std::size_t v = 0; v < vars_; ++v) {
        const double* xv = x.var(v);
        const double* k1v = k1_.var(v);
        const double* k3v = k3_.var(v);
        const double* k4v = k4_.var(v);
        const double* k5v = k5_.var(v);
        const double* k6v = k6_.var(v);
        double* x5v = x5_.var(v);
        double* err = err_.data();
        for (std::size_t l = 0; l < B; ++l) {
            const double x5 =
                ck::fifth_order(xv[l], h[l], k1v[l], k3v[l], k4v[l], k6v[l]);
            const double x4 = ck::fourth_order(xv[l], h[l], k1v[l], k3v[l],
                                               k4v[l], k5v[l], k6v[l]);
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
