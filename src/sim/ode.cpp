#include "sim/ode.hpp"

#include <algorithm>
#include <stdexcept>

#include "sim/cash_karp.hpp"

namespace ehdse::sim {

void rk45_integrator::resize_buffers(std::size_t n) {
    if (k1_.size() == n) return;
    k1_.resize(n); k2_.resize(n); k3_.resize(n); k4_.resize(n);
    k5_.resize(n); k6_.resize(n); xtmp_.resize(n); x5_.resize(n);
}

ode_status rk45_integrator::integrate(
    const analog_system& sys, double t0, double t1, std::vector<double>& x,
    const std::function<void(double, std::span<const double>)>& observer) {
    // Hoist the observer emptiness check out of the step loop: the no-op
    // functor below inlines to nothing, so untraced runs (every DoE /
    // optimiser evaluation) skip std::function dispatch entirely.
    if (observer) return integrate_loop(sys, t0, t1, x, observer);
    struct no_observer {
        void operator()(double, std::span<const double>) const noexcept {}
    };
    return integrate_loop(sys, t0, t1, x, no_observer{});
}

template <typename Observer>
ode_status rk45_integrator::integrate_loop(const analog_system& sys, double t0,
                                           double t1, std::vector<double>& x,
                                           Observer&& observer) {
    if (t1 < t0) throw std::invalid_argument("rk45_integrator: t1 < t0");
    const std::size_t n = sys.state_size();
    if (x.size() != n) throw std::invalid_argument("rk45_integrator: state size mismatch");
    resize_buffers(n);

    ode_status status;
    double t = t0;
    double dt = dt_hint_ > 0.0 ? dt_hint_ : opt_.initial_dt;
    dt = std::min(dt, opt_.max_dt);

    while (t < t1) {
        if (status.steps_taken + status.steps_rejected >= opt_.max_steps) {
            status.ok = false;
            break;
        }
        dt = std::min(dt, t1 - t);

        // Six Cash–Karp stages.
        sys.derivatives(t, x, k1_);
        for (std::size_t i = 0; i < n; ++i)
            xtmp_[i] = cash_karp::stage2(x[i], dt, k1_[i]);
        sys.derivatives(t + cash_karp::a2 * dt, xtmp_, k2_);
        for (std::size_t i = 0; i < n; ++i)
            xtmp_[i] = cash_karp::stage3(x[i], dt, k1_[i], k2_[i]);
        sys.derivatives(t + cash_karp::a3 * dt, xtmp_, k3_);
        for (std::size_t i = 0; i < n; ++i)
            xtmp_[i] = cash_karp::stage4(x[i], dt, k1_[i], k2_[i], k3_[i]);
        sys.derivatives(t + cash_karp::a4 * dt, xtmp_, k4_);
        for (std::size_t i = 0; i < n; ++i)
            xtmp_[i] =
                cash_karp::stage5(x[i], dt, k1_[i], k2_[i], k3_[i], k4_[i]);
        sys.derivatives(t + cash_karp::a5 * dt, xtmp_, k5_);
        for (std::size_t i = 0; i < n; ++i)
            xtmp_[i] = cash_karp::stage6(x[i], dt, k1_[i], k2_[i], k3_[i],
                                         k4_[i], k5_[i]);
        sys.derivatives(t + cash_karp::a6 * dt, xtmp_, k6_);

        double err_ratio = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            const double x5 = cash_karp::fifth_order(x[i], dt, k1_[i], k3_[i],
                                                     k4_[i], k6_[i]);
            const double x4 = cash_karp::fourth_order(x[i], dt, k1_[i], k3_[i],
                                                      k4_[i], k5_[i], k6_[i]);
            x5_[i] = x5;
            err_ratio = std::max(err_ratio,
                                 cash_karp::error_ratio(x[i], x5, x4,
                                                        opt_.abs_tol,
                                                        opt_.rel_tol));
        }

        if (err_ratio <= 1.0) {
            t += dt;
            x.swap(x5_);
            ++status.steps_taken;
            observer(t, x);
            dt = cash_karp::grown_dt(dt, err_ratio, opt_.max_dt);
        } else {
            ++status.steps_rejected;
            dt = cash_karp::shrunk_dt(dt, err_ratio);
            if (dt < opt_.min_dt) {
                status.ok = false;
                break;
            }
        }
    }
    status.last_dt = dt;
    dt_hint_ = dt;
    return status;
}

}  // namespace ehdse::sim
