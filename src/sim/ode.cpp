#include "sim/ode.hpp"

#include <algorithm>
#include <stdexcept>

#include "sim/cash_karp.hpp"

namespace ehdse::sim {

void rk45_integrator::resize_buffers(std::size_t n) {
    if (k1_.size() == n) return;
    k1_.resize(n); k2_.resize(n); k3_.resize(n); k4_.resize(n);
    k5_.resize(n); k6_.resize(n); xtmp_.resize(n); x5_.resize(n);
    column_.resize(n);
}

ode_status rk45_integrator::integrate(
    const analog_system& sys, double t0, double t1, std::vector<double>& x,
    const std::function<void(double, std::span<const double>)>& observer) {
    // Hoist the observer emptiness check out of the step loop: the no-op
    // functor below inlines to nothing, so untraced runs (every DoE /
    // optimiser evaluation) skip std::function dispatch entirely. So is
    // the stiff element: a system without one runs a loop with no trace
    // of the exponential form.
    struct no_observer {
        void operator()(double, std::span<const double>) const noexcept {}
    };
    const bool stiff = sys.stiff_element() != no_stiff_element;
    if (observer)
        return stiff ? integrate_loop<true>(sys, t0, t1, x, observer)
                     : integrate_loop<false>(sys, t0, t1, x, observer);
    return stiff ? integrate_loop<true>(sys, t0, t1, x, no_observer{})
                 : integrate_loop<false>(sys, t0, t1, x, no_observer{});
}

template <bool Stiff, typename Observer>
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

    const std::size_t s = sys.stiff_element();
    if (Stiff && s >= n)
        throw std::invalid_argument("rk45_integrator: stiff element out of range");

    // The exponential form's two element-wise passes (cash_karp.hpp): a
    // stage derivative into its remainder, and the shift of a stage input.
    const auto remainders = [&](std::vector<double>& k, double deviation) {
        for (std::size_t i = 0; i < n; ++i)
            k[i] = cash_karp::remainder(k[i], column_[i], deviation);
    };
    const auto shift = [&](double by) {
        for (std::size_t i = 0; i < n; ++i)
            xtmp_[i] = cash_karp::shifted(xtmp_[i], column_[i], by);
    };

    while (t < t1) {
        if (status.steps_taken + status.steps_rejected >= opt_.max_steps) {
            status.ok = false;
            break;
        }
        dt = std::min(dt, t1 - t);

        // Six Cash–Karp stages; with a usable stiff column, on the
        // remainders with shifted inputs.
        sys.derivatives(t, x, k1_);
        cash_karp::stiff_step stiff;
        bool ex = false;
        if constexpr (Stiff) {
            sys.stiff_column(column_);
            ex = stiff.start(-column_[s], x[s], k1_[s], dt);
            if (ex) {
                dt = stiff.h;
                remainders(k1_, stiff.d0);
            }
        }
        for (std::size_t i = 0; i < n; ++i)
            xtmp_[i] = cash_karp::stage2(x[i], dt, k1_[i]);
        if (ex) shift(stiff.shift2());
        sys.derivatives(t + cash_karp::a2 * dt, xtmp_, k2_);
        if (ex) remainders(k2_, xtmp_[s] - stiff.z_star);
        for (std::size_t i = 0; i < n; ++i)
            xtmp_[i] = cash_karp::stage3(x[i], dt, k1_[i], k2_[i]);
        if (ex) shift(stiff.shift3(k2_[s]));
        sys.derivatives(t + cash_karp::a3 * dt, xtmp_, k3_);
        if (ex) remainders(k3_, xtmp_[s] - stiff.z_star);
        for (std::size_t i = 0; i < n; ++i)
            xtmp_[i] = cash_karp::stage4(x[i], dt, k1_[i], k2_[i], k3_[i]);
        if (ex) shift(stiff.shift4(k2_[s], k3_[s]));
        sys.derivatives(t + cash_karp::a4 * dt, xtmp_, k4_);
        if (ex) remainders(k4_, xtmp_[s] - stiff.z_star);
        for (std::size_t i = 0; i < n; ++i)
            xtmp_[i] =
                cash_karp::stage5(x[i], dt, k1_[i], k2_[i], k3_[i], k4_[i]);
        if (ex) shift(stiff.shift5(k2_[s], k3_[s], k4_[s]));
        sys.derivatives(t + cash_karp::a5 * dt, xtmp_, k5_);
        if (ex) remainders(k5_, xtmp_[s] - stiff.z_star);
        for (std::size_t i = 0; i < n; ++i)
            xtmp_[i] = cash_karp::stage6(x[i], dt, k1_[i], k2_[i], k3_[i],
                                         k4_[i], k5_[i]);
        if (ex) shift(stiff.shift6(k2_[s], k3_[s], k4_[s], k5_[s]));
        sys.derivatives(t + cash_karp::a6 * dt, xtmp_, k6_);
        if (ex) remainders(k6_, xtmp_[s] - stiff.z_star);

        const double shift5 = ex ? stiff.shift_fifth(k3_[s], k4_[s], k6_[s]) : 0.0;
        const double shift4 = ex ? stiff.shift_fourth(k3_[s], k4_[s], k6_[s]) : 0.0;
        double err_ratio = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            double x5 = cash_karp::fifth_order(x[i], dt, k1_[i], k3_[i],
                                               k4_[i], k6_[i]);
            double x4 = cash_karp::fourth_order(x[i], dt, k1_[i], k3_[i],
                                                k4_[i], k5_[i], k6_[i]);
            if (ex) {
                x5 = cash_karp::shifted(x5, column_[i], shift5);
                x4 = cash_karp::shifted(x4, column_[i], shift4);
            }
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
