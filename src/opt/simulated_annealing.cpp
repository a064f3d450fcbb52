#include "opt/simulated_annealing.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

namespace ehdse::opt {

opt_result simulated_annealing::maximize(const objective_fn& f,
                                         const box_bounds& bounds,
                                         numeric::rng& rng) const {
    bounds.validate();
    const std::size_t k = bounds.dimension();

    opt_result out;
    out.algorithm = name();

    // Calibrate the temperature scale from the objective's sampled spread so
    // sa_options::initial_temperature is dimensionless across problems.
    double spread = 0.0;
    {
        double lo = 0.0, hi = 0.0;
        for (std::size_t s = 0; s < opt_.calibration_samples; ++s) {
            const double v = f(bounds.random_point(rng));
            ++out.evaluations;
            if (s == 0) lo = hi = v;
            lo = std::min(lo, v);
            hi = std::max(hi, v);
        }
        spread = hi - lo;
    }
    if (spread <= 0.0) spread = 1.0;

    numeric::vec x = bounds.random_point(rng);
    double fx = f(x);
    ++out.evaluations;
    out.best_x = x;
    // A non-finite objective (NaN harvest, failed run) must not poison the
    // incumbent: every comparison against NaN is false, so an unguarded
    // assignment here would freeze best_value for the whole anneal.
    out.best_value =
        std::isfinite(fx) ? fx : -std::numeric_limits<double>::infinity();

    double temperature = opt_.initial_temperature * spread;
    const double t_floor = opt_.min_temperature * spread;
    double step_fraction = opt_.initial_step_fraction;

    // The proposal, reused across steps: it is built and clamped in place
    // and swapped with x on acceptance, so a step allocates nothing.
    numeric::vec y(k);
    for (std::size_t epoch = 0; epoch < opt_.max_epochs; ++epoch) {
        ++out.iterations;
        std::size_t accepted = 0;
        for (std::size_t s = 0; s < opt_.steps_per_epoch; ++s) {
            for (std::size_t i = 0; i < k; ++i)
                y[i] = std::clamp(
                    x[i] + rng.normal(0.0, step_fraction * bounds.width(i)),
                    bounds.lo[i], bounds.hi[i]);
            const double fy = f(y);
            ++out.evaluations;
            ++out.proposed_moves;
            // Non-finite proposals are always rejected; a non-finite current
            // point is always abandoned for a finite proposal. The
            // finite/finite path is untouched so clean runs draw the exact
            // same rng sequence as before.
            bool accept;
            if (!std::isfinite(fy)) {
                accept = false;
            } else if (!std::isfinite(fx)) {
                accept = true;
            } else {
                const double delta = fy - fx;  // maximisation: improvement is positive
                accept = delta >= 0.0 || rng.uniform() < std::exp(delta / temperature);
            }
            if (accept) {
                std::swap(x, y);
                fx = fy;
                ++accepted;
                if (fx > out.best_value) {
                    out.best_value = fx;
                    out.best_x = x;
                }
            }
        }
        out.accepted_moves += accepted;
        out.trajectory.push_back(out.best_value);
        temperature *= opt_.cooling_rate;
        // Shrink the neighbourhood as acceptance falls; keeps late epochs local.
        const double accept_rate =
            static_cast<double>(accepted) / static_cast<double>(opt_.steps_per_epoch);
        step_fraction = std::max(opt_.min_step_fraction,
                                 step_fraction * (accept_rate > 0.4 ? 1.05 : 0.90));
        if (temperature < t_floor) {
            out.converged = true;
            break;
        }
    }
    return out;
}

}  // namespace ehdse::opt
