// Pluggable surrogate models behind one interface — the paper's pipeline
// (design selection -> simulation -> surface fit -> optimisation) always
// fits *some* surface to the DOE responses; this layer makes the fit
// stage selectable by name so the quadratic RSM of eq. 9 can be swapped
// for the stepwise-reduced polynomial or the Gaussian-process surrogate
// without touching the flow.
//
// A surrogate_model fits points/responses and returns a surrogate_fit:
// a polymorphic fitted_surface handle plus diagnostics computed the SAME
// way for every model kind (R², adjusted R², leave-one-out CV RMSE), so
// cross-model comparisons (bench_ext_surrogates, Table VI under GP vs
// quadratic) read one set of numbers. Models resolve through
// make_surrogate(name), mirroring opt::make_optimizer; the registered
// names travel through spec::flow_spec::surrogate.
#pragma once

#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "numeric/matrix.hpp"
#include "obs/json.hpp"

namespace ehdse::rsm {

struct fit_result;  // rsm/quadratic_model.hpp

/// A fitted response surface over the coded box: the thing the optimise
/// phase maximises. Implementations are immutable after construction and
/// predict() is safe to call concurrently.
class fitted_surface {
public:
    virtual ~fitted_surface() = default;

    /// Input dimension (number of coded variables).
    virtual std::size_t dimension() const noexcept = 0;

    /// Predicted response at a coded point.
    virtual double predict(const numeric::vec& x) const = 0;

    /// Whether predict_variance is meaningful for this surface.
    virtual bool has_variance() const noexcept { return false; }

    /// Predictive variance at a coded point. Throws std::logic_error
    /// unless has_variance().
    virtual double predict_variance(const numeric::vec& x) const;

    /// Human-readable equation / parameter summary for reports.
    virtual std::string to_string(int precision = 4) const = 0;

    /// Structured model description (kind, coefficients or
    /// hyperparameters) for run manifests.
    virtual obs::json_value describe() const = 0;
};

/// A fitted surface plus diagnostics computed uniformly across model
/// kinds. `surface` is shared so flow results stay copyable.
struct surrogate_fit {
    std::string surrogate;  ///< registry name of the model that fitted this
    std::shared_ptr<const fitted_surface> surface;
    numeric::vec fitted;     ///< prediction at each training point
    numeric::vec residuals;  ///< y - fitted
    double sse = 0.0;
    double r_squared = 0.0;
    double adj_r_squared = 0.0;
    /// Leave-one-out cross-validation RMSE: refit without each point,
    /// predict it, RMS over the held-out errors. +inf when any fold is
    /// unfittable (e.g. a saturated quadratic design), NaN before fit.
    double loo_rmse = std::numeric_limits<double>::quiet_NaN();

    /// Convenience forward to the surface.
    double predict(const numeric::vec& x) const { return surface->predict(x); }

    /// The underlying quadratic fit when this surface is the paper's
    /// quadratic RSM, nullptr for every other surrogate — the gate the
    /// quadratic-only consumers (ANOVA, lack-of-fit, Sobol indices) check
    /// before downcasting.
    const fit_result* quadratic() const noexcept;

    /// Uniform diagnostics + surface description as one JSON object (the
    /// manifest's "fit" option). Non-finite values serialise as null.
    obs::json_value diagnostics() const;
};

/// A named, fittable surrogate family. fit() validates shapes, delegates
/// to the concrete fitter, and computes the shared diagnostics.
class surrogate_model {
public:
    virtual ~surrogate_model() = default;

    virtual std::string name() const = 0;
    virtual std::string description() const = 0;

    /// Fit to observations y at coded design points. Throws
    /// std::invalid_argument on shape mismatches or a design the family
    /// cannot fit (message says why).
    virtual surrogate_fit fit(const std::vector<numeric::vec>& points,
                              const numeric::vec& y) const;

protected:
    /// Fit the surface only; `effective_terms` receives the coefficient /
    /// hyperparameter count used for adjusted R².
    virtual std::shared_ptr<const fitted_surface> fit_surface(
        const std::vector<numeric::vec>& points, const numeric::vec& y,
        std::size_t& effective_terms) const = 0;

    /// Generic refit-per-fold leave-one-out CV (used by the default fit());
    /// +inf when any fold refuses to fit.
    double loo_rmse(const std::vector<numeric::vec>& points,
                    const numeric::vec& y) const;
};

/// One registry row: the spellings --list-surrogates prints.
struct surrogate_info {
    std::string name;
    std::string description;
};

/// Registered surrogate families, in presentation order:
/// "quadratic" (paper eq. 9), "stepwise", "gp".
const std::vector<surrogate_info>& surrogate_registry();

/// True when `name` is a registered surrogate.
bool is_known_surrogate(std::string_view name) noexcept;

/// Comma-separated registered names, for error messages.
std::string surrogate_names();

/// Construct a surrogate by registry name. Throws std::invalid_argument
/// naming the offender and listing the valid choices.
std::shared_ptr<surrogate_model> make_surrogate(std::string_view name);

}  // namespace ehdse::rsm
