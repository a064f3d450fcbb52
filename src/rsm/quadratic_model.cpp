#include "rsm/quadratic_model.hpp"

#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "numeric/decomp.hpp"
#include "numeric/stats.hpp"

namespace ehdse::rsm {

std::size_t quadratic_term_count(std::size_t k) {
    return 1 + 2 * k + k * (k - 1) / 2;
}

numeric::vec quadratic_basis(const numeric::vec& x) {
    const std::size_t k = x.size();
    numeric::vec b;
    b.reserve(quadratic_term_count(k));
    b.push_back(1.0);
    for (double xi : x) b.push_back(xi);
    for (double xi : x) b.push_back(xi * xi);
    for (std::size_t i = 0; i < k; ++i)
        for (std::size_t j = i + 1; j < k; ++j) b.push_back(x[i] * x[j]);
    return b;
}

std::string quadratic_term_name(std::size_t k, std::size_t t) {
    if (t == 0) return "1";
    if (t <= k) return "x" + std::to_string(t);
    if (t <= 2 * k) return "x" + std::to_string(t - k) + "^2";
    std::size_t idx = t - 2 * k - 1;
    for (std::size_t i = 0; i < k; ++i)
        for (std::size_t j = i + 1; j < k; ++j) {
            if (idx == 0)
                return "x" + std::to_string(i + 1) + "*x" + std::to_string(j + 1);
            --idx;
        }
    throw std::out_of_range("quadratic_term_name: term index out of range");
}

numeric::matrix build_design_matrix(const std::vector<numeric::vec>& points) {
    if (points.empty())
        throw std::invalid_argument("build_design_matrix: no design points");
    numeric::matrix x;
    for (const auto& p : points) {
        if (p.size() != points.front().size())
            throw std::invalid_argument("build_design_matrix: inconsistent point dimensions");
        x.append_row(quadratic_basis(p));
    }
    return x;
}

quadratic_model::quadratic_model(std::size_t dimension, numeric::vec coefficients)
    : k_(dimension), beta_(std::move(coefficients)) {
    if (beta_.size() != quadratic_term_count(k_))
        throw std::invalid_argument("quadratic_model: coefficient count mismatch");
}

double quadratic_model::predict(const numeric::vec& x) const {
    if (x.size() != k_)
        throw std::invalid_argument("quadratic_model::predict: dimension mismatch");
    // numeric::dot(beta_, quadratic_basis(x)) without building the basis:
    // the same products, summed from 0.0 in the basis order, so the same
    // bits (a -0 intercept included).
    double acc = 0.0 + beta_[0];
    const double* b = beta_.data() + 1;
    for (std::size_t i = 0; i < k_; ++i) acc += *b++ * x[i];
    for (std::size_t i = 0; i < k_; ++i) acc += *b++ * (x[i] * x[i]);
    for (std::size_t i = 0; i < k_; ++i)
        for (std::size_t j = i + 1; j < k_; ++j) acc += *b++ * (x[i] * x[j]);
    return acc;
}

numeric::vec quadratic_model::gradient(const numeric::vec& x) const {
    if (x.size() != k_)
        throw std::invalid_argument("quadratic_model::gradient: dimension mismatch");
    numeric::vec g(k_, 0.0);
    for (std::size_t i = 0; i < k_; ++i)
        g[i] = linear(i) + 2.0 * quadratic(i) * x[i];
    for (std::size_t i = 0; i < k_; ++i)
        for (std::size_t j = i + 1; j < k_; ++j) {
            const double bij = interaction(i, j);
            g[i] += bij * x[j];
            g[j] += bij * x[i];
        }
    return g;
}

double quadratic_model::intercept() const { return beta_.at(0); }

double quadratic_model::linear(std::size_t i) const {
    if (i >= k_) throw std::out_of_range("quadratic_model::linear");
    return beta_[1 + i];
}

double quadratic_model::quadratic(std::size_t i) const {
    if (i >= k_) throw std::out_of_range("quadratic_model::quadratic");
    return beta_[1 + k_ + i];
}

double quadratic_model::interaction(std::size_t i, std::size_t j) const {
    if (i == j || i >= k_ || j >= k_)
        throw std::out_of_range("quadratic_model::interaction");
    if (i > j) std::swap(i, j);
    // Offset of pair (i, j) in the i<j enumeration order.
    std::size_t idx = 0;
    for (std::size_t a = 0; a < i; ++a) idx += k_ - 1 - a;
    idx += j - i - 1;
    return beta_[1 + 2 * k_ + idx];
}

std::string quadratic_model::to_string(int precision) const {
    std::ostringstream os;
    os.precision(precision);
    os << std::fixed;
    const std::size_t p = beta_.size();
    for (std::size_t t = 0; t < p; ++t) {
        const double b = beta_[t];
        if (t == 0) {
            os << b;
            continue;
        }
        os << (b >= 0.0 ? " + " : " - ") << std::abs(b) << "*"
           << quadratic_term_name(k_, t);
    }
    return os.str();
}

fit_result fit_quadratic(const std::vector<numeric::vec>& points,
                         const numeric::vec& y) {
    if (points.size() != y.size())
        throw std::invalid_argument("fit_quadratic: observation count mismatch");
    const std::size_t k = points.front().size();
    const std::size_t p = quadratic_term_count(k);
    if (points.size() < p)
        throw std::invalid_argument(
            "fit_quadratic: need at least " + std::to_string(p) +
            " runs for a quadratic in " + std::to_string(k) + " variables");

    const numeric::matrix x = build_design_matrix(points);
    const numeric::qr_decomposition qr(x);
    if (qr.rank_deficient())
        throw std::domain_error(
            "fit_quadratic: design matrix is rank-deficient — the design "
            "points do not support a full quadratic model");

    fit_result out;
    out.model = quadratic_model(k, qr.solve(y));
    out.fitted = x * out.model.coefficients();
    out.residuals = numeric::sub(y, out.fitted);
    out.sse = numeric::residual_sum_squares(y, out.fitted);
    out.r_squared = numeric::r_squared(y, out.fitted);
    out.adj_r_squared = numeric::adjusted_r_squared(y, out.fitted, p);

    // PRESS via the hat matrix: e_loo,i = e_i / (1 - h_ii). For saturated
    // designs (n == p) every h_ii is 1 and PRESS is undefined; report inf.
    const numeric::matrix info = x.gram();
    const numeric::lu_decomposition lu(info);
    if (!lu.singular()) {
        const numeric::matrix info_inv = lu.inverse();
        double press = 0.0;
        bool saturated = false;
        for (std::size_t i = 0; i < points.size(); ++i) {
            const numeric::vec bi = quadratic_basis(points[i]);
            const double h = numeric::dot(bi, info_inv * bi);
            if (h >= 1.0 - 1e-9) {
                saturated = true;
                break;
            }
            const double e = out.residuals[i] / (1.0 - h);
            press += e * e;
        }
        if (saturated) {
            out.press = std::numeric_limits<double>::infinity();
            out.press_rmse = std::numeric_limits<double>::infinity();
        } else {
            out.press = press;
            out.press_rmse = std::sqrt(press / static_cast<double>(points.size()));
        }
    }
    return out;
}

}  // namespace ehdse::rsm
