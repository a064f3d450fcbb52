// The deterministic elementary functions (numeric/det_math.hpp) against
// libm: asin_unit over a dense sweep of [0, 1], at both ends, at the
// range reduction's switch x = 1/2 and an ulp either side of it.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "numeric/det_math.hpp"

namespace {

/// |asin_unit(x) - std::asin(x)|.
double asin_error(double x) {
    return std::abs(ehdse::numeric::asin_unit(x) - std::asin(x));
}

}  // namespace

TEST(DetMath, AsinUnitIsWithin4e16OfLibmOnTheUnitInterval) {
    constexpr double k_bound = 4e-16;
    constexpr int k_points = 2'000'000;
    double worst = 0.0;
    double worst_x = 0.0;
    for (int i = 0; i <= k_points; ++i) {
        const double x = static_cast<double>(i) / k_points;
        const double err = asin_error(x);
        if (err > worst) {
            worst = err;
            worst_x = x;
        }
    }
    EXPECT_LE(worst, k_bound) << "at x = " << worst_x;

    constexpr double inf = std::numeric_limits<double>::infinity();
    for (const double x :
         {0.0, 0.5, 1.0, std::nextafter(0.5, 0.0), std::nextafter(0.5, inf),
          std::nextafter(1.0, 0.0), std::numeric_limits<double>::min(),
          std::numeric_limits<double>::denorm_min(), 1e-8, 0.25, 0.75})
        EXPECT_LE(asin_error(x), k_bound) << "at x = " << x;
    // Both ends and the switch are exact.
    for (const double x : {0.0, 0.5, 1.0})
        EXPECT_EQ(ehdse::numeric::asin_unit(x), std::asin(x)) << "at x = " << x;
}
