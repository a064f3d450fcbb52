// Deterministic elementary functions: polynomial forms whose bits depend
// only on IEEE double arithmetic as written (the libraries compile with
// -ffp-contract=off), not on which libm variant the host loads. The
// envelope kernel (harvester/electromagnetic_kernel.cpp) evaluates the
// diode bridge's conduction angle with asin_unit.
//
// Every function is branch-free: both sides of a range reduction are
// computed and one is selected.
#pragma once

#include <cmath>
#include <numbers>

namespace ehdse::numeric {

// Minimax-quality polynomial for asin: degree-15 Chebyshev-node fit of
// g(z) = asin(sqrt(z)) / sqrt(z) = P(z) = sum c_i z^i on [0, 1/4],
// combined with the standard range reduction
//     x <= 0.5 : asin(x) = x * P(x^2)
//     x  > 0.5 : asin(x) = pi/2 - 2 * sqrt(z) * P(z),  z = (1 - x) / 2
inline constexpr double k_asin_c[16] = {
    0.999999999999999999892,   0.166666666666666696405,
    0.0749999999999929945523,  0.0446428571436258050417,
    0.0303819443995999728947,  0.022372160664339752716,
    0.0173527281512837325891,  0.0139654279848651728254,
    0.0115449458992990427777,  0.00982171026194061776089,
    0.0079925162814942219587,  0.00929049937150757007781,
    -0.00077758985480906203174, 0.024269122565511237245,
    -0.0254272641358987083118, 0.0311710800182602128524,
};

// c_0 rounds to 1, so s P(z) = s + (s z) R(z) with R(z) = sum c_{i+1} z^i:
// the leading term stays exact and only the small correction rounds.
static_assert(k_asin_c[0] == 1.0);

/// R(z) = sum_{i=0}^{14} c_{i+1} z^i in Estrin's order: pairs, combined
/// with z^2, z^4 and z^8, so the dependent chain is four multiply-adds
/// deep instead of Horner's fourteen.
inline double asin_poly_tail(double z) {
    const double* c = k_asin_c;
    const double z2 = z * z;
    const double z4 = z2 * z2;
    const double z8 = z4 * z4;
    const double a0 = c[1] + c[2] * z;
    const double a1 = c[3] + c[4] * z;
    const double a2 = c[5] + c[6] * z;
    const double a3 = c[7] + c[8] * z;
    const double a4 = c[9] + c[10] * z;
    const double a5 = c[11] + c[12] * z;
    const double a6 = c[13] + c[14] * z;
    const double b0 = a0 + a1 * z2;
    const double b1 = a2 + a3 * z2;
    const double b2 = a4 + a5 * z2;
    const double b3 = a6 + c[15] * z2;
    const double d0 = b0 + b1 * z4;
    const double d1 = b2 + b3 * z4;
    return d0 + d1 * z8;
}

/// asin(x) for x in [0, 1] (an x outside it gives an unspecified value).
/// Within 4e-16 of std::asin (numeric_det_math_test); exact at 0, 1/2
/// and 1.
inline double asin_unit(double x) {
    const bool upper = x > 0.5;
    const double z = upper ? 0.5 * (1.0 - x) : x * x;
    const double s = upper ? std::sqrt(z) : x;
    const double r = s + (s * z) * asin_poly_tail(z);
    return upper ? 0.5 * std::numbers::pi - 2.0 * r : r;
}

}  // namespace ehdse::numeric
