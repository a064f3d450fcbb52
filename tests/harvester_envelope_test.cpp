// Envelope solver: convergence, self-consistency, energy bounds,
// physical monotonicities across the operating space, and the envelope
// RHS kernel held to this libm solve.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>

#include "harvester/electromagnetic.hpp"
#include "harvester/envelope.hpp"
#include "harvester/vibration.hpp"
#include "harvester/tuning_table.hpp"
#include "power/rectifier.hpp"
#include "testkit/prng.hpp"

namespace eh = ehdse::harvester;

namespace {
constexpr double k_accel_60mg = 0.060 * eh::k_gravity;

const eh::microgenerator& gen() {
    static eh::microgenerator g;
    return g;
}
}  // namespace

TEST(Envelope, ConvergesAtResonance) {
    eh::tuning_table table(gen());
    const int pos = table.lookup(69.0);
    const auto pt = eh::solve_envelope(gen(), pos, 69.0, k_accel_60mg, 2.8);
    EXPECT_TRUE(pt.converged);
    EXPECT_GT(pt.elec.p_store_w, 0.0);
    EXPECT_GT(pt.c_electrical, 0.0);
}

TEST(Envelope, SelfConsistentDamping) {
    eh::tuning_table table(gen());
    const int pos = table.lookup(69.0);
    const auto pt = eh::solve_envelope(gen(), pos, 69.0, k_accel_60mg, 2.8);
    // c_e must equal 2 P_mech / (omega^2 Z^2) at the reported point.
    const double vel2 = pt.mech.velocity_amp_ms * pt.mech.velocity_amp_ms;
    const double c_implied = 2.0 * pt.elec.p_mech_w / vel2;
    EXPECT_NEAR(pt.c_electrical, c_implied, 1e-3 * gen().mech_damping());
}

TEST(Envelope, MechanicalPowerBoundedByTheory) {
    // P_mech can never exceed (mA)^2 / (8 c_m) — the regression guard for
    // the fixed-point bug this solver replaced.
    eh::tuning_table table(gen());
    const double p_max = std::pow(gen().params().mass_kg * k_accel_60mg, 2) /
                         (8.0 * gen().mech_damping());
    for (double f : {64.0, 66.0, 69.0, 74.0, 80.0, 87.0}) {
        const int pos = table.lookup(f);
        const auto pt = eh::solve_envelope(gen(), pos, f, k_accel_60mg, 2.8);
        ASSERT_LE(pt.elec.p_mech_w, p_max * (1.0 + 1e-6)) << "at f=" << f;
    }
}

TEST(Envelope, BlockedWhenStoreVoltageTooHigh) {
    eh::tuning_table table(gen());
    const int pos = table.lookup(69.0);
    // Open-circuit emf at resonance is a few volts; a 50 V store blocks.
    const auto pt = eh::solve_envelope(gen(), pos, 69.0, k_accel_60mg, 50.0);
    EXPECT_TRUE(pt.converged);
    EXPECT_FALSE(pt.elec.conducting);
    EXPECT_DOUBLE_EQ(pt.elec.p_store_w, 0.0);
    EXPECT_DOUBLE_EQ(pt.c_electrical, 0.0);
}

TEST(Envelope, ZeroAccelerationGivesZeroOutput) {
    const auto pt = eh::solve_envelope(gen(), 128, 70.0, 0.0, 2.8);
    EXPECT_DOUBLE_EQ(pt.mech.displacement_amp_m, 0.0);
    EXPECT_DOUBLE_EQ(pt.elec.p_store_w, 0.0);
}

TEST(Envelope, DetuningCollapsesOutput) {
    eh::tuning_table table(gen());
    const int pos = table.lookup(69.0);
    const auto tuned = eh::solve_envelope(gen(), pos, 69.0, k_accel_60mg, 2.8);
    const auto detuned = eh::solve_envelope(gen(), pos, 74.0, k_accel_60mg, 2.8);
    // 5 Hz off resonance with a high-Q device: output essentially gone.
    EXPECT_LT(detuned.elec.p_store_w, 0.05 * tuned.elec.p_store_w);
}

TEST(Envelope, InvalidInputsThrow) {
    EXPECT_THROW(eh::solve_envelope(gen(), 0, 0.0, 1.0, 2.8), std::invalid_argument);
    EXPECT_THROW(eh::solve_envelope(gen(), 0, 70.0, -1.0, 2.8), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Monotonicity sweeps across the storage-voltage axis at several detunings.

class EnvelopeVoltageSweep : public ::testing::TestWithParam<double> {};

TEST_P(EnvelopeVoltageSweep, ChargingCurrentDecreasesWithStoreVoltage) {
    const double detune_hz = GetParam();
    eh::tuning_table table(gen());
    const double f = 69.0 + detune_hz;
    const int pos = table.lookup(69.0);
    double last_i = 1e9;
    for (double v = 2.0; v <= 3.2; v += 0.2) {
        const auto pt = eh::solve_envelope(gen(), pos, f, k_accel_60mg, v);
        ASSERT_TRUE(pt.converged);
        ASSERT_LE(pt.elec.i_avg_a, last_i + 1e-12)
            << "detune=" << detune_hz << " v=" << v;
        last_i = pt.elec.i_avg_a;
    }
}

INSTANTIATE_TEST_SUITE_P(Detunings, EnvelopeVoltageSweep,
                         ::testing::Values(0.0, 0.2, 0.5, 1.0));

// Output power must fall monotonically as |detuning| grows.
TEST(Envelope, PowerFallsWithDetuneMagnitude) {
    eh::tuning_table table(gen());
    const int pos = table.lookup(72.0);
    const double f0 = gen().resonant_frequency(pos);
    double last = 1e9;
    for (double d = 0.0; d <= 2.0; d += 0.25) {
        const auto pt = eh::solve_envelope(gen(), pos, f0 + d, k_accel_60mg, 2.8);
        ASSERT_LE(pt.elec.p_store_w, last * (1.0 + 1e-9)) << "detune " << d;
        last = pt.elec.p_store_w;
    }
}

// The envelope RHS the integrators call is the electromagnetic kernel
// (polynomial asin, warm-started bisection); solve_envelope is its
// independent libm reference. Along slow walks of operating points, one
// path carried per walk as a run carries it, the hook's rates equal the
// rates built from the reference's c_e to solver tolerance: the kernel's
// c_e lies within one bisection tolerance of the reference's, and the
// charging bridge differs only by the asin rounding.
//
// Besides walks drawn across the tuning range, walks at full drive on the
// exact resonance of a low position start where the end stops clip the
// open-circuit amplitude (the warm-start property's open_circuit_clipped),
// so the kernel's trials at low damping take the limiter's argument x_b.
// Half of them hold the sink voltage just below the clipped emf
// phi omega x_max, where the bridge loads the device so lightly that the
// amplitude stays clipped at the converged damping and every trial near
// the root takes x_b.
TEST(Envelope, KernelRatesMatchTheLibmSolveToSolverTolerance) {
    const eh::electromagnetic_harvester model;
    const double tol = eh::envelope_options{}.tolerance * gen().mech_damping();
    const double phi = gen().params().coupling_v_per_ms;
    const double pir = std::numbers::pi * gen().params().coil_resistance_ohm;
    const double two_m = 2.0 * gen().params().mass_kg;
    ehdse::testkit::prng r(2012);
    std::size_t checked = 0, conducting = 0;
    std::size_t clipped = 0;       ///< calls clipped at c_e = 0
    std::size_t clipped_root = 0;  ///< conducting and clipped at c_e too
    const auto walk = [&](int walk_id, int pos, double f, double a,
                          double v_lo, double v_hi) {
        const bool clips =
            gen().response(2.0 * std::numbers::pi * f, a, pos, 0.0)
                .displacement_limited;
        double v = r.uniform(v_lo, v_hi);
        double z = r.uniform(0.0, 1.5e-3);
        eh::damping_path path;
        for (int i = 0; i < 50; ++i) {
            v = std::clamp(v + r.uniform(-1e-3, 1e-3), v_lo, v_hi);
            z = std::clamp(z + r.uniform(-1e-6, 1e-6), 0.0, 1.5e-3);
            const eh::envelope_rates got = model.envelope_dynamics(
                f, a, pos, v, z, eh::conditioning_kind::diode_bridge, 1.0, {},
                path);

            const eh::envelope_point ref = eh::solve_envelope(gen(), pos, f, a, v);
            const double za = ref.mech.displacement_amp_m;
            const double rate = (za - z) / gen().settling_tau(ref.c_electrical);
            // |d rate / d c_e| <= (2 za + z) / 2m: the target amplitude and
            // 1 / tau each move by at most dc / c_total relative.
            EXPECT_NEAR(got.amplitude_rate, rate,
                        tol * (2.0 * za + z) / two_m + 1e-18)
                << "walk " << walk_id << " call " << i;

            const double emf = phi * 2.0 * std::numbers::pi * f * z;
            const ehdse::power::rectifier_operating_point elec =
                ehdse::power::bridge_average(emf, v,
                                             gen().params().coil_resistance_ohm);
            EXPECT_NEAR(got.charge_current_a, elec.i_avg_a,
                        1e-12 * (emf + v + 1.0) / pir)
                << "walk " << walk_id << " call " << i;
            ++checked;
            conducting += elec.conducting ? 1 : 0;
            const bool loaded_clipped =
                ref.c_electrical > 0.0 && ref.mech.displacement_limited;
            clipped += clips ? 1 : 0;
            clipped_root += clips && loaded_clipped ? 1 : 0;
        }
    };
    for (int w = 0; w < 40; ++w) {
        const int pos = static_cast<int>(r.integer(0, 255));
        const double f =
            r.chance(0.5) ? gen().resonant_frequency(pos) + r.uniform(-0.3, 0.3)
                          : r.uniform(gen().min_frequency(), gen().max_frequency());
        walk(w, pos, f, r.uniform(0.2, 2.0) * k_accel_60mg, 0.0, 5.0);
    }
    for (int w = 40; w < 60; ++w) {
        const int pos = static_cast<int>(r.integer(0, 16));
        const double f = gen().resonant_frequency(pos);
        const double e_clip = phi * 2.0 * std::numbers::pi * f *
                              gen().params().max_displacement_m;
        if (w % 2 == 0)
            walk(w, pos, f, 2.0 * k_accel_60mg, 0.0, 5.0);
        else
            walk(w, pos, f, 2.0 * k_accel_60mg, 0.98 * e_clip, 0.99 * e_clip);
    }
    // The walks exercise both a charging and an idle store, every
    // end-stop walk clips, and the near-blocking ones converge clipped.
    EXPECT_GT(conducting, checked / 10);
    EXPECT_LT(conducting, checked);
    EXPECT_EQ(clipped, 20u * 50u);
    EXPECT_GE(clipped_root, 100u);
}
