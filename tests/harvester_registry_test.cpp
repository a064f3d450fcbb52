// The harvester-backend registry contract plus the electrostatic device
// class itself: registry listings, construction by name, the per-backend
// invariants every entry must satisfy (ascending tuning law, tuning-table
// compatibility, sane describe(), a batch hook that matches the scalar
// one lane by lane, bit for bit), and the electrostatic physics — bias
// ramp, spring softening, charge-pump extraction, and the envelope /
// transient energy agreement the equivalent-damping construction promises.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numbers>
#include <stdexcept>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "dse/system_evaluator.hpp"
#include "harvester/electromagnetic.hpp"
#include "harvester/electrostatic.hpp"
#include "harvester/harvester_model.hpp"
#include "harvester/tuning_table.hpp"
#include "harvester/vibration.hpp"
#include "power/load_bank.hpp"
#include "power/supercapacitor.hpp"
#include "testkit/prng.hpp"

namespace {

using namespace ehdse;
namespace eh = ehdse::harvester;

TEST(HarvesterRegistry, ListsBothDeviceClasses) {
    const auto& registry = eh::harvester_registry();
    ASSERT_EQ(registry.size(), 2u);
    // The paper's device stays first: it is the default every legacy spec
    // resolves to.
    EXPECT_EQ(registry[0].name, "electromagnetic");
    EXPECT_EQ(registry[1].name, "electrostatic");
    for (const eh::harvester_info& info : registry) {
        EXPECT_FALSE(info.description.empty()) << info.name;
        EXPECT_TRUE(eh::is_known_harvester(info.name)) << info.name;
    }
    EXPECT_FALSE(eh::is_known_harvester("piezoelectric"));
    EXPECT_NE(eh::harvester_names().find("electromagnetic"), std::string::npos);
    EXPECT_NE(eh::harvester_names().find("electrostatic"), std::string::npos);
}

TEST(HarvesterRegistry, MakeHarvesterBuildsEveryEntry) {
    for (const eh::harvester_info& info : eh::harvester_registry()) {
        const auto model = eh::make_harvester(info.name);
        ASSERT_NE(model, nullptr) << info.name;
        EXPECT_EQ(model->name(), info.name);
        // Both device classes use the paper's 8-bit actuator resolution.
        EXPECT_EQ(model->position_count(), 256) << info.name;
        const obs::json_value doc = model->describe();
        EXPECT_TRUE(doc.is_object()) << info.name;
        EXPECT_EQ(doc.at("name").as_string(), info.name);
    }
}

TEST(HarvesterRegistry, UnknownNameIsRejectedListingChoices) {
    try {
        (void)eh::make_harvester("piezoelectric");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("piezoelectric"), std::string::npos);
        EXPECT_NE(what.find("electromagnetic"), std::string::npos);
        EXPECT_NE(what.find("electrostatic"), std::string::npos);
    }
}

TEST(HarvesterRegistry, TuningLawAscendsForEveryEntry) {
    for (const eh::harvester_info& info : eh::harvester_registry()) {
        const auto model = eh::make_harvester(info.name);
        double prev = model->resonant_frequency(0);
        for (int pos = 1; pos < model->position_count(); ++pos) {
            const double f = model->resonant_frequency(pos);
            EXPECT_GT(f, prev) << info.name << " position " << pos;
            prev = f;
        }
        EXPECT_DOUBLE_EQ(model->min_frequency(), model->resonant_frequency(0));
        EXPECT_DOUBLE_EQ(
            model->max_frequency(),
            model->resonant_frequency(model->position_count() - 1));
    }
}

TEST(HarvesterRegistry, TuningTableAcceptsEveryEntry) {
    for (const eh::harvester_info& info : eh::harvester_registry()) {
        const auto model = eh::make_harvester(info.name);
        const eh::tuning_table table(*model);
        EXPECT_DOUBLE_EQ(table.min_frequency(), model->min_frequency());
        EXPECT_DOUBLE_EQ(table.max_frequency(), model->max_frequency());
        // The table must invert the tuning law exactly at its own samples.
        for (int pos : {0, 17, 128, 255})
            EXPECT_EQ(table.lookup(model->resonant_frequency(pos)), pos)
                << info.name;
    }
}

TEST(HarvesterRegistry, ActuatorCostsMatchEachMechanism) {
    // Electromagnetic: the Haydon stepper (milliseconds, millijoules).
    const eh::retune_cost em = eh::make_harvester("electromagnetic")->actuator();
    EXPECT_DOUBLE_EQ(em.step_time_s, 5.0e-3);
    EXPECT_DOUBLE_EQ(em.single_step_energy_j, 4.06e-3);
    EXPECT_DOUBLE_EQ(em.multi_step_energy_j, 2.03e-3);
    EXPECT_DOUBLE_EQ(em.min_drive_voltage_v, 2.6);
    // Electrostatic: a bias-DAC write (microseconds, microjoules).
    const eh::retune_cost es = eh::make_harvester("electrostatic")->actuator();
    EXPECT_DOUBLE_EQ(es.step_time_s, 1.0e-4);
    EXPECT_DOUBLE_EQ(es.single_step_energy_j, 2.0e-6);
    EXPECT_DOUBLE_EQ(es.multi_step_energy_j, 1.0e-6);
    EXPECT_DOUBLE_EQ(es.min_drive_voltage_v, 1.8);
}

TEST(HarvesterRegistry, EnvelopeBatchMatchesTheScalarHookPerLane) {
    // Every entry's batch hook against its scalar hook called with a fresh
    // path, lane by lane and bitwise, along slow per-lane walks with jumps
    // — so batch lanes warm-start, and now and then a stale path fails its
    // check. The default batch loops the scalar hook; the electromagnetic
    // entry's hook is its batch kernel on one lane.
    const power::rectifier_params rect;
    testkit::prng r(2012);
    for (const eh::harvester_info& info : eh::harvester_registry()) {
        const auto model = eh::make_harvester(info.name);
        const eh::tuning_table table(*model);
        // One stimulus whose frequency (new value every second, across the
        // tuning band) and amplitude (18..120 mg, new every 0.7 s) vary
        // independently along its 200 s, so a lane's time picks both.
        std::vector<std::pair<double, double>> freqs, scales;
        for (int k = 0; k < 200; ++k)
            freqs.emplace_back(k, r.uniform(model->min_frequency(),
                                            model->max_frequency()));
        for (int k = 0; k < 286; ++k)
            scales.emplace_back(0.7 * k, r.uniform(0.3, 2.0));
        const eh::vibration_source vib =
            eh::vibration_source::from_schedule(0.060 * eh::k_gravity, freqs)
                .with_amplitude_schedule(scales);
        for (const eh::conditioning_kind cond :
             {eh::conditioning_kind::diode_bridge, eh::conditioning_kind::mppt}) {
            std::size_t lanes_checked = 0, conducting = 0, mismatches = 0;
            for (const std::size_t width : {1u, 3u, 10u, 16u}) {
                const auto batch = model->make_envelope_batch(width);
                std::vector<double> t(width), v(width), z(width), rate(width),
                    current(width), relax(width), slope(width);
                std::vector<int> pos(width);
                const auto draw = [&](std::size_t l) {
                    t[l] = r.uniform(0.0, 199.0);
                    const int tuned = table.lookup(vib.frequency_at(t[l]));
                    pos[l] = r.chance(0.75)
                                 ? std::clamp(tuned + static_cast<int>(
                                                          r.integer(-3, 3)),
                                              0, model->position_count() - 1)
                                 : static_cast<int>(r.integer(
                                       0, model->position_count() - 1));
                    v[l] = r.uniform(0.0, 5.0);
                    z[l] = r.uniform(0.0, 1e-3);
                };
                for (std::size_t l = 0; l < width; ++l) draw(l);

                for (int call = 0; call < 50; ++call) {
                    for (std::size_t l = 0; l < width; ++l) {
                        if (r.chance(0.05)) {
                            draw(l);
                            continue;
                        }
                        t[l] += r.uniform(0.0, 0.02);
                        v[l] = std::max(0.0, v[l] + r.uniform(-1e-3, 1e-3));
                        z[l] = std::max(0.0, z[l] + r.uniform(-1e-6, 1e-6));
                    }
                    batch->rates({vib, t, pos, v, z}, cond, 0.75, rect,
                                 {rate, current, relax, slope});
                    for (std::size_t l = 0; l < width; ++l) {
                        eh::damping_path fresh;
                        const eh::envelope_rates want = model->envelope_dynamics(
                            vib.frequency_at(t[l]), vib.amplitude_at(t[l]),
                            pos[l], v[l], z[l], cond, 0.75, rect, fresh);
                        ++lanes_checked;
                        if (want.charge_current_a > 0.0) ++conducting;
                        const auto agree = [](double got, double ref) {
                            return std::bit_cast<std::uint64_t>(got) ==
                                   std::bit_cast<std::uint64_t>(ref);
                        };
                        if (agree(rate[l], want.amplitude_rate) &&
                            agree(current[l], want.charge_current_a) &&
                            agree(relax[l], want.relaxation_rate) &&
                            agree(slope[l], want.charge_slope))
                            continue;
                        if (mismatches++ == 0)
                            ADD_FAILURE()
                                << info.name << " conditioning "
                                << static_cast<int>(cond) << " width " << width
                                << " call " << call << " lane " << l
                                << ": amplitude_rate " << rate[l] << " vs "
                                << want.amplitude_rate << ", charge_current "
                                << current[l] << " vs "
                                << want.charge_current_a
                                << ", relaxation_rate " << relax[l] << " vs "
                                << want.relaxation_rate << ", charge_slope "
                                << slope[l] << " vs " << want.charge_slope;
                    }
                }
            }
            EXPECT_EQ(mismatches, 0u) << info.name << " of " << lanes_checked;
            // The walks must exercise both a charging and an idle store.
            EXPECT_GT(conducting, lanes_checked / 10) << info.name;
            EXPECT_LT(conducting, lanes_checked) << info.name;
        }
    }
}

TEST(HarvesterRegistry, EnvelopeRatesReportTheirZEnvSlopes) {
    // relaxation_rate and charge_slope are the integrator's Jacobian
    // column (sim/cash_karp.hpp): -d(amplitude_rate)/dz_env and
    // d(charge_current)/dz_env, checked by central differences at charging
    // operating points, and zero current slope where nothing charges.
    const power::rectifier_params rect;
    for (const eh::harvester_info& info : eh::harvester_registry()) {
        const auto model = eh::make_harvester(info.name);
        for (const eh::conditioning_kind cond :
             {eh::conditioning_kind::diode_bridge, eh::conditioning_kind::mppt}) {
            std::size_t charging = 0;
            for (const int pos : {40, 128, 200}) {
                const double f = model->resonant_frequency(pos);
                const double a = 0.060 * eh::k_gravity;
                for (const double v : {1.0, 2.8, 3.6}) {
                    const double z0 =
                        model->initial_amplitude(f, a, pos, v, rect);
                    const auto at = [&](double z) {
                        eh::damping_path path;
                        return model->envelope_dynamics(f, a, pos, v, z, cond,
                                                        0.75, rect, path);
                    };
                    const double dz = 1e-6 * z0;
                    const eh::envelope_rates r = at(z0);
                    const eh::envelope_rates up = at(z0 + dz);
                    const eh::envelope_rates dn = at(z0 - dz);
                    const std::string where = info.name + " pos " +
                                              std::to_string(pos) + " v " +
                                              std::to_string(v);
                    EXPECT_GT(r.relaxation_rate, 0.0) << where;
                    EXPECT_NEAR(-(up.amplitude_rate - dn.amplitude_rate) /
                                    (2.0 * dz),
                                r.relaxation_rate, 1e-6 * r.relaxation_rate)
                        << where;
                    if (r.charge_current_a > 0.0 && dn.charge_current_a > 0.0) {
                        ++charging;
                        EXPECT_NEAR((up.charge_current_a - dn.charge_current_a) /
                                        (2.0 * dz),
                                    r.charge_slope, 1e-5 * r.charge_slope)
                            << where;
                    } else if (up.charge_current_a == 0.0) {
                        EXPECT_EQ(r.charge_slope, 0.0) << where;
                    }
                }
            }
            EXPECT_GT(charging, 0u) << info.name;
        }
    }
}

TEST(Electrostatic, BiasRampFallsAsResonanceRises) {
    const eh::electrostatic_harvester dev;
    const eh::electrostatic_params& p = dev.params();
    EXPECT_DOUBLE_EQ(dev.bias_at(0), p.bias_max_v);
    EXPECT_DOUBLE_EQ(dev.bias_at(255), p.bias_min_v);
    // Falling bias -> stiffer (less softened) spring -> higher resonance.
    for (int pos = 1; pos < dev.position_count(); ++pos) {
        EXPECT_LT(dev.bias_at(pos), dev.bias_at(pos - 1));
        EXPECT_GT(dev.effective_stiffness(pos),
                  dev.effective_stiffness(pos - 1));
        EXPECT_LT(dev.electrical_damping(pos),
                  dev.electrical_damping(pos - 1));
    }
    // Default calibration: a 58..94 Hz band bracketing the paper device's
    // 64..88 Hz.
    EXPECT_NEAR(dev.min_frequency(), 58.0, 0.1);
    EXPECT_NEAR(dev.max_frequency(), 94.0, 0.1);
    EXPECT_THROW((void)dev.bias_at(-1), std::out_of_range);
    EXPECT_THROW((void)dev.bias_at(256), std::out_of_range);
}

TEST(Electrostatic, SofteningAndExtractionFollowBiasSquared) {
    const eh::electrostatic_harvester dev;
    const eh::electrostatic_params& p = dev.params();
    for (int pos : {0, 100, 255}) {
        const double u = dev.bias_at(pos) / p.pull_in_voltage_v;
        EXPECT_NEAR(dev.effective_stiffness(pos),
                    dev.base_stiffness() * (1.0 - p.softening_alpha * u * u),
                    1e-9 * dev.base_stiffness());
        EXPECT_NEAR(dev.electrical_damping(pos), p.coupling_damping * u * u,
                    1e-12);
    }
}

TEST(Electrostatic, DisplacementClipsAtEndStops) {
    const eh::electrostatic_harvester dev;
    const double omega = 2.0 * std::numbers::pi * dev.resonant_frequency(128);
    // Resonant drive at an absurd acceleration must saturate at the stops.
    EXPECT_DOUBLE_EQ(dev.displacement_amplitude(omega, 500.0, 128),
                     dev.params().max_displacement_m);
    // A gentle off-resonance drive stays well inside them.
    EXPECT_LT(dev.displacement_amplitude(0.5 * omega, 0.1, 128),
              dev.params().max_displacement_m);
}

TEST(Electrostatic, EnvelopeRelaxesTowardSteadyStateAmplitude) {
    const eh::electrostatic_harvester dev;
    const power::rectifier_params rect;
    const double f = dev.resonant_frequency(64);
    const double accel = 0.6;
    const int pos = 64;
    const double target = dev.initial_amplitude(f, accel, pos, 2.5, rect);
    eh::damping_path path;
    const auto below = dev.envelope_dynamics(
        f, accel, pos, 2.5, 0.5 * target, eh::conditioning_kind::diode_bridge,
        1.0, rect, path);
    const auto at = dev.envelope_dynamics(
        f, accel, pos, 2.5, target, eh::conditioning_kind::diode_bridge, 1.0,
        rect, path);
    EXPECT_GT(below.amplitude_rate, 0.0);
    EXPECT_NEAR(at.amplitude_rate, 0.0, 1e-12);
    EXPECT_GT(at.charge_current_a, 0.0);
    // Below the priming threshold the pump cannot deliver.
    const auto unprimed = dev.envelope_dynamics(
        f, accel, pos, 0.1, target, eh::conditioning_kind::diode_bridge, 1.0,
        rect, path);
    EXPECT_DOUBLE_EQ(unprimed.charge_current_a, 0.0);
}

TEST(Electrostatic, InvalidParametersAreRejected) {
    eh::electrostatic_params bad_mass;
    bad_mass.mass_kg = 0.0;
    EXPECT_THROW(eh::electrostatic_harvester{bad_mass}, std::invalid_argument);
    eh::electrostatic_params inverted;
    inverted.bias_min_v = 50.0;  // above bias_max_v
    EXPECT_THROW(eh::electrostatic_harvester{inverted}, std::invalid_argument);
    eh::electrostatic_params collapsed;
    collapsed.bias_max_v = collapsed.pull_in_voltage_v * 1.3;
    EXPECT_THROW(eh::electrostatic_harvester{collapsed}, std::invalid_argument);
}

TEST(Electrostatic, TransientSystemContract) {
    const eh::electrostatic_harvester dev;
    const eh::vibration_source vib(0.6, 70.0);
    const power::supercapacitor cap;
    const power::load_bank loads;
    const power::rectifier_params rect;
    const auto rhs = dev.make_transient(vib, cap, loads, rect);
    ASSERT_NE(rhs, nullptr);
    EXPECT_EQ(rhs->state_size(), 4u);
    const auto x0 = rhs->initial_state(2.7);
    ASSERT_EQ(x0.size(), 4u);
    EXPECT_DOUBLE_EQ(x0[rhs->voltage_index()], 2.7);
    EXPECT_DOUBLE_EQ(x0[rhs->harvested_index()], 0.0);
    rhs->set_position(200);
    EXPECT_EQ(rhs->position(), 200);
    EXPECT_THROW(rhs->set_position(-1), std::out_of_range);
    EXPECT_THROW(rhs->set_position(256), std::out_of_range);
    // The step ceiling resolves the fastest achievable resonance.
    EXPECT_LE(rhs->suggested_max_dt(), 1.0 / (20.0 * dev.max_frequency()));
}

TEST(Electrostatic, EnvelopeAndTransientAgreeOnHarvestedEnergy) {
    // The charge pump enters both fidelities as the same equivalent
    // viscous damping, so the envelope fast path and the cycle-resolving
    // transient model must agree on the energy actually delivered.
    dse::scenario s;
    s.duration_s = 240.0;
    s.step_period_s = 100.0;
    s.step_count = 1;
    const dse::system_evaluator ev(s, spec::harvester_spec{"electrostatic"});
    dse::evaluation_options env_opts, tr_opts;
    tr_opts.model = dse::fidelity::transient;
    const auto env = ev.evaluate(dse::system_config::original(), env_opts);
    const auto tr = ev.evaluate(dse::system_config::original(), tr_opts);
    EXPECT_TRUE(env.sim_ok);
    EXPECT_TRUE(tr.sim_ok);
    EXPECT_GT(env.harvested_energy_j, 0.0);
    EXPECT_NEAR(tr.harvested_energy_j, env.harvested_energy_j,
                0.10 * env.harvested_energy_j);
    EXPECT_NEAR(static_cast<double>(tr.transmissions),
                static_cast<double>(env.transmissions), 2.0);
    // The transient kernel resolves every vibration cycle.
    EXPECT_GT(tr.ode_steps, 20u * env.ode_steps);
}

}  // namespace
