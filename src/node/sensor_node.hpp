// eZ430-RF2500 wireless sensor node model (paper section IV-B).
//
// Behaviour (paper Table II): the node reads the supercapacitor voltage and
//   * below 2.7 V      -> no transmission (re-check periodically),
//   * 2.7 V .. 2.8 V   -> transmit every 1 minute,
//   * above 2.8 V      -> transmit every `fast_interval` (the x3 parameter).
//
// Each transmission (paper Table III) is wake-up (1 ms @ 4.5 mA), sensing
// (1.5 ms @ 13.4 mA) and transmission (2 ms @ 26.8 mA) — about 227 uJ at
// 2.8 V — plus a 0.5 uA sleep floor, equivalent to 167 ohm while
// transmitting and 5.8 Mohm asleep (paper eq. 8).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "harvester/plant.hpp"
#include "sim/simulator.hpp"

namespace ehdse::node {

/// Transmission scheduling policy.
enum class tx_policy {
    /// Paper Table II: three discrete voltage bands.
    banded,
    /// Extension: the interval interpolates continuously (in log space)
    /// between the fast interval at `proportional_full_v` and the slow one
    /// at the cut-off — the "transmission interval should depend on the
    /// available energy" idea without the 2.8 V cliff.
    proportional,
};

/// Electrical/timing parameters, defaulted to the published measurements.
struct node_params {
    // Table III — current draw per phase.
    double sleep_current_a = 0.5e-6;
    double wakeup_time_s = 1.0e-3;
    double wakeup_current_a = 4.5e-3;
    double sensing_time_s = 1.5e-3;
    double sensing_current_a = 13.4e-3;
    double tx_time_s = 2.0e-3;
    double tx_current_a = 26.8e-3;

    // Table II — voltage-banded policy.
    double cutoff_voltage_v = 2.7;    ///< below: no transmission
    double low_band_voltage_v = 2.8;  ///< below: slow interval
    double low_band_interval_s = 60.0;
    double fast_interval_s = 5.0;     ///< x3, the optimisation parameter

    tx_policy policy = tx_policy::banded;
    /// proportional policy: voltage at/above which the fast interval applies.
    double proportional_full_v = 2.9;

    /// Supply used for the paper-style constant-voltage energy figures.
    double nominal_supply_v = 2.8;
};

/// Derived quantities reproducing the numbers quoted in the paper.
struct node_energy_model {
    double active_time_s;        ///< 4.5 ms total burst
    double charge_per_tx_c;      ///< integral of current over the burst
    double energy_per_tx_j;      ///< at the nominal supply (paper: ~227 uJ)
    double r_transmit_ohm;       ///< equivalent resistance while transmitting
    double r_sleep_ohm;          ///< equivalent resistance asleep (~5.8 Mohm)
};

/// Compute the derived model from a parameter set.
node_energy_model derive_energy_model(const node_params& params);

/// One transmitted packet's payload — the node reports the sensed
/// temperature and the supercapacitor voltage (paper Fig. 3).
struct telemetry_sample {
    double time_s = 0.0;
    double temperature_c = 0.0;
    double supercap_v = 0.0;
};

/// The node as a digital process on the mixed-signal kernel.
class sensor_node final : public sim::process {
public:
    /// `plant` must outlive the node. The node registers its sleep draw on
    /// construction and schedules its first wake-up at t = first_wake.
    sensor_node(sim::simulator& sim, harvester::plant& plant,
                node_params params = {}, double first_wake_s = 0.0);

    /// Attach an environment-temperature source (degrees C as a function of
    /// simulation time) and start logging one telemetry_sample per
    /// transmission, up to `max_samples` (oldest kept). Without a source no
    /// log is kept — hour-long DOE runs stay allocation-light.
    void enable_telemetry(std::function<double(double)> temperature_source,
                          std::size_t max_samples = 100000);

    /// Logged packets (empty unless telemetry was enabled).
    const std::vector<telemetry_sample>& telemetry() const noexcept {
        return telemetry_;
    }

    const node_params& params() const noexcept { return params_; }

    /// Number of completed transmissions.
    std::uint64_t transmissions() const noexcept { return transmissions_; }

    /// Wake-ups that found the store below the cut-off (no transmission).
    std::uint64_t suppressed_wakeups() const noexcept { return suppressed_; }

    /// Transmissions performed in the slow (2.7–2.8 V) band.
    std::uint64_t low_band_transmissions() const noexcept { return low_band_tx_; }

    /// Energy drawn per transmission burst at storage voltage v.
    double burst_energy_at(double v) const;

    /// Interval the active policy commands at storage voltage v
    /// (infinity below the cut-off).
    double interval_at(double v) const;

private:
    void activate() override;

    harvester::plant& plant_;
    node_params params_;
    double burst_charge_c_;  ///< charge consumed by one wake/sense/tx burst
    std::uint64_t transmissions_ = 0;
    std::uint64_t suppressed_ = 0;
    std::uint64_t low_band_tx_ = 0;
    std::function<double(double)> temperature_source_;
    std::vector<telemetry_sample> telemetry_;
    std::size_t telemetry_cap_ = 0;
};

}  // namespace ehdse::node
