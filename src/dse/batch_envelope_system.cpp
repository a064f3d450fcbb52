#include "dse/batch_envelope_system.hpp"

#include <algorithm>
#include <stdexcept>

namespace ehdse::dse {

batch_envelope_system::batch_envelope_system(
    const harvester::harvester_model& model,
    const harvester::vibration_source& vib,
    std::shared_ptr<const power::storage_model> storage,
    power::rectifier_params rect, std::size_t lanes)
    : model_(model),
      vib_(vib),
      storage_(std::move(storage)),
      rect_(rect),
      lanes_(lanes),
      position_(lanes, 0),
      loads_(lanes),
      load_slots_(lanes),
      ledgers_(lanes),
      batch_(model.make_envelope_batch(lanes)),
      v_(lanes), z_(lanes), ich_(lanes), rate_(lanes), slope_(lanes),
      inet_(lanes) {
    if (!storage_)
        throw std::invalid_argument("batch_envelope_system: null storage");
    if (lanes == 0)
        throw std::invalid_argument("batch_envelope_system: zero lanes");
    plants_.reserve(lanes);
    for (std::size_t l = 0; l < lanes; ++l)
        plants_.push_back(std::make_unique<lane_plant>(*this, l));
}

sim::batch_simulator& batch_envelope_system::bsim() const {
    if (bsim_ == nullptr)
        throw std::logic_error("batch_envelope_system: no simulator attached");
    return *bsim_;
}

void batch_envelope_system::set_frontend(frontend_kind kind,
                                         double efficiency) {
    if (kind == frontend_kind::mppt && !(efficiency > 0.0 && efficiency <= 1.0))
        throw std::invalid_argument(
            "batch_envelope_system: mppt efficiency must be in (0, 1]");
    frontend_ = kind;
    frontend_efficiency_ = efficiency;
}

std::vector<double> batch_envelope_system::initial_state(
    double v0, int initial_position) {
    if (v0 < 0.0)
        throw std::invalid_argument(
            "batch_envelope_system: negative initial voltage");
    for (std::size_t l = 0; l < lanes_; ++l)
        plant(l).set_position(initial_position);
    // Identical to the scalar system's initial state so both paths start
    // from the same point.
    std::vector<double> x(k_state_count, 0.0);
    x[ix_voltage] = v0;
    x[ix_amplitude] = model_.initial_amplitude(vib_.frequency_at(0.0),
                                               vib_.amplitude_at(0.0),
                                               initial_position, v0, rect_);
    return x;
}

void batch_envelope_system::derivatives(
    std::span<const double> t, const sim::batch_state& x,
    sim::batch_state& dxdt, std::span<const std::uint8_t> /*active*/) const {
    // Full width: lanes the integrator masked out get (ignored) values
    // computed too — cheaper than breaking the batch's lane loops up.
    const std::size_t B = lanes_;
    const double* xv = x.var(ix_voltage);
    const double* xz = x.var(ix_amplitude);
    double* dv = dxdt.var(ix_voltage);
    double* dh = dxdt.var(ix_harvested);
    double* de = dxdt.var(ix_load_energy);

    for (std::size_t l = 0; l < B; ++l) {
        v_[l] = std::max(xv[l], 0.0);
        z_[l] = std::max(xz[l], 0.0);
    }
    batch_->rates({vib_, t, position_, v_, z_},
                  conditioning_of(frontend_), frontend_efficiency_, rect_,
                  {{dxdt.var(ix_amplitude), B}, ich_, rate_, slope_});

    // Storage tail: sustained loads, storage dynamics, energy integrals.
    // Per-lane load banks and the (shared, virtual) storage model run
    // scalar — they are event-rate-configured and trivially cheap next to
    // the envelope solve.
    for (std::size_t l = 0; l < B; ++l) {
        const double v = v_[l];
        const double i_loads = loads_[l].total_current(v);
        inet_[l] = ich_[l] - i_loads;
        dv[l] = storage_->dv_dt(v, inet_[l]);
        dh[l] = v * ich_[l];
        de[l] = v * i_loads;
    }
}

void batch_envelope_system::stiff_column(sim::batch_state& column) const {
    // envelope_system::stiff_column, lane by lane.
    double* cv = column.var(ix_voltage);
    double* cz = column.var(ix_amplitude);
    double* ch = column.var(ix_harvested);
    double* ce = column.var(ix_load_energy);
    for (std::size_t l = 0; l < lanes_; ++l) {
        cv[l] = storage_->dv_dt_slope(v_[l], inet_[l]) * slope_[l];
        cz[l] = -rate_[l];
        ch[l] = v_[l] * slope_[l];
        ce[l] = 0.0;
    }
}

// --- lane_plant -----------------------------------------------------------

double batch_envelope_system::lane_plant::storage_voltage() const {
    return owner_->bsim().state_at(lane_, ix_voltage);
}

void batch_envelope_system::lane_plant::withdraw(double joules,
                                                 const std::string& account) {
    if (joules < 0.0)
        throw std::invalid_argument(
            "batch_envelope_system: negative withdrawal");
    const double v = storage_voltage();
    owner_->bsim().set_state(
        lane_, ix_voltage, owner_->storage_->voltage_after_withdrawal(v, joules));
    owner_->ledgers_[lane_].record(account, joules);
}

void batch_envelope_system::lane_plant::set_sustained_draw(
    const std::string& account, double amps) {
    auto& slots = owner_->load_slots_[lane_];
    auto it = slots.find(account);
    if (it == slots.end())
        it = slots.emplace(account, owner_->loads_[lane_].add_load(account))
                 .first;
    owner_->loads_[lane_].set_current(it->second, amps);
}

void batch_envelope_system::lane_plant::set_position(int position) {
    if (position < 0 || position >= owner_->model_.position_count())
        throw std::out_of_range(
            "batch_envelope_system: actuator position outside [0,255]");
    owner_->position_[lane_] = position;
}

double batch_envelope_system::lane_plant::vibration_frequency() const {
    return owner_->vib_.frequency_at(owner_->bsim().now(lane_));
}

double batch_envelope_system::lane_plant::phase_lag() const {
    // Event-rate measurement tap through the same model hook as the scalar
    // system, so it stays bit-faithful at the same (t, V, position).
    const double tnow = owner_->bsim().now(lane_);
    const double v = storage_voltage();
    return owner_->model_.phase_lag(owner_->vib_.frequency_at(tnow),
                                    owner_->vib_.amplitude_at(tnow),
                                    owner_->position_[lane_], v, owner_->rect_);
}

}  // namespace ehdse::dse
