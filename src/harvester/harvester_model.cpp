#include "harvester/harvester_model.hpp"

#include <stdexcept>

#include "harvester/electromagnetic.hpp"
#include "harvester/electrostatic.hpp"
#include "harvester/vibration.hpp"

namespace ehdse::harvester {

namespace {

/// The default batch: the scalar hook per lane, each with its own path.
class scalar_envelope_batch final : public envelope_batch {
public:
    scalar_envelope_batch(const harvester_model& model, std::size_t lanes)
        : model_(model), paths_(lanes) {}

    void rates(const envelope_lanes& in, conditioning_kind conditioning,
               double efficiency, const power::rectifier_params& rect,
               const envelope_lane_rates& out) override {
        for (std::size_t l = 0; l < paths_.size(); ++l) {
            const envelope_rates r = model_.envelope_dynamics(
                in.vib.frequency_at(in.t[l]), in.vib.amplitude_at(in.t[l]),
                in.position[l], in.store_v[l], in.z_env[l], conditioning,
                efficiency, rect, paths_[l]);
            out.amplitude_rate[l] = r.amplitude_rate;
            out.charge_current[l] = r.charge_current_a;
            out.relaxation_rate[l] = r.relaxation_rate;
            out.charge_slope[l] = r.charge_slope;
        }
    }

private:
    const harvester_model& model_;
    std::vector<damping_path> paths_;
};

}  // namespace

std::unique_ptr<envelope_batch> harvester_model::make_envelope_batch(
    std::size_t lanes) const {
    return std::make_unique<scalar_envelope_batch>(*this, lanes);
}

const std::vector<harvester_info>& harvester_registry() {
    static const std::vector<harvester_info> k_registry = {
        {"electromagnetic",
         "tunable electromagnetic cantilever, magnetic-spring tuning "
         "(paper default)"},
        {"electrostatic",
         "electrostatic harvester, auto-adaptive charge-pump conditioning, "
         "bias-voltage tuning"},
    };
    return k_registry;
}

bool is_known_harvester(std::string_view name) noexcept {
    for (const harvester_info& info : harvester_registry())
        if (info.name == name) return true;
    return false;
}

std::string harvester_names() {
    std::string out;
    for (const harvester_info& info : harvester_registry()) {
        if (!out.empty()) out += ", ";
        out += info.name;
    }
    return out;
}

std::unique_ptr<harvester_model> make_harvester(std::string_view name) {
    if (name == "electromagnetic")
        return std::make_unique<electromagnetic_harvester>();
    if (name == "electrostatic")
        return std::make_unique<electrostatic_harvester>();
    throw std::invalid_argument("make_harvester: unknown harvester '" +
                                std::string(name) + "' (valid: " +
                                harvester_names() + ")");
}

}  // namespace ehdse::harvester
