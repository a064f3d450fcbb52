#include "harvester/harvester_model.hpp"

#include <stdexcept>

#include "harvester/electromagnetic.hpp"
#include "harvester/electrostatic.hpp"

namespace ehdse::harvester {

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
