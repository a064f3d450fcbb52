#include "dse/node_system.hpp"

#include "dse/envelope_system.hpp"
#include "dse/transient_system.hpp"

namespace ehdse::dse {

std::unique_ptr<node_system> make_node_system(
    const spec::evaluation_options& options,
    const harvester::harvester_model& model,
    const harvester::vibration_source& vib,
    std::shared_ptr<const power::storage_model> storage,
    const power::rectifier_params& rect) {
    if (options.model == spec::fidelity::transient)
        return std::make_unique<transient_system>(model, vib, std::move(storage),
                                                  rect);
    auto system =
        std::make_unique<envelope_system>(model, vib, std::move(storage), rect);
    system->set_frontend(options.frontend, options.frontend_efficiency);
    return system;
}

}  // namespace ehdse::dse
