// Markdown report generation for a completed RSM flow — the artefact a
// user hands around after a study: the design, the runs, the surface, the
// optimisation outcome, and (when the design is over-determined) the
// statistical assessment.
#pragma once

#include <ostream>
#include <string>

#include "dse/rsm_flow.hpp"

namespace ehdse::dse {

/// Render the flow result as a Markdown document.
void write_report(std::ostream& os, const flow_result& flow);

/// Convenience: render to a string.
std::string report_to_string(const flow_result& flow);

}  // namespace ehdse::dse
