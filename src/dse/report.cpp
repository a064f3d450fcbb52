#include "dse/report.hpp"

#include <cmath>
#include <iomanip>
#include <sstream>

#include "rsm/anova.hpp"
#include "rsm/sensitivity.hpp"

namespace ehdse::dse {

namespace {

void write_header(std::ostream& os, const flow_result& flow) {
    os << "# Response-surface design-space exploration report\n\n";
    os << "* design space: ";
    for (std::size_t i = 0; i < flow.space.dimension(); ++i) {
        const auto& p = flow.space.parameter(i);
        os << (i ? "; " : "") << p.name << " in [" << p.min << ", " << p.max << "]";
    }
    os << "\n* candidates: " << flow.design.candidates.size() << "; "
       << flow.design.name << " runs: " << flow.design.points.size();
    if (std::isfinite(flow.design.log_det))
        os << " (log det X'X = " << std::fixed << std::setprecision(2)
           << flow.design.log_det << ")";
    os << "\n";
    os << "* observations (incl. replicates): " << flow.responses.size() << "\n\n";
    os.unsetf(std::ios::fixed);
}

void write_design_table(std::ostream& os, const flow_result& flow) {
    os << "## Design points and responses\n\n";
    os << "| # |";
    for (std::size_t i = 0; i < flow.space.dimension(); ++i)
        os << " " << flow.space.parameter(i).name << " |";
    os << " y |\n|---|";
    for (std::size_t i = 0; i < flow.space.dimension(); ++i) os << "---|";
    os << "---|\n";
    for (std::size_t r = 0; r < flow.design_coded.size(); ++r) {
        os << "| " << (r + 1) << " |";
        const auto natural = flow.space.decode(flow.design_coded[r]);
        for (double v : natural) os << " " << std::setprecision(5) << v << " |";
        os << " " << flow.responses[r] << " |\n";
    }
    os << "\n";
}

void write_fit(std::ostream& os, const flow_result& flow) {
    os << "## Fitted response surface\n\n";
    os << "Surrogate: `" << flow.fit.surrogate << "`\n\n";
    os << "```\ny = " << flow.fit.surface->to_string(3) << "\n```\n\n";
    os << "R^2 = " << std::setprecision(6) << flow.fit.r_squared
       << ", adjusted R^2 = " << flow.fit.adj_r_squared;
    if (std::isfinite(flow.fit.loo_rmse))
        os << ", LOO-CV RMSE = " << std::setprecision(4) << flow.fit.loo_rmse;
    os << "\n\n";
}

void write_anova_section(std::ostream& os, const flow_result& flow) {
    // The classical decomposition applies to the least-squares quadratic
    // only; other surrogates report their own diagnostics via describe().
    const rsm::fit_result* fit = flow.fit.quadratic();
    if (fit == nullptr) {
        os << "## Statistical assessment\n\nANOVA applies to the `quadratic` "
              "surrogate only; the `" << flow.fit.surrogate
           << "` fit reports R^2 / LOO-CV RMSE above.\n\n";
        return;
    }
    if (flow.design_coded.size() <= fit->model.coefficients().size()) {
        os << "## Statistical assessment\n\nSaturated design (runs == terms): "
              "no residual degrees of freedom. Re-run with more runs or "
              "replicates to assess the model.\n\n";
        return;
    }
    const auto anova = rsm::analyse_fit(flow.design_coded, flow.responses, *fit);
    os << "## Statistical assessment\n\n```\n" << rsm::format_anova(anova)
       << "```\n\n";
    const auto lof = rsm::lack_of_fit(flow.design_coded, flow.responses, *fit);
    if (lof.testable) {
        os << "Lack-of-fit: F = " << std::setprecision(3) << lof.f_statistic
           << " (p = " << std::setprecision(4) << lof.p_value << ") — the "
           << (lof.p_value < 0.05 ? "quadratic form is rejected"
                                  : "quadratic form is not rejected")
           << " at the 5% level.\n\n";
    }
}

void write_sensitivity(std::ostream& os, const flow_result& flow) {
    const rsm::fit_result* fit = flow.fit.quadratic();
    if (fit == nullptr) return;  // closed-form Sobol needs the quadratic
    const auto s = rsm::sobol_indices(fit->model);
    os << "## Sensitivity (Sobol indices)\n\n";
    os << "| variable | first-order | total |\n|---|---|---|\n";
    for (std::size_t i = 0; i < flow.space.dimension(); ++i)
        os << "| " << flow.space.parameter(i).name << " | " << std::setprecision(3)
           << 100.0 * s.first_order[i] << "% | " << 100.0 * s.total_order[i]
           << "% |\n";
    os << "\n";
}

void write_outcomes(std::ostream& os, const flow_result& flow) {
    os << "## Optimisation outcomes\n\n";
    os << "| design |";
    for (std::size_t i = 0; i < flow.space.dimension(); ++i)
        os << " " << flow.space.parameter(i).name << " |";
    os << " predicted | validated | vs baseline |\n|---|";
    for (std::size_t i = 0; i < flow.space.dimension() + 3; ++i) os << "---|";
    os << "\n";

    const double base = static_cast<double>(flow.original_eval.transmissions);
    os << "| baseline |";
    const auto orig = system_config::original().to_vector();
    for (double v : orig) os << " " << std::setprecision(5) << v << " |";
    os << " - | " << flow.original_eval.transmissions << " | 1.00x |\n";
    for (const auto& oc : flow.outcomes) {
        os << "| " << oc.name << " |";
        for (double v : oc.config.to_vector())
            os << " " << std::setprecision(5) << v << " |";
        os << " " << std::setprecision(0) << std::fixed << oc.predicted << " | "
           << oc.validated.transmissions << " | " << std::setprecision(2)
           << static_cast<double>(oc.validated.transmissions) / base << "x |\n";
        os.unsetf(std::ios::fixed);
    }
    os << "\n";
}

}  // namespace

void write_report(std::ostream& os, const flow_result& flow) {
    write_header(os, flow);
    write_design_table(os, flow);
    write_fit(os, flow);
    write_anova_section(os, flow);
    write_sensitivity(os, flow);
    write_outcomes(os, flow);
}

std::string report_to_string(const flow_result& flow) {
    std::ostringstream os;
    write_report(os, flow);
    return os.str();
}

}  // namespace ehdse::dse
