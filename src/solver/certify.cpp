#include "vbatt/solver/certify.h"

#include <algorithm>
#include <cmath>

#include "vbatt/solver/reference.h"

namespace vbatt::solver {

std::string find_infeasibility(const Model& model,
                               const std::vector<double>& x, double tol) {
  if (x.size() != model.n_vars()) return "solution size mismatch";
  for (std::size_t v = 0; v < x.size(); ++v) {
    const Variable& var = model.vars()[v];
    if (x[v] < var.lb - tol || x[v] > var.ub + tol) {
      return "variable " + std::to_string(v) + " (" + var.name +
             ") out of bounds";
    }
    if (var.integer && std::abs(x[v] - std::round(x[v])) > tol) {
      return "variable " + std::to_string(v) + " (" + var.name +
             ") not integral";
    }
  }
  for (std::size_t c = 0; c < model.n_constraints(); ++c) {
    const Constraint& con = model.constraints()[c];
    double lhs = 0.0;
    for (const auto& [idx, coeff] : con.terms) {
      lhs += coeff * x[static_cast<std::size_t>(idx)];
    }
    const bool ok = con.rel == Rel::le   ? lhs <= con.rhs + tol
                    : con.rel == Rel::ge ? lhs >= con.rhs - tol
                                         : std::abs(lhs - con.rhs) <= tol;
    if (!ok) return "constraint " + std::to_string(c) + " violated";
  }
  return {};
}

std::string certify_against_reference(const Model& model, const MipResult& got,
                                      const MipOptions& options, double tol) {
  if (got.status == LpStatus::optimal) {
    if (std::string bad = find_infeasibility(model, got.x, tol);
        !bad.empty()) {
      return "solution infeasible: " + bad;
    }
  }
  const MipResult want = reference::solve_mip(model, options);
  if (got.status != want.status) {
    return "status " + std::to_string(static_cast<int>(got.status)) +
           " != reference " + std::to_string(static_cast<int>(want.status));
  }
  if (got.status != LpStatus::optimal) return {};
  const double scale =
      std::max({1.0, std::abs(got.objective), std::abs(want.objective)});
  if (std::abs(got.objective - want.objective) > tol * scale) {
    return "objective " + std::to_string(got.objective) + " != reference " +
           std::to_string(want.objective);
  }
  return {};
}

}  // namespace vbatt::solver
