// Certified solves: diff a production MIP result against the frozen seed
// oracle (reference.h). MipScheduler's audit mode certifies every solve it
// makes this way, and the solver fuzz properties certify random models;
// no default path calls it.
#pragma once

#include <string>
#include <vector>

#include "vbatt/solver/branch_bound.h"
#include "vbatt/solver/model.h"

namespace vbatt::solver {

/// The first bound, integrality or row of `model` that `x` violates by
/// more than `tol`, described for an error message; "" when `x` is primal
/// feasible.
std::string find_infeasibility(const Model& model,
                               const std::vector<double>& x,
                               double tol = 1e-6);

/// Re-solve `model` with reference::solve_mip under `options`' budgets and
/// return the first way `got` disagrees with it: an infeasible `got.x`, a
/// different status, or objectives further apart than `tol` relative to
/// max(1, |objective|). "" when `got` is certified.
std::string certify_against_reference(const Model& model,
                                      const MipResult& got,
                                      const MipOptions& options,
                                      double tol = 1e-6);

}  // namespace vbatt::solver
