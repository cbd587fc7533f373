// Frozen seed solver (dense two-phase tableau simplex + best-first branch
// & bound), retained verbatim as the correctness oracle for both engines —
// the same role dcsim's `scan_reference.h` plays for the indexed site
// queries. Tests, `bench_solver` and the scheduler's audit mode
// (certify.h) cross-check every LP/MIP objective against this
// implementation; it is never used on the production path.
#pragma once

#include "vbatt/solver/branch_bound.h"
#include "vbatt/solver/model.h"
#include "vbatt/solver/simplex.h"

namespace vbatt::solver::reference {

/// Seed dense-tableau LP solve (finite upper bounds materialized as rows).
LpResult solve_lp(const Model& model);
LpResult solve_lp_bounded(const Model& model, const std::vector<double>& lb,
                          const std::vector<double>& ub);

/// Seed branch & bound (cold LP re-solve per node, most-fractional
/// branching, no warm starts, no presolve).
MipResult solve_mip(const Model& model, const MipOptions& options = {});

}  // namespace vbatt::solver::reference
