// Cross-check harness for the revised simplex engine.
//
// Two layers:
//  * the revised engine must match the frozen seed oracle's *objective*
//    to 1e-6 (its optimal vertex may legally differ on degenerate models)
//    on fuzzed LPs/MIPs from both the scheduler's trajectory model family
//    and unstructured random programs, with warm-started solves
//    bit-identical to cold ones;
//  * directed edge cases: degeneracy, infeasibility, unboundedness,
//    all-bounds-tight boxes, models presolve discharges entirely, and
//    the per-solve pivot budget.
//
// CMake registers this binary twice, under VBATT_THREADS=1 and =3.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "vbatt/solver/branch_bound.h"
#include "vbatt/solver/reference.h"
#include "vbatt/solver/simplex.h"
#include "vbatt/util/rng.h"

namespace vbatt::solver {
namespace {

constexpr double kObjTol = 1e-6;

MipOptions revised_options() {
  MipOptions options;
  options.engine = MipEngine::revised;
  return options;
}

/// The scheduler's per-app model family: binary site indicators x[τ][s],
/// continuous move indicators y[τ][s], one-site-per-bucket equalities and
/// move-linking rows. Heavily degenerate (many zero-cost columns), which
/// is exactly what makes vertex choice tie-break-sensitive.
Model trajectory_mip(int sites, int buckets, std::uint64_t seed,
                     bool integral) {
  util::Rng rng{seed};
  Model model;
  std::vector<std::vector<int>> x(static_cast<std::size_t>(buckets));
  std::vector<std::vector<int>> y(static_cast<std::size_t>(buckets));
  for (int k = 0; k < buckets; ++k) {
    for (int s = 0; s < sites; ++s) {
      const double cost = rng.uniform(0.0, 50.0);
      x[static_cast<std::size_t>(k)].push_back(
          integral ? model.add_binary("x", cost)
                   : model.add_var("x", cost, 0.0, 1.0));
      y[static_cast<std::size_t>(k)].push_back(
          model.add_var("y", 100.0, 0.0, 1.0));
    }
  }
  for (int k = 0; k < buckets; ++k) {
    std::vector<std::pair<int, double>> one;
    for (int s = 0; s < sites; ++s) {
      one.emplace_back(
          x[static_cast<std::size_t>(k)][static_cast<std::size_t>(s)], 1.0);
    }
    model.add_constraint(std::move(one), Rel::eq, 1.0);
    for (int s = 0; s < sites; ++s) {
      std::vector<std::pair<int, double>> terms;
      terms.emplace_back(
          x[static_cast<std::size_t>(k)][static_cast<std::size_t>(s)], 1.0);
      double rhs = 0.0;
      if (k > 0) {
        terms.emplace_back(
            x[static_cast<std::size_t>(k - 1)][static_cast<std::size_t>(s)],
            -1.0);
      } else {
        rhs = s == 0 ? 1.0 : 0.0;
      }
      terms.emplace_back(
          y[static_cast<std::size_t>(k)][static_cast<std::size_t>(s)], -1.0);
      model.add_constraint(std::move(terms), Rel::le, rhs);
    }
  }
  return model;
}

/// Unstructured random program: mixed relation rows, mixed-sign
/// coefficients, a sprinkle of fixed and unbounded-above variables.
Model random_model(std::uint64_t seed, bool integral) {
  util::Rng rng{seed};
  const int n = 2 + static_cast<int>(rng.below(7));
  const int m = 1 + static_cast<int>(rng.below(5));
  Model model;
  for (int i = 0; i < n; ++i) {
    const double lb = rng.uniform(0.0, 2.0);
    double ub = lb + rng.uniform(0.0, 8.0);
    if (rng.uniform(0.0, 1.0) < 0.15) ub = lb;  // fixed
    const bool make_int = integral && rng.uniform(0.0, 1.0) < 0.6;
    (void)model.add_var("v", rng.uniform(-5.0, 5.0), lb,
                        make_int ? std::floor(ub) + 1.0 : ub, make_int);
  }
  for (int r = 0; r < m; ++r) {
    std::vector<std::pair<int, double>> terms;
    double max_activity = 0.0;
    for (int i = 0; i < n; ++i) {
      if (rng.uniform(0.0, 1.0) < 0.3) continue;
      const double coeff = rng.uniform(0.0, 3.0);
      terms.emplace_back(i, coeff);
      max_activity += coeff * model.vars()[static_cast<std::size_t>(i)].ub;
    }
    if (terms.empty()) continue;
    // <= rows with generous rhs keep the fuzz family feasible.
    model.add_constraint(std::move(terms), Rel::le,
                         rng.uniform(0.3, 1.0) * (max_activity + 1.0));
  }
  return model;
}

// ---------------------------------------------------------------------------
// Revised engine: objective parity with the oracle, warm/cold identity.

TEST(RevisedLp, ObjectiveMatchesReference) {
  for (std::uint64_t seed = 200; seed < 280; ++seed) {
    const Model model = seed % 2 == 0
                            ? random_model(seed, false)
                            : trajectory_mip(2 + static_cast<int>(seed % 4),
                                             2 + static_cast<int>(seed % 5),
                                             seed, false);
    const LpResult want = reference::solve_lp(model);
    const LpResult got = solve_lp(model);
    ASSERT_EQ(got.status, want.status) << "seed " << seed;
    if (want.status != LpStatus::optimal) continue;
    EXPECT_NEAR(got.objective, want.objective, kObjTol) << "seed " << seed;
  }
}

TEST(RevisedMip, ObjectiveMatchesReference) {
  for (std::uint64_t seed = 300; seed < 360; ++seed) {
    const Model model = seed % 2 == 0
                            ? random_model(seed, true)
                            : trajectory_mip(2 + static_cast<int>(seed % 3),
                                             2 + static_cast<int>(seed % 4),
                                             seed, true);
    const MipResult want = reference::solve_mip(model);
    const MipResult got = solve_mip(model, revised_options());
    ASSERT_EQ(got.status, want.status) << "seed " << seed;
    if (want.status != LpStatus::optimal) continue;
    EXPECT_NEAR(got.objective, want.objective, kObjTol) << "seed " << seed;
    // The revised vertex may differ from the oracle's, but it must be a
    // genuinely feasible integral point of the *original* model.
    for (std::size_t i = 0; i < got.x.size(); ++i) {
      const Variable& v = model.vars()[i];
      EXPECT_GE(got.x[i], v.lb - kObjTol);
      EXPECT_LE(got.x[i], v.ub + kObjTol);
      if (v.integer) {
        EXPECT_NEAR(got.x[i], std::round(got.x[i]), 1e-9);
      }
    }
    for (const Constraint& con : model.constraints()) {
      double act = 0.0;
      for (const auto& [idx, coeff] : con.terms) {
        act += coeff * got.x[static_cast<std::size_t>(idx)];
      }
      switch (con.rel) {
        case Rel::le: EXPECT_LE(act, con.rhs + kObjTol); break;
        case Rel::ge: EXPECT_GE(act, con.rhs - kObjTol); break;
        case Rel::eq: EXPECT_NEAR(act, con.rhs, kObjTol); break;
      }
    }
  }
}

TEST(RevisedMip, WarmStartIsBitIdenticalToCold) {
  for (std::uint64_t seed = 400; seed < 430; ++seed) {
    const Model model = trajectory_mip(2 + static_cast<int>(seed % 4),
                                       2 + static_cast<int>(seed % 5), seed,
                                       true);
    const MipResult cold = solve_mip(model, revised_options());
    ASSERT_EQ(cold.status, LpStatus::optimal) << "seed " << seed;
    // Warm with the optimum itself — the strongest possible cutoff — and
    // with a valid-but-suboptimal trajectory (all apps parked at site 0
    // forever is feasible for this family when it starts there).
    MipWarmStart warm{cold.x};
    const MipResult rewarm = solve_mip(model, revised_options(), &warm);
    EXPECT_EQ(rewarm.objective, cold.objective) << "seed " << seed;
    EXPECT_EQ(rewarm.x, cold.x) << "seed " << seed;
    EXPECT_EQ(rewarm.status, cold.status) << "seed " << seed;
  }
}

TEST(RevisedMip, InvalidWarmStartIsIgnored) {
  Model m;
  const int a = m.add_binary("a", -10.0);
  const int b = m.add_binary("b", -6.0);
  m.add_constraint({{a, 5.0}, {b, 4.0}}, Rel::le, 6.0);
  const MipResult cold = solve_mip(m, revised_options());
  // Violates the knapsack row: must be rejected, not trusted.
  MipWarmStart bogus{{1.0, 1.0}};
  const MipResult warm = solve_mip(m, revised_options(), &bogus);
  EXPECT_EQ(warm.objective, cold.objective);
  EXPECT_EQ(warm.x, cold.x);
}

// ---------------------------------------------------------------------------
// Directed edge cases, run through both engines and the oracle.

TEST(SolverEdge, DegenerateTiesStayOptimal) {
  // Every assignment of the unit flow is optimal: all costs equal. The
  // revised LP must report the oracle's objective.
  Model m;
  std::vector<std::pair<int, double>> sum;
  for (int i = 0; i < 6; ++i) sum.emplace_back(m.add_var("x", 3.0), 1.0);
  m.add_constraint(std::move(sum), Rel::eq, 1.0);
  std::vector<double> lb(6, 0.0);
  std::vector<double> ub(6, 1.0);
  const LpResult want = reference::solve_lp_bounded(m, lb, ub);
  ASSERT_EQ(want.status, LpStatus::optimal);
  const LpResult fast = solve_lp(m);
  ASSERT_EQ(fast.status, LpStatus::optimal);
  EXPECT_NEAR(fast.objective, want.objective, kObjTol);
}

TEST(SolverEdge, InfeasibleRows) {
  Model m;
  const int x = m.add_var("x", 1.0, 0.0, 1.0);
  m.add_constraint({{x, 1.0}}, Rel::ge, 2.0);
  std::vector<double> lb{0.0};
  std::vector<double> ub{1.0};
  EXPECT_EQ(reference::solve_lp_bounded(m, lb, ub).status,
            LpStatus::infeasible);
  EXPECT_EQ(solve_lp(m).status, LpStatus::infeasible);
  EXPECT_EQ(solve_mip(m).status, LpStatus::infeasible);
  EXPECT_EQ(solve_mip(m, revised_options()).status, LpStatus::infeasible);
}

TEST(SolverEdge, UnboundedRay) {
  Model m;
  const int x = m.add_var("x", -1.0);  // ub defaults to +inf
  const int y = m.add_var("y", 0.0, 0.0, 1.0);
  m.add_constraint({{x, -1.0}, {y, 1.0}}, Rel::le, 5.0);
  std::vector<double> lb{0.0, 0.0};
  std::vector<double> ub{std::numeric_limits<double>::infinity(), 1.0};
  EXPECT_EQ(reference::solve_lp_bounded(m, lb, ub).status,
            LpStatus::unbounded);
  EXPECT_EQ(solve_lp(m).status, LpStatus::unbounded);
}

TEST(SolverEdge, AllBoundsTight) {
  // Every variable fixed: the solve is pure substitution. Feasible and
  // infeasible variants.
  Model m;
  const int x = m.add_var("x", 2.0, 3.0, 3.0);
  const int y = m.add_var("y", -1.0, 1.5, 1.5);
  m.add_constraint({{x, 1.0}, {y, 2.0}}, Rel::le, 6.0);
  std::vector<double> lb{3.0, 1.5};
  std::vector<double> ub{3.0, 1.5};
  const LpResult want = reference::solve_lp_bounded(m, lb, ub);
  ASSERT_EQ(want.status, LpStatus::optimal);
  EXPECT_NEAR(want.objective, 4.5, 1e-12);
  const LpResult fast = solve_lp(m);
  ASSERT_EQ(fast.status, LpStatus::optimal);
  EXPECT_NEAR(fast.objective, want.objective, kObjTol);

  Model bad;
  const int z = bad.add_var("z", 1.0, 2.0, 2.0);
  bad.add_constraint({{z, 1.0}}, Rel::le, 1.0);
  EXPECT_EQ(solve_lp(bad).status, LpStatus::infeasible);
  EXPECT_EQ(solve_mip(bad).status, LpStatus::infeasible);
  EXPECT_EQ(solve_mip(bad, revised_options()).status, LpStatus::infeasible);
}

TEST(SolverEdge, PresolveDischargesEntireModel) {
  // Singleton rows pin both variables; bound tightening then empties every
  // row, so the revised path never builds a simplex at all. All engines
  // must agree on the unique solution.
  Model m;
  const int x = m.add_var("x", 1.0, 0.0, 10.0, true);
  const int y = m.add_var("y", 2.0, 0.0, 10.0);
  m.add_constraint({{x, 1.0}}, Rel::eq, 4.0);
  m.add_constraint({{y, 2.0}}, Rel::eq, 3.0);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, Rel::le, 10.0);
  for (const MipResult r :
       {solve_mip(m), solve_mip(m, revised_options())}) {
    ASSERT_EQ(r.status, LpStatus::optimal);
    EXPECT_NEAR(r.x[0], 4.0, 1e-9);
    EXPECT_NEAR(r.x[1], 1.5, 1e-9);
    EXPECT_NEAR(r.objective, 7.0, 1e-9);
  }
}

TEST(SolverEdge, PivotBudgetSurfacesAsIterationLimit) {
  // A model that needs several pivots, strangled to one: the revised LP
  // must report iteration_limit instead of stalling or lying.
  const Model model = trajectory_mip(4, 6, 77, false);
  LpOptions strangled;
  strangled.max_pivots = 1;
  EXPECT_EQ(solve_lp(model, strangled).status, LpStatus::iteration_limit);
  const LpResult free_run = solve_lp(model);
  EXPECT_EQ(free_run.status, LpStatus::optimal);
  EXPECT_GT(free_run.pivots, 1);

  // Same knob through the MIP layer: the root LP dies, so the solve does.
  const Model mip_model = trajectory_mip(3, 4, 78, true);
  MipOptions options = revised_options();
  options.max_lp_pivots = 1;
  EXPECT_EQ(solve_mip(mip_model, options).status, LpStatus::iteration_limit);
}

TEST(Lexicographic, InPlaceRestoresModelExactly) {
  Model m = trajectory_mip(3, 4, 55, true);
  const std::size_t n_rows = m.n_constraints();
  std::vector<double> costs;
  for (const Variable& v : m.vars()) costs.push_back(v.cost);
  std::vector<double> secondary(m.n_vars(), 0.0);
  secondary[0] = 1.0;
  for (const MipOptions& options : {MipOptions{}, revised_options()}) {
    const MipResult r = solve_lexicographic(m, secondary, 0.01, 1e-6,
                                            options);
    ASSERT_EQ(r.status, LpStatus::optimal);
    // The cap row is popped and the primary costs restored.
    EXPECT_EQ(m.n_constraints(), n_rows);
    for (std::size_t i = 0; i < m.n_vars(); ++i) {
      EXPECT_EQ(m.vars()[i].cost, costs[i]);
    }
  }
}

}  // namespace
}  // namespace vbatt::solver
