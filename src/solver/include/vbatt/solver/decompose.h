// Decomposition layer behind MipEngine::decomposed, the default engine.
//
// The scheduling MIPs are block-structured: union-find over "variables
// sharing a constraint row" splits the model into independent blocks that
// can be solved as separate subproblems and stitched by summation (the
// master problem is trivial when no row couples two blocks — it only adds
// the block objectives). Within a block, the layer additionally detects
// the stagewise chain structure the trajectory scheduler emits — per-
// bucket assignment rows (pick exactly one site) linked only by move rows
// `x[k][s] - x[k-1][s] - y[k][s] <= r` — which is exactly a shortest-path
// problem over (stage, site) states. Such blocks are solved by an exact
// dynamic-programming master that merges each stage's column proposals in
// one deterministic O(states) sweep per stage (a degenerate Dantzig-Wolfe
// step: every extreme point of a stage block is a single site choice, and
// the path recurrence prices them all simultaneously). Blocks that match
// neither pattern run through the monolithic revised B&B individually;
// a model that is one non-chain block falls back to the monolithic path
// outright (MipResult::monolithic_fallback).
//
// Exactness contract: the chain DP is only used when every structural
// condition it needs is verified on the raw model (binary x's covered by
// exactly one assignment row each, continuous nonnegative-cost y's owned
// by exactly one move row each, unit coefficients, nonnegative move rhs,
// path-shaped stage graph). Anything else — the lexicographic cap row,
// peak rows, arbitrary testkit models — fails verification and takes a
// B&B path, so decomposed objectives always match the monolithic engines
// to 1e-6 (`solver.decomposed_diff` fuzzes exactly this claim).
#pragma once

#include "vbatt/solver/branch_bound.h"
#include "vbatt/solver/model.h"

namespace vbatt::solver {

/// Entry point dispatched by solve_mip for MipEngine::decomposed.
///
/// `warm` is sliced per block (a feasible monolithic incumbent restricted
/// to a block's variables is a feasible block incumbent). `hint` is used
/// and refreshed only on the monolithic fallback path — per-block bases
/// do not compose into a monolithic hint and chain blocks need none.
/// `options.max_nodes` bounds the chain DPs, the box block and the
/// sub-B&Bs together; see MipOptions.
MipResult solve_mip_decomposed(const Model& model,
                               const MipOptions& options = {},
                               const MipWarmStart* warm = nullptr,
                               MipBasisHint* hint = nullptr);

}  // namespace vbatt::solver
