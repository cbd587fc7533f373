// Frozen VM-level reference engine — the differential oracle for
// core::run_fleet_simulation.
//
// A plain serial tick loop over one global site array: linear-scan
// best-fit placement, rebuild-and-sort shrink, full live-map sweeps and a
// per-server energy scan. It models everything the fleet engine does —
// fault hooks (topology epochs, server failure and repair, move retry and
// backoff, blackout blocking, fault accounting) and scenario extensions
// (batch overlay, price and carbon meters) — and nothing more. It
// intentionally stays O(n_servers) per operation: it is an executable
// specification, not a fast engine.
#pragma once

#include <string>
#include <vector>

#include "vbatt/core/fleet_sim.h"
#include "vbatt/workload/app.h"

namespace vbatt::testkit {

/// Run the reference engine. core::run_fleet_simulation must produce a
/// result field-for-field identical to it on the same inputs, at every
/// shard and thread count — that identity is the differential property.
/// Runs under fault hooks need one injector per run (injectors are
/// stateful).
core::VmLevelResult reference_vm_run(
    const core::VbGraph& graph,
    const std::vector<workload::Application>& apps, core::Scheduler& scheduler,
    const core::VmLevelConfig& config = {});

/// Field-for-field comparison of two VM-level results: every counter
/// (fault counters included), the energy/cost/carbon totals and series
/// (bit-equal, no tolerance), displaced/ledger series, per-app
/// displacement and batch stats. Returns "" when identical, else a
/// description naming the first differing field.
std::string diff_vm_results(const core::VmLevelResult& a,
                            const core::VmLevelResult& b,
                            std::size_t n_sites);

}  // namespace vbatt::testkit
