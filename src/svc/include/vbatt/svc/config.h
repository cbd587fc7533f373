// Service configuration (snippet-2-style typed config with validation).
//
// Everything an operator can set is validated up front with an error that
// names the offending field — a resident service that silently runs with a
// nonsense timeout is worse than one that refuses to start. The same
// validator runs on construction, on every `reconfigure` event, and after
// snapshot restore, so no path can smuggle in an invalid state.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "vbatt/core/fault_hooks.h"
#include "vbatt/core/scheduler.h"
#include "vbatt/core/simulation.h"
#include "vbatt/util/time.h"

namespace vbatt::svc {

/// Per-site liveness timeouts, in ticks without a heartbeat.
struct HealthConfig {
  /// Master switch: off (default) means no health tracking at all — no
  /// heartbeats expected, no site ever suspected.
  bool enabled = false;
  /// Alive -> Suspect after this many ticks of silence.
  util::Tick suspect_after = 4;
  /// Suspect -> Dead after this many ticks of silence (total, from the
  /// last heartbeat; must exceed suspect_after).
  util::Tick dead_after = 12;
  /// Recovering -> Alive after this many ticks of renewed heartbeats.
  util::Tick recovering_ticks = 2;
};

struct ServiceConfig {
  /// Scheduler policy: greedy | mip | mip24h | mippeak, built by
  /// make_service_scheduler exactly as the CLI builds it.
  std::string policy = "mip";
  HealthConfig health{};
  /// Seed for forecast-noise child streams of streamed fault reports.
  std::uint64_t noise_seed = 7;
  /// Force an immediate replan on the tick after a fault report or a
  /// health-machine death (default: wait for the scheduler's cadence).
  bool replan_on_fault = false;
  core::MoveRetryPolicy retry{};
  core::SitePowerModel power_model{};
};

/// Reject invalid fields with a std::runtime_error naming the field
/// ("ServiceConfig: field 'health.dead_after' ...").
void validate_service_config(const ServiceConfig& config);

/// Apply a "key=value;key=value" reconfigure payload in place, then
/// re-validate. Reconfigurable keys: health.enabled, health.suspect_after,
/// health.dead_after, health.recovering_ticks, replan_on_fault. Unknown
/// keys and non-reconfigurable fields (policy, seeds) are rejected by
/// name. Throws without modifying `config` on any error.
void apply_reconfigure(ServiceConfig& config, std::string_view spec);

/// The scheduler the service runs: the CLI's policies, built from the
/// same make_*_config() factories unmodified. Used by both the
/// ControlPlane and the batch side of the equivalence check, so the two
/// cannot drift apart.
std::unique_ptr<core::Scheduler> make_service_scheduler(
    const std::string& policy);

}  // namespace vbatt::svc
