// Deadline batch jobs and suspendable harvest tasks (ROADMAP: opening the
// scenario space beyond the Azure-like service mix).
//
// Two workload classes ride on top of the VM fleet as an *overlay* over
// whatever cores the service workload leaves free each tick:
//
//   - DeadlineJob: a gang of `cores` cores with `work_core_ticks` of total
//     work and an absolute deadline. Schedulable anywhere in its slack
//     window — the scheduler may defer, run, pause, and resume it freely
//     (checkpointing is free for batch), as long as the work finishes
//     before the deadline.
//   - HarvestTask: a preemptible filler that soaks surplus renewable
//     cores. It checkpoints on suspend and pays `resume_latency_ticks` of
//     warmup (cores occupied, no progress) on every resume, and carries a
//     real-time completion deadline of its own (arXiv 2411.07628's
//     SLO-backed harvest VMs).
//
// BatchOverlay is the shared executor: every simulator (fleet_sim and its
// reference oracle, dcsim, the app-level stepper) feeds it the per-site
// free-core vector once per tick at a serial point, and the overlay's
// decisions are a pure function of (admitted entities, free vector) —
// integer-exact, no floating point — so engines that agree on free cores
// agree bit-for-bit on every batch counter.
#pragma once

#include <cstdint>
#include <vector>

#include "vbatt/util/time.h"
#include "vbatt/util/wire.h"

namespace vbatt::workload {

struct DeadlineJob {
  std::int64_t job_id = 0;
  util::Tick arrival = 0;
  /// Gang width: the job runs on exactly this many cores at one site.
  int cores = 1;
  /// Total work, core-ticks. One scheduled tick burns `cores` of it
  /// (except the final partial tick, which still occupies the full gang).
  std::int64_t work_core_ticks = 1;
  /// Absolute deadline: all work must be done by the end of tick
  /// `deadline - 1`.
  util::Tick deadline = 1;
};

struct HarvestTask {
  std::int64_t task_id = 0;
  util::Tick arrival = 0;
  int cores = 1;
  std::int64_t work_core_ticks = 1;
  /// Warmup ticks after every resume (not the first start): the gang
  /// occupies its cores but makes no progress while the checkpoint
  /// restores.
  util::Tick resume_latency_ticks = 0;
  util::Tick deadline = 1;
};

struct BatchWorkload {
  std::vector<DeadlineJob> jobs;
  std::vector<HarvestTask> tasks;
  bool empty() const noexcept { return jobs.empty() && tasks.empty(); }
};

/// Integer-exact batch counters. Closure invariant (after finalize):
///   harvest_offered == harvest_goodput + harvest_lost + harvest_suspended
/// Warmup core-ticks are occupancy without progress and are tracked
/// outside the closure.
struct BatchStats {
  std::int64_t deadline_jobs_completed = 0;
  std::int64_t deadline_jobs_missed = 0;
  /// Work actually executed for deadline jobs, core-ticks.
  std::int64_t deadline_work_core_ticks = 0;
  /// Σ work_core_ticks of admitted harvest tasks.
  std::int64_t harvest_offered_core_ticks = 0;
  /// Harvest work executed, core-ticks.
  std::int64_t harvest_goodput_core_ticks = 0;
  /// Work remaining on harvest tasks that missed their deadline.
  std::int64_t harvest_lost_core_ticks = 0;
  /// Work outstanding (checkpointed) on live tasks at the end of the run.
  std::int64_t harvest_suspended_core_ticks = 0;
  /// Core-ticks burned restoring checkpoints after resumes.
  std::int64_t harvest_warmup_core_ticks = 0;
  std::int64_t harvest_tasks_completed = 0;
  std::int64_t harvest_deadline_misses = 0;
  std::int64_t suspend_episodes = 0;
  std::int64_t resume_episodes = 0;
  /// Cores occupied by the overlay summed over ticks (both classes,
  /// including warmup occupancy).
  std::int64_t overlay_active_core_ticks = 0;

  friend bool operator==(const BatchStats&, const BatchStats&) = default;
};

/// Deterministic serial executor for the batch overlay. Drive it with one
/// step() per simulated tick (after the service workload has claimed its
/// cores), then finalize() once at the end of the horizon.
class BatchOverlay {
 public:
  BatchOverlay() = default;
  /// Validates every entity (positive cores/work, deadline > arrival >= 0)
  /// and throws std::invalid_argument on the first violation.
  explicit BatchOverlay(const BatchWorkload& workload);

  /// Dynamic submission (control-plane events). The entity joins the
  /// admission scan on the next step() whose tick >= its arrival.
  void submit(const DeadlineJob& job);
  void submit(const HarvestTask& task);

  bool empty() const noexcept { return jobs_.empty() && tasks_.empty(); }

  /// Advance one tick: admit arrivals, mark entities whose slack is
  /// exhausted as missed, then gang-schedule EDF (deadline jobs strictly
  /// before harvest fillers) onto `free_cores` with site stickiness.
  void step(util::Tick t, const std::vector<std::int64_t>& free_cores);

  /// End-of-horizon accounting: outstanding harvest work becomes
  /// `harvest_suspended_core_ticks`. Idempotent.
  void finalize();

  const BatchStats& stats() const noexcept { return stats_; }

  // -- per-entity observability (directed tests) ---------------------------
  struct JobRecord {
    std::int64_t job_id = 0;
    bool admitted = false;
    bool completed = false;
    bool missed = false;
    /// Tick whose step() completed the job (-1 if it never finished).
    util::Tick finish_tick = -1;
    std::int64_t remaining_core_ticks = 0;
  };
  struct TaskRecord {
    std::int64_t task_id = 0;
    bool admitted = false;
    bool completed = false;
    bool missed = false;
    util::Tick finish_tick = -1;
    std::int64_t remaining_core_ticks = 0;
    std::int64_t suspends = 0;
    std::int64_t resumes = 0;
  };
  std::vector<JobRecord> job_records() const;
  std::vector<TaskRecord> task_records() const;

  /// Serialize the complete overlay state (definitions + dynamic state +
  /// stats); equal logical states produce equal bytes.
  void save_state(util::wire::Writer& w) const;
  void restore_state(util::wire::Reader& r);

 private:
  struct JobState {
    DeadlineJob job;
    std::int64_t remaining = 0;
    /// Site the gang ran at last tick; -1 when not running.
    std::int64_t site = -1;
    bool admitted = false;
    bool completed = false;
    bool missed = false;
    util::Tick finish_tick = -1;
  };
  struct TaskState {
    HarvestTask task;
    std::int64_t remaining = 0;
    std::int64_t site = -1;
    util::Tick warmup_left = 0;
    bool admitted = false;
    bool ever_ran = false;
    bool completed = false;
    bool missed = false;
    util::Tick finish_tick = -1;
    std::int64_t suspends = 0;
    std::int64_t resumes = 0;
  };

  static void validate(const DeadlineJob& job);
  static void validate(const HarvestTask& task);

  std::vector<JobState> jobs_;
  std::vector<TaskState> tasks_;
  BatchStats stats_;
  bool finalized_ = false;
};

/// Deterministic synthetic batch trace (the CLI's --workload scenarios and
/// the testkit generators both build on this).
struct BatchGeneratorConfig {
  /// Deadline-job arrivals per simulated hour (0 disables the class).
  double jobs_per_hour = 0.5;
  /// Harvest-task arrivals per simulated hour (0 disables the class).
  double tasks_per_hour = 1.0;
  int min_cores = 2;
  int max_cores = 16;
  /// Job work drawn so that run length at full gang width lands in
  /// [min_run_ticks, max_run_ticks].
  util::Tick min_run_ticks = 4;
  util::Tick max_run_ticks = 48;
  /// Deadline slack factor: deadline = arrival + run_ticks * slack drawn
  /// uniformly in [min_slack, max_slack].
  double min_slack = 1.2;
  double max_slack = 4.0;
  /// Harvest resume latency range, ticks.
  util::Tick max_resume_latency_ticks = 4;
  std::uint64_t seed = 17;
};

/// Deterministic arrival trace over `n_ticks`; ids are dense from 1
/// (jobs and tasks numbered independently).
BatchWorkload generate_batch(const BatchGeneratorConfig& config,
                             const util::TimeAxis& axis, std::size_t n_ticks);

}  // namespace vbatt::workload
