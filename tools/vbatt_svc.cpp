// vbatt_svc — resident control-plane service driver.
//
// Scenario mode (default) builds the same (graph, apps, faults) triple the
// CLI's `schedule` command builds and feeds it through the ControlPlane as
// an event stream:
//
//   vbatt_svc --days=2 --policy=mip [--chaos=1.0 --chaos-seed=7]
//             [--heartbeats] [--verify] [--log=run.evlog]
//             [--snapshot=run.snap --snapshot-every=100]
//             [--recover] [--kill-at=N] [--state-out=final.snap]
//
//   --verify    run the batch engine on the same scenario and require the
//               two SimResults to be byte-equal (fingerprint compare).
//   --log       durable event log; with --snapshot/--snapshot-every a
//               snapshot is written every N ticks.
//   --recover   resume from --snapshot + --log instead of starting fresh:
//               restore, drop any torn log tail, replay, then feed the
//               remaining scenario events.
//   --kill-at=N _exit(9) immediately after the N-th accepted event — the
//               crash half of the kill-and-recover tests (no signal races).
//   --state-out write the final snapshot bytes; recovery tests compare
//               this file across interrupted and uninterrupted runs.
//
// Stdin mode (--stdin) reads operator commands, one per line:
//   tick [n] | power <site> <start> <v>... | arrive <id> <arrival>
//   <lifetime> <cores> <mem_gb> <n_stable> <n_degradable> | depart <id> |
//   job <id> <arrival> <cores> <work_core_ticks> <deadline> |
//   task <id> <arrival> <cores> <work_core_ticks> <resume_lat> <deadline> |
//   fault <blackout|brownout|forecast|link|server> <start> <end> <site>
//   [alpha] [sigma] [peer] [count] | heartbeat <site> | drain <site> |
//   undrain <site> | pause | resume | reconfigure <spec> | status |
//   snapshot | quit
//
// SIGINT/SIGTERM interrupt either mode cooperatively: the log is already
// flushed per record, a final status is printed, and the process exits
// with code 40 (util::kInterruptedExitCode).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "args.h"
#include "vbatt/fault/stream.h"
#include "vbatt/svc/scenario.h"
#include "vbatt/svc/service.h"
#include "vbatt/util/signal.h"

namespace {

using namespace vbatt;

using tools::Args;

svc::ServiceConfig service_config(const Args& args) {
  svc::ServiceConfig config;
  config.policy = args.get("policy", "mip");
  config.noise_seed = static_cast<std::uint64_t>(args.number("chaos-seed", 7));
  config.replan_on_fault = args.flag("replan-on-fault");
  if (args.flag("heartbeats") || args.flag("health")) {
    config.health.enabled = true;
    config.health.suspect_after =
        static_cast<util::Tick>(args.number("suspect-after", 4));
    config.health.dead_after =
        static_cast<util::Tick>(args.number("dead-after", 12));
    config.health.recovering_ticks =
        static_cast<util::Tick>(args.number("recovering-ticks", 2));
  }
  return config;
}

void write_file(const std::string& path, const std::string& bytes) {
  // Write-then-rename so a crash mid-write never leaves a half snapshot
  // where the recovery path expects a whole one.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out{tmp, std::ios::binary | std::ios::trunc};
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!out.flush()) {
      throw std::runtime_error{"cannot write " + tmp};
    }
  }
  std::filesystem::rename(tmp, path);
}

std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) throw std::runtime_error{"cannot open " + path};
  return std::string{std::istreambuf_iterator<char>{in},
                     std::istreambuf_iterator<char>{}};
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(p * (v.size() - 1));
  return v[idx];
}

void print_summary(const svc::ControlPlane& service) {
  const svc::ServiceStatus status = service.status();
  std::printf("%s\n", status.to_string().c_str());
  const std::vector<double>& replans = service.replan_latencies_ms();
  std::printf("replans=%zu p50=%.2fms p99=%.2fms\n", replans.size(),
              percentile(replans, 0.50), percentile(replans, 0.99));
}

int interrupted_exit(const svc::ControlPlane& service) {
  std::fprintf(stderr, "interrupted by signal %d at tick %lld (seq %llu)\n",
               util::shutdown_signal(),
               static_cast<long long>(service.now()),
               static_cast<unsigned long long>(service.last_seq()));
  print_summary(service);
  return util::kInterruptedExitCode;
}

core::SimResult run_batch(const svc::Scenario& scenario,
                          const svc::ServiceConfig& config) {
  // The batch side installs a StreamInjector too (with every fault
  // delivered before tick 0), so hook-gated accounting fields match the
  // service exactly even on fault-free runs.
  fault::StreamInjector injector{scenario.graph, config.noise_seed};
  for (const fault::FaultEvent& f : scenario.schedule.events) {
    injector.inject(f, -1);
  }
  const std::unique_ptr<core::Scheduler> scheduler =
      svc::make_service_scheduler(config.policy);
  core::FaultConfig faults{&injector, config.retry};
  // The service delivers batch entities as submission events; the batch
  // engine gets the same workload attached up front via extensions.
  core::ScenarioExtensions ext;
  if (!scenario.batch.empty()) ext.batch = &scenario.batch;
  return core::run_simulation(injector.graph(), scenario.apps, *scheduler,
                              config.power_model, &faults, &ext);
}

int run_scenario_mode(const Args& args) {
  svc::ScenarioConfig scenario_config;
  scenario_config.days = static_cast<std::size_t>(args.number("days", 2));
  scenario_config.n_solar = static_cast<int>(args.number("solar", 4));
  scenario_config.n_wind = static_cast<int>(args.number("wind", 6));
  scenario_config.region_km = args.number("region", 2500.0);
  scenario_config.storms = args.flag("storms");
  scenario_config.cores_per_mw = args.number("cores-per-mw", 20.0);
  scenario_config.apps_per_hour = args.number("apps-per-hour", 2.2);
  scenario_config.chaos_intensity = args.number("chaos", 0.0);
  scenario_config.chaos_seed =
      static_cast<std::uint64_t>(args.number("chaos-seed", 7));
  scenario_config.batch_jobs_per_hour = args.number("batch-jobs", 0.0);
  scenario_config.batch_tasks_per_hour = args.number("batch-tasks", 0.0);
  scenario_config.batch_seed =
      static_cast<std::uint64_t>(args.number("batch-seed", 17));

  const svc::Scenario scenario = svc::make_scenario(scenario_config);
  const std::vector<svc::Event> events =
      svc::scenario_events(scenario, args.flag("heartbeats"));

  const svc::ServiceConfig config = service_config(args);
  svc::ControlPlane service{scenario.graph, config};

  const std::string log_path = args.get("log", "");
  const std::string snapshot_path = args.get("snapshot", "");
  const auto snapshot_every =
      static_cast<std::int64_t>(args.number("snapshot-every", 0));
  const auto kill_at = static_cast<std::uint64_t>(args.number("kill-at", 0));

  if (args.flag("recover")) {
    if (log_path.empty()) {
      std::fprintf(stderr, "--recover requires --log\n");
      return 2;
    }
    if (!snapshot_path.empty() &&
        std::filesystem::exists(snapshot_path)) {
      service.restore_snapshot(read_file(snapshot_path));
    }
    const svc::EventLogContents log = svc::read_event_log(log_path);
    if (log.torn_tail()) {
      std::fprintf(stderr, "dropping torn log tail: %llu bytes\n",
                   static_cast<unsigned long long>(log.dropped_bytes));
      svc::truncate_event_log(log_path, log.clean_bytes);
    }
    const std::uint64_t replayed = service.replay(log.records);
    std::fprintf(stderr,
                 "recovered to tick %lld: snapshot seq + %llu replayed "
                 "events\n",
                 static_cast<long long>(service.now()),
                 static_cast<unsigned long long>(replayed));
    service.attach_log(
        std::make_unique<svc::EventLogWriter>(log_path, /*truncate=*/false));
  } else if (!log_path.empty()) {
    service.attach_log(
        std::make_unique<svc::EventLogWriter>(log_path, /*truncate=*/true));
  }

  // Event i of the stream carries sequence number i + 1, so a recovered
  // service resumes at stream offset last_seq().
  for (std::size_t i = static_cast<std::size_t>(service.last_seq());
       i < events.size(); ++i) {
    if (util::shutdown_requested()) return interrupted_exit(service);
    service.submit(events[i]);
    if (kill_at != 0 && service.last_seq() >= kill_at) {
      // Die without unwinding: the log keeps only what submit() already
      // flushed, exactly the state a real crash leaves behind.
      std::fflush(nullptr);
      _exit(9);
    }
    if (events[i].kind == svc::EventKind::tick_advance &&
        snapshot_every > 0 && !snapshot_path.empty()) {
      const std::int64_t tick = service.now() + 1;  // ticks completed
      if (tick > 0 && tick % snapshot_every == 0) {
        write_file(snapshot_path, service.snapshot_bytes());
      }
    }
  }

  const std::string state_out = args.get("state-out", "");
  if (!state_out.empty()) {
    write_file(state_out, service.snapshot_bytes());
  }

  print_summary(service);

  if (args.flag("verify")) {
    const core::SimResult batch = run_batch(scenario, config);
    const core::SimResult streamed = service.finish();
    if (svc::result_fingerprint(batch) != svc::result_fingerprint(streamed)) {
      std::fprintf(stderr, "VERIFY FAILED: streamed result diverges from "
                           "the batch engine\n");
      return 1;
    }
    std::printf("VERIFY OK: streamed == batch (%lld ticks, %lld apps)\n",
                static_cast<long long>(streamed.completed_ticks),
                static_cast<long long>(streamed.apps_placed));
  }
  return 0;
}

int run_stdin_mode(const Args& args) {
  svc::ScenarioConfig scenario_config;
  scenario_config.days = static_cast<std::size_t>(args.number("days", 2));
  scenario_config.chaos_intensity = 0.0;
  const svc::Scenario scenario = svc::make_scenario(scenario_config);
  svc::ControlPlane service{scenario.graph, service_config(args)};

  const std::string log_path = args.get("log", "");
  if (!log_path.empty()) {
    service.attach_log(
        std::make_unique<svc::EventLogWriter>(log_path, /*truncate=*/true));
  }
  const std::string snapshot_path = args.get("snapshot", "");

  std::string line;
  while (std::getline(std::cin, line)) {
    if (util::shutdown_requested()) return interrupted_exit(service);
    std::istringstream in{line};
    std::string cmd;
    if (!(in >> cmd) || cmd[0] == '#') continue;
    try {
      svc::Event e;
      if (cmd == "quit") {
        break;
      } else if (cmd == "status") {
        std::printf("%s\n", service.status().to_string().c_str());
      } else if (cmd == "snapshot") {
        if (snapshot_path.empty()) throw std::runtime_error{"no --snapshot"};
        write_file(snapshot_path, service.snapshot_bytes());
        std::printf("snapshot written to %s\n", snapshot_path.c_str());
      } else if (cmd == "tick") {
        std::int64_t n = 1;
        in >> n;
        e.kind = svc::EventKind::tick_advance;
        for (std::int64_t i = 0; i < n; ++i) service.submit(e);
        std::printf("tick=%lld\n", static_cast<long long>(service.now()));
      } else if (cmd == "power") {
        e.kind = svc::EventKind::power_reading;
        in >> e.site >> e.tick;
        double v = 0.0;
        while (in >> v) e.values.push_back(v);
        service.submit(e);
      } else if (cmd == "arrive") {
        e.kind = svc::EventKind::vm_arrival;
        in >> e.app.app_id >> e.app.arrival >> e.app.lifetime_ticks >>
            e.app.shape.cores >> e.app.shape.memory_gb >> e.app.n_stable >>
            e.app.n_degradable;
        service.submit(e);
      } else if (cmd == "depart") {
        e.kind = svc::EventKind::vm_departure;
        in >> e.app_id;
        service.submit(e);
      } else if (cmd == "job") {
        e.kind = svc::EventKind::batch_job;
        in >> e.job.job_id >> e.job.arrival >> e.job.cores >>
            e.job.work_core_ticks >> e.job.deadline;
        service.submit(e);
      } else if (cmd == "task") {
        e.kind = svc::EventKind::harvest_task;
        in >> e.task.task_id >> e.task.arrival >> e.task.cores >>
            e.task.work_core_ticks >> e.task.resume_latency_ticks >>
            e.task.deadline;
        service.submit(e);
      } else if (cmd == "fault") {
        e.kind = svc::EventKind::fault_report;
        std::string kind;
        in >> kind >> e.fault.start >> e.fault.end >> e.fault.site;
        if (kind == "blackout") {
          e.fault.kind = fault::FaultKind::site_blackout;
        } else if (kind == "brownout") {
          e.fault.kind = fault::FaultKind::site_brownout;
          in >> e.fault.alpha;
        } else if (kind == "forecast") {
          e.fault.kind = fault::FaultKind::forecast_error;
          in >> e.fault.alpha >> e.fault.sigma;
        } else if (kind == "link") {
          e.fault.kind = fault::FaultKind::link_down;
          in >> e.fault.peer;
        } else if (kind == "server") {
          e.fault.kind = fault::FaultKind::server_failure;
          in >> e.fault.count;
        } else {
          throw std::runtime_error{"unknown fault kind '" + kind + "'"};
        }
        service.submit(e);
      } else if (cmd == "heartbeat") {
        e.kind = svc::EventKind::heartbeat;
        in >> e.site;
        service.submit(e);
      } else if (cmd == "drain") {
        e.kind = svc::EventKind::drain_site;
        in >> e.site;
        service.submit(e);
      } else if (cmd == "undrain") {
        e.kind = svc::EventKind::undrain_site;
        in >> e.site;
        service.submit(e);
      } else if (cmd == "pause") {
        e.kind = svc::EventKind::pause;
        service.submit(e);
      } else if (cmd == "resume") {
        e.kind = svc::EventKind::resume;
        service.submit(e);
      } else if (cmd == "reconfigure") {
        e.kind = svc::EventKind::reconfigure;
        in >> e.text;
        service.submit(e);
      } else {
        throw std::runtime_error{"unknown command '" + cmd + "'"};
      }
    } catch (const std::exception& err) {
      std::printf("error: %s\n", err.what());
    }
    std::fflush(stdout);
  }
  if (util::shutdown_requested()) return interrupted_exit(service);
  print_summary(service);
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: vbatt_svc [--days=2] [--policy=mip] [--chaos=<x>]\n"
               "                 [--batch-jobs=R --batch-tasks=R\n"
               "                  --batch-seed=N]\n"
               "                 [--heartbeats] [--verify] [--log=PATH]\n"
               "                 [--snapshot=PATH --snapshot-every=N]\n"
               "                 [--recover] [--kill-at=N]\n"
               "                 [--state-out=PATH] [--stdin]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  util::install_shutdown_handlers();
  const Args args{
      argc, argv, 1,
      {"help", "stdin", "days", "solar", "wind", "region", "storms",
       "cores-per-mw", "apps-per-hour", "policy", "chaos", "chaos-seed",
       "batch-jobs", "batch-tasks", "batch-seed", "replan-on-fault",
       "heartbeats", "health", "suspect-after", "dead-after",
       "recovering-ticks", "verify", "log", "snapshot", "snapshot-every",
       "recover", "kill-at", "state-out"}};
  if (args.flag("help")) return usage();
  try {
    return args.flag("stdin") ? run_stdin_mode(args) : run_scenario_mode(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vbatt_svc: %s\n", e.what());
    return 2;
  }
}
