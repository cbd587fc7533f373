// Crash-recovery identity: snapshot + log replay must reproduce the
// uninterrupted run byte for byte. These tests emulate the vbatt_svc
// recovery protocol in-process: a "crashed" run writes a durable log (and
// optionally a snapshot), recovery replays the surviving records and
// resumes the event stream from last_seq, and the final snapshot_bytes
// must equal the run that never died. Registered in ctest at both
// VBATT_THREADS=1 and =4 — recovery identity must not depend on pool width.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "vbatt/core/mip_scheduler.h"
#include "vbatt/core/sim_stepper.h"
#include "vbatt/core/simulation.h"
#include "vbatt/energy/site.h"
#include "vbatt/svc/event_log.h"
#include "vbatt/svc/scenario.h"
#include "vbatt/svc/service.h"
#include "vbatt/util/wire.h"

namespace vbatt::svc {
namespace {

ScenarioConfig tiny_scenario(double chaos = 0.0) {
  ScenarioConfig config;
  config.days = 1;
  config.n_solar = 2;
  config.n_wind = 2;
  config.region_km = 800.0;
  config.apps_per_hour = 1.5;
  config.chaos_intensity = chaos;
  return config;
}

ServiceConfig service_config(const std::string& policy) {
  ServiceConfig config;
  config.policy = policy;
  return config;
}

std::filesystem::path temp_log(const char* tag) {
  return std::filesystem::temp_directory_path() /
         ("vbatt_recovery_" + std::to_string(::getpid()) + "_" + tag +
          ".evlog");
}

/// The uninterrupted reference: feed every event, return the final
/// snapshot (and optionally the finished result's fingerprint).
std::string reference_state(const Scenario& scenario,
                            const ServiceConfig& config,
                            std::vector<Event> events) {
  ControlPlane service{scenario.graph, config};
  for (Event& e : events) service.submit(std::move(e));
  return service.snapshot_bytes();
}

/// The CRC-framed body of a snapshot, and the inverse: frame an edited
/// body with a fresh length and CRC, so only the body's own checks judge it.
std::string snapshot_payload(const std::string& snapshot) {
  return snapshot.substr(kSnapshotMagic.size() + 8);
}
std::string frame_snapshot(const std::string& payload) {
  util::wire::Writer frame;
  frame.bytes(kSnapshotMagic.data(), kSnapshotMagic.size());
  frame.u32(static_cast<std::uint32_t>(payload.size()));
  frame.u32(util::wire::crc32(payload.data(), payload.size()));
  frame.bytes(payload.data(), payload.size());
  return frame.take();
}

/// `snapshot` relabelled as format `version` (valid magic, length, CRC).
std::string with_version(const std::string& snapshot, std::uint64_t version) {
  std::string payload = snapshot_payload(snapshot);
  util::wire::Writer label;
  label.u64(version);
  payload.replace(0, label.data().size(), label.data());
  return frame_snapshot(payload);
}

/// Restore `snapshot` into `service`; return the error it was refused
/// with, or "" if it was restored.
std::string restore_error(ControlPlane& service, const std::string& snapshot) {
  try {
    service.restore_snapshot(snapshot);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

void chop_file(const std::filesystem::path& path, std::uintmax_t bytes) {
  std::filesystem::resize_file(path,
                               std::filesystem::file_size(path) - bytes);
}

TEST(SvcRecovery, SnapshotRestoreContinuesIdentically) {
  const Scenario scenario = make_scenario(tiny_scenario(1.0));
  const ServiceConfig config = service_config("greedy");
  std::vector<Event> events = scenario_events(scenario);
  const std::size_t split = events.size() / 3;

  ControlPlane a{scenario.graph, config};
  std::string mid;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i == split) mid = a.snapshot_bytes();
    Event copy = events[i];
    a.submit(std::move(copy));
  }

  ControlPlane b{scenario.graph, config};
  b.restore_snapshot(mid);
  EXPECT_EQ(b.last_seq(), split);
  for (std::size_t i = split; i < events.size(); ++i) {
    b.submit(std::move(events[i]));
  }
  EXPECT_EQ(b.snapshot_bytes(), a.snapshot_bytes());
  // The finished results agree too, ledger included.
  EXPECT_EQ(result_fingerprint(b.finish()), result_fingerprint(a.finish()));
}

TEST(SvcRecovery, KilledRunRecoversFromLogByteIdentically) {
  const Scenario scenario = make_scenario(tiny_scenario());
  const ServiceConfig config = service_config("greedy");
  const std::vector<Event> events = scenario_events(scenario);
  const std::string reference = reference_state(scenario, config, events);
  const auto log_path = temp_log("kill");

  // The run dies after accepting `kill_at` events; only the log survives.
  const std::size_t kill_at = 2 * events.size() / 3;
  {
    ControlPlane victim{scenario.graph, config};
    victim.attach_log(
        std::make_unique<EventLogWriter>(log_path.string(), true));
    for (std::size_t i = 0; i < kill_at; ++i) {
      Event copy = events[i];
      victim.submit(std::move(copy));
    }
    // Destructor without finish() == the process vanished.
  }

  const EventLogContents log = read_event_log(log_path.string());
  ASSERT_FALSE(log.torn_tail());
  ASSERT_EQ(log.records.size(), kill_at);

  ControlPlane revived{scenario.graph, config};
  EXPECT_EQ(revived.replay(log.records), kill_at);
  EXPECT_EQ(revived.last_seq(), kill_at);
  revived.attach_log(
      std::make_unique<EventLogWriter>(log_path.string(), false));
  for (std::size_t i = kill_at; i < events.size(); ++i) {
    Event copy = events[i];
    revived.submit(std::move(copy));
  }
  EXPECT_EQ(revived.snapshot_bytes(), reference);

  // After the resumed run the log holds the complete accepted history.
  revived.attach_log(nullptr);
  EXPECT_EQ(read_event_log(log_path.string()).records.size(), events.size());
  std::filesystem::remove(log_path);
}

TEST(SvcRecovery, TornFinalRecordIsDroppedAndResubmitted) {
  const Scenario scenario = make_scenario(tiny_scenario(1.5));
  const ServiceConfig config = service_config("greedy");
  const std::vector<Event> events = scenario_events(scenario);
  const std::string reference = reference_state(scenario, config, events);
  const auto log_path = temp_log("torn");

  const std::size_t kill_at = events.size() / 2;
  {
    ControlPlane victim{scenario.graph, config};
    victim.attach_log(
        std::make_unique<EventLogWriter>(log_path.string(), true));
    for (std::size_t i = 0; i < kill_at; ++i) {
      Event copy = events[i];
      victim.submit(std::move(copy));
    }
  }
  // The crash tore the final record mid-write.
  chop_file(log_path, 3);

  const EventLogContents log = read_event_log(log_path.string());
  ASSERT_TRUE(log.torn_tail());
  ASSERT_EQ(log.records.size(), kill_at - 1);
  truncate_event_log(log_path.string(), log.clean_bytes);

  // Recovery replays the clean prefix; the torn event (and everything
  // after) is re-fed from the source stream.
  ControlPlane revived{scenario.graph, config};
  revived.replay(log.records);
  EXPECT_EQ(revived.last_seq(), kill_at - 1);
  revived.attach_log(
      std::make_unique<EventLogWriter>(log_path.string(), false));
  for (std::size_t i = kill_at - 1; i < events.size(); ++i) {
    Event copy = events[i];
    revived.submit(std::move(copy));
  }
  EXPECT_EQ(revived.snapshot_bytes(), reference);
  std::filesystem::remove(log_path);
}

TEST(SvcRecovery, SnapshotPlusLogSuffixWithMipScheduler) {
  // The MIP scheduler carries placement-bearing caches between replans;
  // recovery mid-replan-period only holds because SimStepper serializes
  // scheduler state (Scheduler::save_state). Pin it with a mid-run
  // snapshot + replay under the mip24h policy.
  const Scenario scenario = make_scenario(tiny_scenario(1.0));
  const ServiceConfig config = service_config("mip24h");
  std::vector<Event> events = scenario_events(scenario);
  const auto log_path = temp_log("mip");

  ControlPlane a{scenario.graph, config};
  a.attach_log(std::make_unique<EventLogWriter>(log_path.string(), true));
  // Snapshot deliberately *between* replans (not on a period boundary).
  std::string mid;
  const std::size_t split = 3 * events.size() / 5;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i == split) mid = a.snapshot_bytes();
    a.submit(std::move(events[i]));
  }
  const std::string reference = a.snapshot_bytes();
  a.attach_log(nullptr);

  const EventLogContents log = read_event_log(log_path.string());
  ControlPlane b{scenario.graph, config};
  b.restore_snapshot(mid);
  b.replay(log.records);
  EXPECT_EQ(b.snapshot_bytes(), reference);

  // Replaying the same records again applies nothing and changes nothing.
  EXPECT_EQ(b.replay(log.records), 0u);
  EXPECT_EQ(b.snapshot_bytes(), reference);
  std::filesystem::remove(log_path);
}

/// Step `stepper` through ticks [from, to) of the arrival trace, the loop
/// run_simulation runs; `next_app` carries the trace cursor across calls.
void step_ticks(core::SimStepper& stepper,
                const std::vector<workload::Application>& apps,
                std::size_t& next_app, util::Tick from, util::Tick to) {
  for (util::Tick t = from; t < to; ++t) {
    stepper.begin_tick(t);
    stepper.process_departures();
    stepper.maybe_replan();
    while (next_app < apps.size() && apps[next_app].arrival <= t) {
      stepper.arrive(apps[next_app]);
      ++next_app;
    }
    stepper.execute_due_moves();
    stepper.enforce_and_meter();
  }
}

TEST(SvcRecovery, StepperSnapshotsWithTheCliMipConfigs) {
  // The CLI's own scheduler configs, unmodified: a mid-run save restored
  // into a fresh stepper and a fresh scheduler must finish exactly like
  // the uninterrupted run.
  const Scenario scenario = make_scenario(tiny_scenario());
  const auto n_ticks = static_cast<util::Tick>(scenario.graph.n_ticks());
  const util::Tick split = n_ticks / 2 + 5;  // between two replans
  for (const core::MipSchedulerConfig& config :
       {core::make_mip_config(), core::make_mip24h_config(),
        core::make_mip_peak_config()}) {
    SCOPED_TRACE(config.name);
    core::MipScheduler uninterrupted{config};
    const std::string want = result_fingerprint(
        core::run_simulation(scenario.graph, scenario.apps, uninterrupted));

    std::size_t next_app = 0;
    util::wire::Writer saved;
    {
      core::MipScheduler scheduler{config};
      core::SimStepper stepper{scenario.graph, scheduler};
      step_ticks(stepper, scenario.apps, next_app, 0, split);
      stepper.save(saved);
    }
    core::MipScheduler scheduler{config};
    core::SimStepper stepper{scenario.graph, scheduler};
    util::wire::Reader reader{saved.data()};
    stepper.restore(reader);
    step_ticks(stepper, scenario.apps, next_app, split, n_ticks);
    EXPECT_EQ(result_fingerprint(stepper.take_result()), want);
  }
}

TEST(SvcRecovery, RestoreRejectsPolicyMismatchAndCorruption) {
  const Scenario scenario = make_scenario(tiny_scenario());
  ControlPlane a{scenario.graph, service_config("greedy")};
  Event tick;
  tick.kind = EventKind::tick_advance;
  a.submit(tick);
  std::string snap = a.snapshot_bytes();

  ControlPlane wrong_policy{scenario.graph, service_config("mip24h")};
  EXPECT_THROW(wrong_policy.restore_snapshot(snap), std::runtime_error);

  // Flip a body byte: the CRC must catch it.
  std::string corrupt = snap;
  corrupt[corrupt.size() / 2] =
      static_cast<char>(corrupt[corrupt.size() / 2] ^ 0x10);
  ControlPlane fresh{scenario.graph, service_config("greedy")};
  EXPECT_THROW(fresh.restore_snapshot(corrupt), std::runtime_error);

  // Bad magic.
  std::string bad_magic = snap;
  bad_magic[0] = 'X';
  EXPECT_THROW(fresh.restore_snapshot(bad_magic), std::runtime_error);
}

TEST(SvcRecovery, RestoreRejectsVersionOneSnapshot) {
  // A version-1 snapshot carries plans made by the retired seed-tableau
  // MIP engine; restoring it would silently diverge from the run that
  // wrote it. Re-frame a current snapshot as version 1 (valid magic,
  // length and CRC) and require the named rejection.
  const Scenario scenario = make_scenario(tiny_scenario());
  ControlPlane a{scenario.graph, service_config("mip24h")};
  Event tick;
  tick.kind = EventKind::tick_advance;
  a.submit(tick);
  ControlPlane fresh{scenario.graph, service_config("mip24h")};
  const std::string error =
      restore_error(fresh, with_version(a.snapshot_bytes(), 1));
  EXPECT_NE(error.find("unsupported snapshot version 1"), std::string::npos)
      << "error: '" << error << "'";
}

TEST(SvcRecovery, RestoreRefusesVersionTwoSnapshotByName) {
  // Version 2 wrote whole telemetry baselines where version 3 writes
  // overrides; a relabelled v3 body must not be read as v2 or vice versa.
  const Scenario scenario = make_scenario(tiny_scenario());
  ControlPlane a{scenario.graph, service_config("greedy")};
  Event tick;
  tick.kind = EventKind::tick_advance;
  a.submit(tick);
  ControlPlane fresh{scenario.graph, service_config("greedy")};
  const std::string error =
      restore_error(fresh, with_version(a.snapshot_bytes(), 2));
  EXPECT_NE(error.find("unsupported snapshot version 2"), std::string::npos)
      << "error: '" << error << "'";
}

/// A tiny fleet built straight from the generators, so the fleet seed can
/// vary while every shape (sites, ticks, leads) stays the same.
core::VbGraph seeded_graph(std::uint64_t fleet_seed) {
  energy::FleetConfig fleet;
  fleet.n_solar = 2;
  fleet.n_wind = 2;
  fleet.region_km = 800.0;
  fleet.seed = fleet_seed;
  return core::VbGraph{
      energy::generate_fleet(fleet, util::TimeAxis{15}, 96), {}};
}

TEST(SvcRecovery, RestoreRefusesASnapshotOverAnotherGraph) {
  const core::VbGraph graph = seeded_graph(1);
  const core::VbGraph other = seeded_graph(2);
  ASSERT_EQ(graph.n_sites(), other.n_sites());
  ASSERT_EQ(graph.n_ticks(), other.n_ticks());
  ControlPlane a{graph, service_config("greedy")};
  Event tick;
  tick.kind = EventKind::tick_advance;
  a.submit(tick);
  const std::string snap = a.snapshot_bytes();

  ControlPlane wrong{other, service_config("greedy")};
  const std::string error = restore_error(wrong, snap);
  EXPECT_NE(error.find("snapshot was taken over a different graph"),
            std::string::npos)
      << "error: '" << error << "'";
  ControlPlane same{graph, service_config("greedy")};
  EXPECT_EQ(restore_error(same, snap), "");
}

TEST(SvcRecovery, RestoreRefusesAnOverrideWindowPastTheHorizon) {
  const Scenario scenario = make_scenario(tiny_scenario());
  const std::size_t n_ticks = scenario.graph.n_ticks();
  ControlPlane a{scenario.graph, service_config("greedy")};
  Event tick;
  tick.kind = EventKind::tick_advance;
  a.submit(tick);
  Event reading;
  reading.kind = EventKind::power_reading;
  reading.site = 1;
  reading.tick = 10;
  reading.values = {0.123456789, 0.25, 0.5};
  a.submit(reading);
  std::string payload = snapshot_payload(a.snapshot_bytes());

  // The override window is written as i64 start, u64 count, values:
  // find its first value and move the window's start so it ends one tick
  // past the horizon.
  util::wire::Writer first_value;
  first_value.f64(0.123456789);
  const std::size_t at = payload.find(first_value.data());
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(payload.find(first_value.data(), at + 1), std::string::npos);
  util::wire::Writer start;
  start.i64(static_cast<std::int64_t>(n_ticks - 2));
  payload.replace(at - 16, 8, start.data());

  ControlPlane fresh{scenario.graph, service_config("greedy")};
  const std::string error = restore_error(fresh, frame_snapshot(payload));
  EXPECT_NE(error.find("runs past the horizon"), std::string::npos)
      << "error: '" << error << "'";
}

TEST(SvcRecovery, TelemetryOverridesSurviveAMidRunSnapshot) {
  // Readings whose values differ from the graph's are the only baseline
  // state a v3 snapshot carries; a power reading and a forecast update
  // submitted before a mid-run snapshot must survive it exactly.
  const Scenario scenario = make_scenario(tiny_scenario(1.0));
  const ServiceConfig config = service_config("greedy");
  std::vector<Event> events = scenario_events(scenario);
  const auto first_tick = static_cast<std::size_t>(
      std::find_if(events.begin(), events.end(),
                   [](const Event& e) {
                     return e.kind == EventKind::tick_advance;
                   }) -
      events.begin());
  // After 20 ticks: halve site 0's power for ticks 25-54 and pin site 1's
  // lead-2 forecast at 0.3 for ticks 30-69.
  std::size_t at = first_tick;
  for (int ticks = 0; ticks < 20; ++at) {
    if (events[at].kind == EventKind::tick_advance) ++ticks;
  }
  const core::VbSite& site0 = scenario.graph.sites()[0];
  Event power;
  power.kind = EventKind::power_reading;
  power.site = 0;
  power.tick = 25;
  for (std::size_t t = 25; t < 55; ++t) {
    power.values.push_back(site0.power_norm[t] * 0.5 + 0.01);
  }
  Event forecast;
  forecast.kind = EventKind::forecast_update;
  forecast.site = 1;
  forecast.lead = 2;
  forecast.tick = 30;
  forecast.values.assign(40, 0.3);
  events.insert(events.begin() + static_cast<std::ptrdiff_t>(at),
                {power, forecast});
  const std::size_t split = at + 40;  // past the readings, mid-run

  ControlPlane a{scenario.graph, config};
  std::string mid;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i == split) mid = a.snapshot_bytes();
    a.submit(events[i]);
  }
  ASSERT_NE(a.injector().graph().sites()[0].power_norm[30],
            site0.power_norm[30]);

  ControlPlane b{scenario.graph, config};
  b.restore_snapshot(mid);
  EXPECT_EQ(b.injector().graph().sites()[1].forecast_norm[2][40], 0.3);
  for (std::size_t i = split; i < events.size(); ++i) b.submit(events[i]);
  EXPECT_EQ(b.snapshot_bytes(), a.snapshot_bytes());
  EXPECT_EQ(result_fingerprint(b.finish()), result_fingerprint(a.finish()));
}

TEST(SvcRecovery, StepperRestoreRefusesAnOverlongSeries) {
  // A stepper saved 150 ticks into a two-day run holds per-tick series
  // longer than a one-day horizon; restoring it there must be refused by
  // name rather than write past the ledgers.
  ScenarioConfig two_days = tiny_scenario();
  two_days.days = 2;
  const Scenario longer = make_scenario(two_days);
  const Scenario shorter = make_scenario(tiny_scenario());
  ASSERT_EQ(longer.graph.n_sites(), shorter.graph.n_sites());

  util::wire::Writer saved;
  {
    core::MipScheduler scheduler{core::make_mip24h_config()};
    core::SimStepper stepper{longer.graph, scheduler};
    std::size_t next_app = 0;
    step_ticks(stepper, longer.apps, next_app, 0, 150);
    stepper.save(saved);
  }
  core::MipScheduler scheduler{core::make_mip24h_config()};
  core::SimStepper stepper{shorter.graph, scheduler};
  util::wire::Reader reader{saved.data()};
  try {
    stepper.restore(reader);
    FAIL() << "an over-long series was restored";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("ticks, the horizon has 96"),
              std::string::npos)
        << e.what();
  }
}

TEST(SvcRecovery, ReplayRejectsSequenceGaps) {
  const Scenario scenario = make_scenario(tiny_scenario());
  ControlPlane a{scenario.graph, service_config("greedy")};
  std::vector<std::string> records;
  for (int i = 0; i < 4; ++i) {
    Event tick;
    tick.kind = EventKind::tick_advance;
    tick.seq = a.submit(tick);
    records.push_back(encode_event(tick));
  }
  records.erase(records.begin() + 1);  // lose record 2 of 4
  ControlPlane b{scenario.graph, service_config("greedy")};
  EXPECT_THROW(b.replay(records), std::runtime_error);
}

}  // namespace
}  // namespace vbatt::svc
