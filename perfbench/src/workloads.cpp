#include "workloads.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "vbatt/core/evaluation.h"
#include "vbatt/core/fleet_sim.h"
#include "vbatt/core/mip_scheduler.h"
#include "vbatt/core/simulation.h"
#include "vbatt/dcsim/site_sim.h"
#include "vbatt/energy/site.h"
#include "vbatt/energy/wind.h"
#include "vbatt/fault/schedule.h"
#include "vbatt/fault/stream.h"
#include "vbatt/svc/config.h"
#include "vbatt/svc/event_log.h"
#include "vbatt/svc/scenario.h"
#include "vbatt/svc/service.h"
#include "vbatt/testkit/vm_reference.h"
#include "vbatt/util/rng.h"
#include "vbatt/util/thread_pool.h"
#include "vbatt/util/wire.h"
#include "vbatt/workload/app.h"
#include "vbatt/workload/generator.h"

namespace perfbench {
namespace {

using namespace vbatt;

constexpr util::TimeAxis kAxis{15};
constexpr std::size_t kTicksPerDay = 96;

/// Chains `bytes` into a pass's CRC-32 digest of its simulated outputs.
std::uint32_t digest(std::uint32_t crc, std::string_view bytes) {
  return util::wire::crc32(bytes.data(), bytes.size(), crc);
}

std::string hex(std::uint32_t crc) {
  std::ostringstream out;
  out << std::hex << crc;
  return out.str();
}

std::string site_sim_fingerprint(const dcsim::SiteSimResult& r) {
  util::wire::Writer w;
  w.vec_f64(r.out_gb);
  w.vec_f64(r.in_gb);
  w.vec_int(r.available_cores);
  w.vec_int(r.allocated_cores);
  w.i64(r.power_change_ticks);
  w.i64(r.migration_ticks);
  w.i64(r.vms_rejected);
  w.i64(r.vms_evicted);
  w.i64(r.vms_relaunched);
  w.f64(r.energy_mwh);
  w.i64(r.powered_server_ticks);
  return w.take();
}

std::string vm_level_fingerprint(const core::VmLevelResult& r) {
  util::wire::Writer w;
  w.str(svc::result_fingerprint(r.base));
  w.i64(r.vm_migrations);
  w.i64(r.fragmentation_failures);
  w.i64(r.powered_server_ticks);
  return w.take();
}

void put_latency(PassResult& out, const std::string& prefix,
                 LatencyLog& log) {
  out.host[prefix + ".calls"] = static_cast<double>(log.calls());
  out.host[prefix + ".busy_ms"] = log.busy_ms();
  out.host[prefix + ".p50_us"] = log.percentile_ns(50.0) * 1e-3;
  out.host[prefix + ".tail_us"] = log.tail_ns() * 1e-3;
  out.tails[prefix + ".tail_us"] = {log.tail_pct(), log.calls()};
}

// ---------------------------------------------------------------------------
// Forwarding wrappers: time each layer from outside the library.

/// Forwards every decision-bearing virtual of a Scheduler. placement
/// calls are tallied (hundreds of thousands per fleet run) and replans
/// get a span each. model_build_ms() is deliberately not forwarded: no
/// simulator reads it, and the benchmark must not depend on that meter.
class TimedScheduler final : public core::Scheduler {
 public:
  TimedScheduler(core::Scheduler& inner, Tracer* tracer,
                 const std::string& policy)
      : inner_{inner},
        tracer_{tracer},
        place_id_{tracer != nullptr
                      ? tracer->intern("core.sched.place." + policy)
                      : -1},
        replan_name_{"core.sched.replan." + policy} {}

  std::string name() const override { return inner_.name(); }

  Placement place(const workload::Application& app,
                  const core::FleetState& state) override {
    ++place_calls_;
    if (tracer_ == nullptr) return inner_.place(app, state);
    const Clock::time_point start = Clock::now();
    Placement placement = inner_.place(app, state);
    tracer_->tally(place_id_, start, Clock::now(), true);
    return placement;
  }

  std::vector<core::Move> replan(const core::FleetState& state) override {
    ++replan_calls_;
    const Span span{tracer_, replan_name_};
    std::vector<core::Move> moves = inner_.replan(state);
    replan_moves_ += static_cast<std::int64_t>(moves.size());
    return moves;
  }

  util::Tick replan_period_ticks() const override {
    return inner_.replan_period_ticks();
  }
  void on_topology_change() override { inner_.on_topology_change(); }
  std::int64_t fallback_count() const override {
    return inner_.fallback_count();
  }
  void save_state(util::wire::Writer& w) const override {
    inner_.save_state(w);
  }
  void restore_state(util::wire::Reader& r) override {
    inner_.restore_state(r);
  }

  std::int64_t place_calls() const noexcept { return place_calls_; }
  std::int64_t replan_calls() const noexcept { return replan_calls_; }
  std::int64_t replan_moves() const noexcept { return replan_moves_; }

 private:
  core::Scheduler& inner_;
  Tracer* tracer_;
  int place_id_;
  std::string replan_name_;
  std::int64_t place_calls_ = 0;
  std::int64_t replan_calls_ = 0;
  std::int64_t replan_moves_ = 0;
};

/// Forwards AllocationPolicy::choose, tallied (one call per VM placed).
class TimedPolicy final : public dcsim::AllocationPolicy {
 public:
  TimedPolicy(dcsim::AllocationPolicy& inner, Tracer* tracer)
      : inner_{inner},
        tracer_{tracer},
        id_{tracer != nullptr ? tracer->intern("dcsim.alloc") : -1} {}

  std::optional<int> choose(const dcsim::Site& site,
                            const workload::VmShape& shape) override {
    ++calls_;
    if (tracer_ == nullptr) return inner_.choose(site, shape);
    const Clock::time_point start = Clock::now();
    const std::optional<int> server = inner_.choose(site, shape);
    tracer_->tally(id_, start, Clock::now(), false);
    return server;
  }

  std::int64_t calls() const noexcept { return calls_; }

 private:
  dcsim::AllocationPolicy& inner_;
  Tracer* tracer_;
  int id_;
  std::int64_t calls_ = 0;
};

std::unique_ptr<core::Scheduler> make_scheduler(const std::string& policy) {
  if (policy == "greedy") return std::make_unique<core::GreedyScheduler>();
  if (policy == "mip24h") {
    return std::make_unique<core::MipScheduler>(core::make_mip24h_config());
  }
  if (policy == "mip") {
    return std::make_unique<core::MipScheduler>(core::make_mip_config());
  }
  return std::make_unique<core::MipScheduler>(core::make_mip_peak_config());
}

// ---------------------------------------------------------------------------
// paper: Table 1 (four policies, app level, 10 sites, 7 days) and Fig 4
// (one 700-server wind site, 365 days).
//
// Table 1 always runs the paper's own instance (the generators' default
// seeds, as in EXPERIMENTS.md): its cost swings too far between instances
// for any bound to hold (see README.md). The benchmark seed drives the
// Fig 4 site's wind trace and VM arrivals.

class PaperWorkload final : public Workload {
 public:
  explicit PaperWorkload(const WorkloadOptions& options)
      : seed_{options.seed},
        table1_ticks_{kTicksPerDay * (options.smoke ? 2 : 7)},
        fig4_ticks_{kTicksPerDay * (options.smoke ? 7 : 365)},
        check_shape_{!options.smoke} {}

  void setup(Tracer* tracer) override {
    energy::FleetConfig fleet_config;
    fleet_config.n_solar = 4;
    fleet_config.n_wind = 6;
    fleet_config.region_km = 2500.0;
    energy::WindConfig wind_config;
    wind_config.start_day_of_year = 0;
    wind_config.seed = util::seed_for(seed_, "fig4.wind");
    std::optional<energy::Fleet> fleet;
    {
      const Span span{tracer, "energy.gen"};
      fleet = energy::generate_fleet(fleet_config, kAxis, table1_ticks_);
      wind_ = energy::WindModel{wind_config}.generate(kAxis, fig4_ticks_);
    }
    {
      const Span span{tracer, "workload.gen"};
      workload::AppGeneratorConfig app_config;
      app_config.apps_per_hour = 2.2;
      apps_ = workload::generate_apps(app_config, kAxis, table1_ticks_);
      // Demand ≈ 70% of the typically powered share of the 700-server,
      // 40-core site, as in bench_fig4_overhead.
      workload::GeneratorConfig vm_config;
      vm_config.arrivals_per_hour =
          0.35 * 28000.0 /
          (workload::expected_steady_cores(vm_config) /
           vm_config.arrivals_per_hour);
      vm_config.seed = util::seed_for(seed_, "fig4.vms");
      vms_ = workload::VmTraceGenerator{vm_config}.generate(kAxis,
                                                            fig4_ticks_);
    }
    {
      const Span span{tracer, "core.graph.build"};
      core::VbGraphConfig graph_config;
      graph_config.cores_per_mw = 20.0;
      graph_.emplace(*fleet, graph_config);
    }
  }

  PassResult pass(Tracer* tracer) override {
    PassResult out;
    std::uint32_t crc = 0;
    std::vector<core::PolicyRow> rows;
    dcsim::SiteSimResult site{};
    std::vector<std::int64_t> place_calls, replan_calls, replan_moves,
        solves, fallbacks;
    std::int64_t alloc_calls = 0;

    const Clock::time_point start = Clock::now();
    {
      const Span root{tracer, "paper.pass"};
      for (const std::string& policy : policies()) {
        const std::unique_ptr<core::Scheduler> inner = make_scheduler(policy);
        TimedScheduler scheduler{*inner, tracer, policy};
        const core::SimResult result = [&] {
          const Span span{tracer, "core.sim." + policy};
          return core::run_simulation(*graph_, apps_, scheduler);
        }();
        rows.push_back(core::summarize(policy, result));
        crc = digest(crc, svc::result_fingerprint(result));
        place_calls.push_back(scheduler.place_calls());
        replan_calls.push_back(scheduler.replan_calls());
        replan_moves.push_back(scheduler.replan_moves());
        const auto* mip = dynamic_cast<const core::MipScheduler*>(inner.get());
        solves.push_back(mip != nullptr ? mip->solve_count() : 0);
        fallbacks.push_back(inner->fallback_count());
      }
      dcsim::BestFitPolicy best_fit;
      TimedPolicy policy{best_fit, tracer};
      {
        const Span span{tracer, "dcsim.site_sim"};
        site = dcsim::simulate_site(*wind_, vms_, dcsim::SiteSimConfig{},
                                    policy);
      }
      alloc_calls = policy.calls();
    }
    out.wall_s = seconds_between(start, Clock::now());
    out.digest = hex(digest(crc, site_sim_fingerprint(site)));

    for (std::size_t i = 0; i < policies().size(); ++i) {
      const std::string suffix = "." + policies()[i];
      out.counts["core.sched.place.calls" + suffix] =
          static_cast<double>(place_calls[i]);
      out.counts["core.sched.replan.calls" + suffix] =
          static_cast<double>(replan_calls[i]);
      out.counts["core.sched.replan.moves" + suffix] =
          static_cast<double>(replan_moves[i]);
      out.counts["core.sched.solves" + suffix] = static_cast<double>(solves[i]);
      out.counts["core.sched.fallbacks" + suffix] =
          static_cast<double>(fallbacks[i]);
      // Scheduler decisions; the failed ones took a fallback rung.
      out.attempted += place_calls[i] + replan_calls[i];
      out.failed += fallbacks[i];
    }
    out.counts["dcsim.alloc.calls"] = static_cast<double>(alloc_calls);
    out.counts["dcsim.vms_evicted"] = static_cast<double>(site.vms_evicted);
    out.counts["dcsim.vms_relaunched"] =
        static_cast<double>(site.vms_relaunched);

    const core::PolicyRow& greedy = rows[0];
    const core::PolicyRow& mip = rows[2];
    const core::PolicyRow& peak = rows[3];
    const double cut = 100.0 * (1.0 - mip.total_gb / greedy.total_gb);
    const double gain = greedy.p99_gb / std::max(1.0, peak.p99_gb);
    const double quiet = 100.0 * site.no_migration_fraction();
    out.counts["mip_total_cut_pct"] = cut;
    out.counts["mippeak_p99_gain"] = gain;
    out.counts["fig4_quiet_pct"] = quiet;

    // The EXPERIMENTS.md shape claims hold for the full-size artifacts
    // only; smoke sizes skip them.
    if (check_shape_) {
      bool peak_best = true;
      for (std::size_t i = 0; i + 1 < rows.size(); ++i) {
        peak_best = peak_best && peak.p99_gb <= rows[i].p99_gb &&
                    peak.peak_gb <= rows[i].peak_gb &&
                    peak.std_gb <= rows[i].std_gb;
      }
      out.checks.push_back(Check{"paper.mip_total_cut_over_30pct", cut > 30.0,
                                 "MIP total " + std::to_string(cut) +
                                     "% below Greedy"});
      out.checks.push_back(Check{"paper.mippeak_best_p99_peak_std", peak_best,
                                 "MIP-peak p99 " +
                                     std::to_string(peak.p99_gb) + " GB"});
      out.checks.push_back(Check{"paper.fig4_quiet_over_80pct", quiet > 80.0,
                                 std::to_string(quiet) +
                                     "% of power changes migrate nothing"});
    }
    return out;
  }

 private:
  std::uint64_t seed_;
  std::size_t table1_ticks_;
  std::size_t fig4_ticks_;
  bool check_shape_;
  std::optional<core::VbGraph> graph_;
  std::vector<workload::Application> apps_;
  std::optional<energy::PowerTrace> wind_;
  std::vector<workload::VmRequest> vms_;
};

// ---------------------------------------------------------------------------
// fleet: the sharded VM-level engine under greedy, 250 wind sites x 700
// servers x 90 days, once on the shared pool and once with no pool. The
// two results must be bit-identical. No solver runs here.

class FleetWorkload final : public Workload {
 public:
  explicit FleetWorkload(const WorkloadOptions& options)
      : seed_{options.seed},
        n_sites_{options.smoke ? 10 : 250},
        ticks_{kTicksPerDay * (options.smoke ? 3 : 90)},
        apps_per_hour_{options.smoke ? 6.0 : 40.0} {}

  void setup(Tracer* tracer) override {
    std::optional<energy::Fleet> fleet;
    {
      const Span span{tracer, "energy.gen"};
      energy::FleetConfig config;
      config.n_solar = 0;
      config.n_wind = n_sites_;
      config.region_km = 500.0;
      config.seed = util::seed_for(seed_, "fleet.energy");
      fleet = energy::generate_fleet(config, kAxis, ticks_);
    }
    {
      const Span span{tracer, "workload.gen"};
      workload::AppGeneratorConfig config;
      config.apps_per_hour = apps_per_hour_;
      config.seed = util::seed_for(seed_, "fleet.apps");
      apps_ = workload::generate_apps(config, kAxis, ticks_);
    }
    {
      const Span span{tracer, "core.graph.build"};
      core::VbGraphConfig config;
      config.cores_per_mw = 70.0;  // 700 servers of 40 cores per site
      graph_.emplace(*fleet, config);
    }
  }

  PassResult pass(Tracer* tracer) override {
    PassResult out;
    util::ThreadPool& shared = util::ThreadPool::shared();
    core::FleetSimOptions pooled_options;
    pooled_options.pool = shared.size() > 0 ? &shared : nullptr;

    const auto run = [&](const char* span_name,
                         const core::FleetSimOptions& options,
                         double& seconds) {
      core::GreedyScheduler greedy;
      TimedScheduler scheduler{greedy, tracer, "greedy"};
      const Span span{tracer, span_name};
      const Clock::time_point start = Clock::now();
      core::VmLevelResult result = core::run_fleet_simulation(
          *graph_, apps_, scheduler, core::VmLevelConfig{}, options);
      seconds = seconds_between(start, Clock::now());
      return result;
    };

    double pooled_s = 0.0;
    double serial_s = 0.0;
    std::optional<core::VmLevelResult> pooled;
    std::optional<core::VmLevelResult> serial;
    const Clock::time_point start = Clock::now();
    {
      const Span root{tracer, "fleet.pass"};
      pooled.emplace(run("core.fleet.pooled", pooled_options, pooled_s));
      serial.emplace(run("core.fleet.serial", core::FleetSimOptions{},
                         serial_s));
    }
    out.wall_s = seconds_between(start, Clock::now());

    const std::string diff =
        testkit::diff_vm_results(*pooled, *serial, graph_->n_sites());
    out.checks.push_back(Check{"fleet.pooled_equals_serial", diff.empty(),
                               diff.empty() ? "bit-identical" : diff});
    out.attempted = 1;
    out.failed = diff.empty() ? 0 : 1;
    out.digest = hex(digest(0, vm_level_fingerprint(*pooled)));

    std::int64_t vms = 0;
    for (const workload::Application& app : apps_) {
      vms += app.n_stable + app.n_degradable;
    }
    out.counts["core.fleet.lanes"] = static_cast<double>(shared.size() + 1);
    out.counts["core.fleet.vms"] = static_cast<double>(vms);
    out.counts["core.fleet.vm_migrations"] =
        static_cast<double>(pooled->vm_migrations);
    out.counts["core.fleet.powered_server_ticks"] =
        static_cast<double>(pooled->powered_server_ticks);
    out.host["serial_wall_s"] = serial_s;
    out.host["core.fleet.pool_speedup"] = serial_s / pooled_s;
    return out;
  }

 private:
  std::uint64_t seed_;
  int n_sites_;
  std::size_t ticks_;
  double apps_per_hour_;
  std::optional<core::VbGraph> graph_;
  std::vector<workload::Application> apps_;
};

// ---------------------------------------------------------------------------
// svc: one closed-loop client streams a 90-day, 10-site mip24h scenario
// (chaos 1.0, per-tick heartbeats with health tracking, durable event
// log, a snapshot every 100 ticks) through a ControlPlane, waiting on each submit;
// then recovers from a fixed mid-run crash point with the last snapshot
// plus the log suffix.

// The snapshot cadence vbatt_svc documents (--snapshot-every=100), about
// daily.
constexpr util::Tick kSnapshotEvery = 100;

void write_file(const std::string& path, std::string_view bytes) {
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) throw std::runtime_error("cannot write " + path);
}

std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

int kind_index(svc::EventKind kind) {
  switch (kind) {
    case svc::EventKind::tick_advance: return 0;
    case svc::EventKind::power_reading:
    case svc::EventKind::forecast_update: return 1;
    case svc::EventKind::heartbeat: return 2;
    case svc::EventKind::vm_arrival: return 3;
    case svc::EventKind::fault_report: return 4;
    default: break;
  }
  throw std::logic_error("scenario produced an unexpected event kind");
}

class SvcWorkload final : public Workload {
 public:
  explicit SvcWorkload(const WorkloadOptions& options)
      : seed_{options.seed},
        days_{options.smoke ? std::size_t{3} : std::size_t{90}},
        log_path_{options.work_dir + "/svc.evlog"},
        snapshot_path_{options.work_dir + "/svc.snap"},
        crash_log_path_{options.work_dir + "/svc-crash.evlog"},
        crash_snapshot_path_{options.work_dir + "/svc-crash.snap"} {
    config_.policy = "mip24h";
    config_.health.enabled = true;
  }

  ~SvcWorkload() override {
    std::error_code ignored;
    for (const std::string* path : {&log_path_, &snapshot_path_,
                                    &crash_log_path_, &crash_snapshot_path_}) {
      std::filesystem::remove(*path, ignored);
    }
  }
  SvcWorkload(const SvcWorkload&) = delete;
  SvcWorkload& operator=(const SvcWorkload&) = delete;

  void setup(Tracer* tracer) override {
    const std::size_t ticks = kTicksPerDay * days_;
    std::optional<energy::Fleet> fleet;
    {
      const Span span{tracer, "energy.gen"};
      // The svc::ScenarioConfig defaults (make_scenario), with seeded
      // generators.
      energy::FleetConfig config;
      config.n_solar = 4;
      config.n_wind = 6;
      config.region_km = 2500.0;
      config.seed = util::seed_for(seed_, "svc.energy");
      fleet = energy::generate_fleet(config, kAxis, ticks);
    }
    std::vector<workload::Application> apps;
    {
      const Span span{tracer, "workload.gen"};
      workload::AppGeneratorConfig config;
      config.apps_per_hour = 2.2;
      config.seed = util::seed_for(seed_, "svc.apps");
      apps = workload::generate_apps(config, kAxis, ticks);
    }
    std::optional<core::VbGraph> graph;
    {
      const Span span{tracer, "core.graph.build"};
      core::VbGraphConfig config;
      config.cores_per_mw = 20.0;
      graph.emplace(*fleet, config);
    }
    fault::FaultSchedule schedule;
    {
      const Span span{tracer, "fault.chaos_gen"};
      fault::ChaosConfig chaos;
      chaos.intensity = 1.0;
      schedule = fault::make_chaos_schedule(
          *graph, chaos, util::seed_for(seed_, "svc.chaos"));
    }
    scenario_.emplace(svc::Scenario{std::move(*graph), std::move(apps),
                                    std::move(schedule), {}});
    {
      const Span span{tracer, "svc.events_gen"};
      events_ = svc::scenario_events(*scenario_, /*heartbeats=*/true);
    }
  }

  PassResult pass(Tracer* tracer) override {
    PassResult out;
    const std::size_t n_ticks = scenario_->graph.n_ticks();
    // Half a snapshot period past the last snapshot before mid-run, so
    // recovery replays a log suffix.
    const auto half = static_cast<util::Tick>(n_ticks / 2);
    const util::Tick crash_tick =
        half / kSnapshotEvery * kSnapshotEvery + kSnapshotEvery / 2;
    std::vector<LatencyLog> submit(submit_kinds().size());
    std::vector<int> submit_ids;
    for (const std::string& kind : submit_kinds()) {
      submit_ids.push_back(tracer != nullptr
                               ? tracer->intern("svc.submit." + kind)
                               : -1);
    }

    std::string last_snapshot;
    std::string crash_state;
    std::uintmax_t crash_log_bytes = 0;
    std::int64_t rejected = 0;
    std::int64_t accepted = 0;
    double snapshot_bytes = 0.0;
    double ingest_s = 0.0;
    double recovery_s = 0.0;
    std::int64_t replayed = 0;
    std::optional<svc::ControlPlane> live;
    {
      const Span root{tracer, "svc.pass"};
      {
        const Span span{tracer, "svc.ingest"};
        const Clock::time_point ingest_start = Clock::now();
        std::int64_t excluded_ns = 0;
        live.emplace(scenario_->graph, config_);
        live->attach_log(
            std::make_unique<svc::EventLogWriter>(log_path_, true));
        for (const svc::Event& event : events_) {
          const int kind = kind_index(event.kind);
          const Clock::time_point t0 = Clock::now();
          try {
            live->submit(event);
            ++accepted;
          } catch (const std::exception&) {
            ++rejected;
          }
          const Clock::time_point t1 = Clock::now();
          submit[static_cast<std::size_t>(kind)].add(ns_between(t0, t1));
          if (tracer != nullptr) {
            tracer->tally(submit_ids[static_cast<std::size_t>(kind)], t0, t1,
                          false);
          }
          if (event.kind != svc::EventKind::tick_advance) continue;
          const util::Tick done = live->now() + 1;
          if (done % kSnapshotEvery == 0) {
            const Span snap{tracer, "svc.snapshot"};
            last_snapshot = live->snapshot_bytes();
            write_file(snapshot_path_, last_snapshot);
            snapshot_bytes = static_cast<double>(last_snapshot.size());
          }
          if (done == crash_tick) {
            // The crash point: keep what a crash would leave on disk (the
            // last snapshot and the log so far) and the live state to
            // compare the recovery with. Not part of the ingest time.
            const Clock::time_point c0 = Clock::now();
            const Span crash{tracer, "svc.crash_capture"};
            crash_log_bytes = std::filesystem::file_size(log_path_);
            write_file(crash_snapshot_path_, last_snapshot);
            crash_state = live->snapshot_bytes();
            excluded_ns += ns_between(c0, Clock::now());
          }
        }
        ingest_s = static_cast<double>(
                       ns_between(ingest_start, Clock::now()) - excluded_ns) *
                   1e-9;
      }
      if (crash_state.empty()) {
        throw std::logic_error("svc: the session never reached its crash point");
      }
      out.counts["svc.log.records"] =
          static_cast<double>(live->log()->records_written());
      live->attach_log(nullptr);

      // Untimed: cut a copy of the log back to the crash point.
      {
        const Span span{tracer, "svc.crash_prepare"};
        std::filesystem::copy_file(
            log_path_, crash_log_path_,
            std::filesystem::copy_options::overwrite_existing);
        svc::truncate_event_log(crash_log_path_, crash_log_bytes);
      }

      std::optional<svc::ControlPlane> revived;
      {
        const Span span{tracer, "svc.recover"};
        const Clock::time_point recover_start = Clock::now();
        svc::EventLogContents log;
        {
          const Span read{tracer, "svc.recover.read_log"};
          log = svc::read_event_log(crash_log_path_);
        }
        revived.emplace(scenario_->graph, config_);
        {
          const Span restore{tracer, "svc.recover.restore"};
          revived->restore_snapshot(read_file(crash_snapshot_path_));
        }
        {
          const Span replay{tracer, "svc.recover.replay"};
          replayed = static_cast<std::int64_t>(revived->replay(log.records));
        }
        recovery_s = seconds_between(recover_start, Clock::now());
      }
      const Span span{tracer, "svc.recover_check"};
      const bool recovered = revived->snapshot_bytes() == crash_state;
      out.checks.push_back(Check{
          "svc.recovered_equals_live", recovered,
          "snapshot + " + std::to_string(replayed) + " replayed records"});
      out.failed += recovered ? 0 : 1;
      out.counts["svc.recover.records"] = static_cast<double>(replayed);
    }
    // The timed section is ingest plus recovery; the crash bookkeeping
    // and the recovery check are the benchmark's own (spans of their own
    // in the trace).
    out.wall_s = ingest_s + recovery_s;

    const svc::ServiceStatus status = live->status();
    final_fingerprint_ = svc::result_fingerprint(live->finish());
    out.digest = hex(digest(0, final_fingerprint_));

    out.attempted += accepted + rejected + 1;  // + the recovery
    out.failed += rejected;
    out.checks.push_back(Check{"svc.no_rejected_events", rejected == 0,
                               std::to_string(rejected) + " rejected"});
    out.counts["svc.faults_accepted"] =
        static_cast<double>(status.accepted_faults);
    out.counts["svc.topology_epoch"] =
        static_cast<double>(status.topology_epoch);
    out.counts["svc.snapshot.bytes"] = snapshot_bytes;
    out.counts["svc.log.bytes"] =
        static_cast<double>(std::filesystem::file_size(log_path_));

    for (std::size_t k = 0; k < submit.size(); ++k) {
      put_latency(out, "svc.submit." + submit_kinds()[k], submit[k]);
    }
    LatencyLog& ticks = submit[0];
    out.host["tick_p50_ms"] = ticks.percentile_ns(50.0) * 1e-6;
    out.host["tick_p99_ms"] = ticks.percentile_ns(99.0) * 1e-6;
    out.tails["tick_p99_ms"] = {99.0, ticks.calls()};
    out.host["events_per_s"] = static_cast<double>(accepted) / ingest_s;
    out.host["recovery_s"] = recovery_s;
    return out;
  }

  std::vector<Check> final_checks() override {
    // The batch engine over the same scenario, with every scheduled fault
    // pre-injected (the construction vbatt_svc --verify uses).
    fault::StreamInjector injector{scenario_->graph, config_.noise_seed};
    for (const fault::FaultEvent& f : scenario_->schedule.events) {
      injector.inject(f, -1);
    }
    const std::unique_ptr<core::Scheduler> scheduler =
        svc::make_service_scheduler(config_.policy);
    core::FaultConfig faults{&injector, config_.retry};
    const core::SimResult batch =
        core::run_simulation(injector.graph(), scenario_->apps, *scheduler,
                             config_.power_model, &faults);
    const bool same = svc::result_fingerprint(batch) == final_fingerprint_;
    return {Check{"svc.live_equals_batch", same,
                  same ? "result fingerprints identical"
                       : "live result diverges from run_simulation"}};
  }

 private:
  std::uint64_t seed_;
  std::size_t days_;
  std::string log_path_;
  std::string snapshot_path_;
  std::string crash_log_path_;
  std::string crash_snapshot_path_;
  svc::ServiceConfig config_;
  std::optional<svc::Scenario> scenario_;
  std::vector<svc::Event> events_;
  std::string final_fingerprint_;
};

}  // namespace

const std::vector<std::string>& policies() {
  static const std::vector<std::string> names{"greedy", "mip24h", "mip",
                                              "mippeak"};
  return names;
}

const std::vector<std::string>& submit_kinds() {
  static const std::vector<std::string> names{"tick", "reading", "heartbeat",
                                              "arrival", "fault"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadOptions& options) {
  if (name == "paper") return std::make_unique<PaperWorkload>(options);
  if (name == "fleet") return std::make_unique<FleetWorkload>(options);
  if (name == "svc") return std::make_unique<SvcWorkload>(options);
  return nullptr;
}

}  // namespace perfbench
