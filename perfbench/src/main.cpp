// perfbench: one run of one vbatt workload.
//
//   perfbench --workload paper|fleet|svc --seed N --seconds S --trace 0|1
//             [--smoke] [--results FILE] [--spans FILE] [--work-dir DIR]
//
// Generates the workload's inputs from the seed (repeatedly, for a median
// set-up time), then repeats the timed section for as many passes as fit
// in S seconds. With --trace 1 the passes alternate untraced and traced, and the
// per-layer metrics come from the last traced pass (host-time metrics of
// the workload itself from the last untraced one). The last line of
// standard output is one JSON object: correct, attempted, failed, and the
// end-to-end (--trace 0) or per-layer (--trace 1) metrics.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "json.h"
#include "trace.h"
#include "vbatt/stats/percentile.h"
#include "vbatt/util/thread_pool.h"
#include "workloads.h"

namespace {

using namespace perfbench;

// Set-up repeats until both limits are reached: at least three set-ups,
// and at least this much host time spent on them.
constexpr int kMinSetups = 3;
constexpr double kSetupBudgetS = 2.0;

struct Metric {
  std::string name;
  std::string unit;
};

const std::vector<Metric>& end_to_end_metrics() {
  static const std::vector<Metric> metrics{
      {"wall_s", "s"}, {"setup_s", "s"}, {"peak_rss_mb", "MB"}};
  return metrics;
}

const std::vector<Metric>& per_layer_metrics() {
  static const std::vector<Metric> metrics = [] {
    std::vector<Metric> m{{"energy.gen_ms", "ms"},
                          {"workload.gen_ms", "ms"},
                          {"core.graph.build_ms", "ms"},
                          {"fault.chaos_gen_ms", "ms"},
                          {"svc.events_gen_ms", "ms"}};
    for (const std::string& p : policies()) {
      const std::string s = "." + p;
      m.insert(m.end(), {{"core.sched.place.calls" + s, "count"},
                         {"core.sched.place.busy_ms" + s, "ms"},
                         {"core.sched.place.p50_us" + s, "us"},
                         {"core.sched.place.tail_us" + s, "us"},
                         {"core.sched.replan.calls" + s, "count"},
                         {"core.sched.replan.busy_ms" + s, "ms"},
                         {"core.sched.replan.p50_ms" + s, "ms"},
                         {"core.sched.replan.tail_ms" + s, "ms"},
                         {"core.sched.replan.moves" + s, "count"},
                         {"core.sched.solves" + s, "count"},
                         {"core.sched.fallbacks" + s, "count"},
                         {"core.sim.self_ms" + s, "ms"}});
    }
    m.insert(m.end(), {{"dcsim.site_sim_ms", "ms"},
                       {"dcsim.site_sim.self_ms", "ms"},
                       {"dcsim.alloc.calls", "count"},
                       {"dcsim.alloc.busy_ms", "ms"},
                       {"dcsim.vms_evicted", "count"},
                       {"dcsim.vms_relaunched", "count"},
                       {"core.fleet.self_ms", "ms"},
                       {"core.fleet.serial_self_ms", "ms"},
                       {"core.fleet.pool_speedup", "x"},
                       {"core.fleet.lanes", "count"},
                       {"core.fleet.vms", "count"},
                       {"core.fleet.vm_migrations", "count"},
                       {"core.fleet.powered_server_ticks", "count"}});
    for (const std::string& k : submit_kinds()) {
      const std::string p = "svc.submit." + k;
      m.insert(m.end(), {{p + ".calls", "count"},
                         {p + ".busy_ms", "ms"},
                         {p + ".p50_us", "us"},
                         {p + ".tail_us", "us"}});
    }
    m.insert(m.end(), {{"svc.snapshot.calls", "count"},
                       {"svc.snapshot.busy_ms", "ms"},
                       {"svc.snapshot.bytes", "bytes"},
                       {"svc.log.records", "count"},
                       {"svc.log.bytes", "bytes"},
                       {"svc.recover.read_log_ms", "ms"},
                       {"svc.recover.restore_ms", "ms"},
                       {"svc.recover.replay_ms", "ms"},
                       {"svc.recover.records", "count"},
                       {"svc.faults_accepted", "count"},
                       {"svc.topology_epoch", "count"},
                       {"serial_wall_s", "s"},
                       {"events_per_s", "1/s"},
                       {"tick_p50_ms", "ms"},
                       {"tick_p99_ms", "ms"},
                       {"recovery_s", "s"},
                       {"mip_total_cut_pct", "%"},
                       {"mippeak_p99_gain", "x"},
                       {"fig4_quiet_pct", "%"},
                       {"failed_frac", "ratio"},
                       {"trace_overhead_pct", "%"}});
    return m;
  }();
  return metrics;
}

double median(std::vector<double> v) {
  return vbatt::stats::Sampler{std::move(v)}.median();
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

/// Per-layer values measured by the tracer.
void add_traced_layers(Tracer& setup, Tracer& pass,
                       std::map<std::string, double>& out,
                       std::map<std::string, std::pair<double, std::int64_t>>&
                           tails) {
  for (const char* name : {"energy.gen", "workload.gen", "core.graph.build",
                           "fault.chaos_gen", "svc.events_gen"}) {
    if (Tracer::Stats* s = setup.find(name)) {
      out[std::string{name} + "_ms"] =
          s->latency.busy_ms() / static_cast<double>(s->latency.calls());
    }
  }
  const auto self_ms = [&](const char* name, const std::string& key) {
    if (Tracer::Stats* s = pass.find(name)) {
      out[key] = static_cast<double>(s->self_ns) * 1e-6;
    }
  };
  for (const std::string& p : policies()) {
    const std::string suffix = "." + p;
    if (Tracer::Stats* s = pass.find("core.sched.place" + suffix)) {
      LatencyLog& l = s->latency;
      out["core.sched.place.calls" + suffix] = static_cast<double>(l.calls());
      out["core.sched.place.busy_ms" + suffix] = l.busy_ms();
      out["core.sched.place.p50_us" + suffix] = l.percentile_ns(50.0) * 1e-3;
      out["core.sched.place.tail_us" + suffix] = l.tail_ns() * 1e-3;
      tails["core.sched.place.tail_us" + suffix] = {l.tail_pct(), l.calls()};
    }
    if (Tracer::Stats* s = pass.find("core.sched.replan" + suffix)) {
      LatencyLog& l = s->latency;
      out["core.sched.replan.calls" + suffix] = static_cast<double>(l.calls());
      out["core.sched.replan.busy_ms" + suffix] = l.busy_ms();
      out["core.sched.replan.p50_ms" + suffix] = l.percentile_ns(50.0) * 1e-6;
      out["core.sched.replan.tail_ms" + suffix] = l.tail_ns() * 1e-6;
      tails["core.sched.replan.tail_ms" + suffix] = {l.tail_pct(), l.calls()};
    }
    self_ms(("core.sim" + suffix).c_str(), "core.sim.self_ms" + suffix);
  }
  if (Tracer::Stats* s = pass.find("dcsim.site_sim")) {
    out["dcsim.site_sim_ms"] = s->latency.busy_ms();
  }
  self_ms("dcsim.site_sim", "dcsim.site_sim.self_ms");
  if (Tracer::Stats* s = pass.find("dcsim.alloc")) {
    out["dcsim.alloc.busy_ms"] = s->latency.busy_ms();
  }
  self_ms("core.fleet.pooled", "core.fleet.self_ms");
  self_ms("core.fleet.serial", "core.fleet.serial_self_ms");
  if (Tracer::Stats* s = pass.find("svc.snapshot")) {
    out["svc.snapshot.calls"] = static_cast<double>(s->latency.calls());
    out["svc.snapshot.busy_ms"] = s->latency.busy_ms();
  }
  for (const char* step : {"read_log", "restore", "replay"}) {
    const std::string name = std::string{"svc.recover."} + step;
    if (Tracer::Stats* s = pass.find(name)) {
      out[name + "_ms"] = s->latency.busy_ms();
    }
  }
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  bool smoke = false;
  std::string results;
  std::string spans;
  std::string work_dir = ".bench_build/work";
};

bool parse_args(int argc, char** argv, Args& args) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    try {
      if (arg == "--smoke") {
        args.smoke = true;
      } else if (arg == "--workload" && has_value) {
        args.workload = argv[++i];
      } else if (arg == "--seed" && has_value) {
        std::size_t used = 0;
        const std::string text = argv[++i];
        args.seed = std::stoull(text, &used);
        if (used != text.size() || text[0] == '-') return false;
        have_seed = true;
      } else if (arg == "--seconds" && has_value) {
        args.seconds = std::stoi(argv[++i]);
      } else if (arg == "--trace" && has_value) {
        args.trace = std::stoi(argv[++i]);
      } else if (arg == "--results" && has_value) {
        args.results = argv[++i];
      } else if (arg == "--spans" && has_value) {
        args.spans = argv[++i];
      } else if (arg == "--work-dir" && has_value) {
        args.work_dir = argv[++i];
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return !args.workload.empty() && have_seed && args.seconds >= 1 &&
         (args.trace == 0 || args.trace == 1);
}

std::string metrics_json(const std::vector<Metric>& defs,
                         const std::map<std::string, double>& values) {
  std::string out = "{";
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const auto it = values.find(defs[i].name);
    const double value = it != values.end() ? it->second : 0.0;
    out += (i == 0 ? "" : ", ") + json::quote(defs[i].name) +
           ": {\"value\": " + json::number(value) +
           ", \"unit\": " + json::quote(defs[i].unit) + "}";
  }
  return out + "}";
}

int run(const Args& args) {
  WorkloadOptions options;
  options.seed = args.seed;
  options.smoke = args.smoke;
  options.work_dir = args.work_dir;
  std::filesystem::create_directories(args.work_dir);
  const std::unique_ptr<Workload> workload =
      make_workload(args.workload, options);
  if (workload == nullptr) {
    std::cerr << "unknown workload '" << args.workload
              << "' (paper, fleet, svc)\n";
    return 2;
  }
  const bool trace = args.trace == 1;
  // Start the pool's lanes before timing anything.
  const std::size_t lanes = vbatt::util::ThreadPool::shared().size() + 1;

  Tracer setup_tracer;
  std::vector<double> setup_s;
  double setup_total_s = 0.0;
  while (static_cast<int>(setup_s.size()) < kMinSetups ||
         setup_total_s < kSetupBudgetS) {
    const Clock::time_point start = Clock::now();
    {
      const Span root{trace ? &setup_tracer : nullptr, "setup"};
      workload->setup(trace ? &setup_tracer : nullptr);
    }
    setup_s.push_back(seconds_between(start, Clock::now()));
    setup_total_s += setup_s.back();
  }
  std::string trace_error = trace ? setup_tracer.verify() : "";

  std::vector<PassResult> passes;
  std::vector<bool> traced;
  std::vector<double> pass_cpu_s;
  std::unique_ptr<Tracer> pass_tracer;
  // Peak memory of set-up plus one pass, what one run of the workload
  // needs; later passes only add allocator fragmentation.
  double peak_rss = 0.0;
  // Passes run while one more, predicted to last as long as the longest so
  // far, still ends inside the window: at least one pass (one untraced and
  // one traced when tracing).
  const Clock::time_point window = Clock::now();
  double longest = 0.0;
  for (std::size_t i = 0;; ++i) {
    const bool traced_pass = trace && i % 2 == 1;
    const Clock::time_point pass_start = Clock::now();
    const double cpu_start = cpu_seconds();
    if (traced_pass) {
      auto tracer = std::make_unique<Tracer>();
      passes.push_back(workload->pass(tracer.get()));
      const std::string error = tracer->verify();
      if (!error.empty() && trace_error.empty()) trace_error = error;
      pass_tracer = std::move(tracer);
    } else {
      passes.push_back(workload->pass(nullptr));
    }
    traced.push_back(traced_pass);
    pass_cpu_s.push_back(cpu_seconds() - cpu_start);
    if (i == 0) peak_rss = peak_rss_mb();
    const Clock::time_point pass_end = Clock::now();
    longest = std::max(longest, seconds_between(pass_start, pass_end));
    const double elapsed = seconds_between(window, pass_end);
    const bool have_both = !trace || pass_tracer != nullptr;
    if (have_both && elapsed + longest > args.seconds) break;
  }

  // Outputs and counts.
  std::map<std::string, Check> checks;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<double> untraced_wall;
  std::vector<double> traced_wall;
  const PassResult* last_untraced = nullptr;
  const PassResult* last_traced = nullptr;
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const PassResult& p = passes[i];
    attempted += p.attempted;
    failed += p.failed;
    (traced[i] ? traced_wall : untraced_wall).push_back(p.wall_s);
    (traced[i] ? last_traced : last_untraced) = &p;
    for (const Check& c : p.checks) {
      auto [it, inserted] = checks.try_emplace(c.name, c);
      if (!c.ok) it->second = c;
    }
  }
  const bool digests_agree =
      std::all_of(passes.begin(), passes.end(), [&](const PassResult& p) {
        return p.digest == passes.front().digest;
      });
  std::vector<Check> all_checks;
  for (const auto& [name, c] : checks) all_checks.push_back(c);
  all_checks.push_back(Check{"digest.repeats_agree", digests_agree,
                             std::to_string(passes.size()) + " passes"});
  if (trace) {
    all_checks.push_back(Check{"trace.nested_and_self_sums", trace_error.empty(),
                               trace_error.empty() ? "ok" : trace_error});
  }
  for (Check& c : workload->final_checks()) {
    ++attempted;
    if (!c.ok) ++failed;
    all_checks.push_back(std::move(c));
  }
  bool correct = true;
  for (const Check& c : all_checks) correct = correct && c.ok;

  std::map<std::string, double> end_to_end{
      {"wall_s", median(untraced_wall)},
      {"setup_s", median(setup_s)},
      {"peak_rss_mb", peak_rss}};

  std::map<std::string, double> layers;
  std::map<std::string, std::pair<double, std::int64_t>> tails;
  if (trace) {
    add_traced_layers(setup_tracer, *pass_tracer, layers, tails);
    for (const auto& [k, v] : last_traced->counts) layers[k] = v;
    for (const auto& [k, v] : last_untraced->host) layers[k] = v;
    for (const auto& [k, v] : last_untraced->tails) tails[k] = v;
    layers["trace_overhead_pct"] =
        100.0 * (median(traced_wall) / median(untraced_wall) - 1.0);
  } else {
    for (const auto& [k, v] : last_untraced->counts) layers[k] = v;
    for (const auto& [k, v] : last_untraced->host) layers[k] = v;
    for (const auto& [k, v] : last_untraced->tails) tails[k] = v;
  }
  layers["failed_frac"] =
      static_cast<double>(failed) / static_cast<double>(std::max<std::int64_t>(attempted, 1));

  if (!args.spans.empty() && trace) {
    std::ofstream out{args.spans};
    out << "{\"setup\": ";
    setup_tracer.write_json(out);
    out << ", \"pass\": ";
    pass_tracer->write_json(out);
    out << "}\n";
  }

  if (!args.results.empty()) {
    std::ofstream out{args.results};
    out << "{\n\"workload\": " << json::quote(args.workload)
        << ",\n\"seed\": " << args.seed << ",\n\"seconds\": " << args.seconds
        << ",\n\"trace\": " << args.trace
        << ",\n\"smoke\": " << (args.smoke ? "true" : "false")
        << ",\n\"host\": {\"compiler\": " << json::quote(PERFBENCH_COMPILER)
        << ", \"build_type\": " << json::quote(PERFBENCH_BUILD_TYPE)
        << ", \"nproc\": " << online_cpus() << ", \"VBATT_THREADS\": "
        << json::quote(std::getenv("VBATT_THREADS") != nullptr
                           ? std::getenv("VBATT_THREADS")
                           : "")
        << ", \"pool_lanes\": " << lanes << "}"
        << ",\n\"setup_s\": [";
    for (std::size_t i = 0; i < setup_s.size(); ++i) {
      out << (i ? ", " : "") << json::number(setup_s[i]);
    }
    out << "],\n\"passes\": [";
    for (std::size_t i = 0; i < passes.size(); ++i) {
      out << (i ? ",\n  " : "\n  ") << "{\"traced\": "
          << (traced[i] ? "true" : "false")
          << ", \"wall_s\": " << json::number(passes[i].wall_s)
          << ", \"cpu_s\": " << json::number(pass_cpu_s[i])
          << ", \"digest\": " << json::quote(passes[i].digest) << "}";
    }
    out << "],\n\"checks\": [";
    for (std::size_t i = 0; i < all_checks.size(); ++i) {
      out << (i ? ",\n  " : "\n  ") << "{\"name\": "
          << json::quote(all_checks[i].name)
          << ", \"ok\": " << (all_checks[i].ok ? "true" : "false")
          << ", \"detail\": " << json::quote(all_checks[i].detail) << "}";
    }
    out << "],\n\"tails\": {";
    bool first = true;
    for (const auto& [name, tail] : tails) {
      out << (first ? "\n  " : ",\n  ") << json::quote(name)
          << ": {\"percentile\": " << json::number(tail.first)
          << ", \"samples\": " << tail.second << "}";
      first = false;
    }
    out << "},\n\"end_to_end\": "
        << metrics_json(end_to_end_metrics(), end_to_end)
        << ",\n\"per_layer\": " << metrics_json(per_layer_metrics(), layers)
        << ",\n\"correct\": " << (correct ? "true" : "false")
        << ",\n\"attempted\": " << attempted << ",\n\"failed\": " << failed
        << "\n}\n";
  }

  for (const Check& c : all_checks) {
    std::cerr << (c.ok ? "ok   " : "FAIL ") << c.name << ": " << c.detail
              << "\n";
  }
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": "
            << (trace ? metrics_json(per_layer_metrics(), layers)
                      : metrics_json(end_to_end_metrics(), end_to_end))
            << "}" << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::cerr << "usage: perfbench --workload paper|fleet|svc --seed N "
                 "--seconds S --trace 0|1 [--smoke] [--results FILE] "
                 "[--spans FILE] [--work-dir DIR]\n";
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
