#include "vbatt/dcsim/site.h"

#include <algorithm>
#include <stdexcept>

namespace vbatt::dcsim {

namespace {

const SiteConfig& validated(const SiteConfig& config) {
  if (config.n_servers <= 0 || config.server.cores <= 0 ||
      config.server.memory_gb <= 0.0) {
    throw std::invalid_argument{"SiteConfig: non-positive capacity"};
  }
  if (config.utilization_cap <= 0.0 || config.utilization_cap > 1.0) {
    throw std::invalid_argument{"SiteConfig: utilization_cap out of (0, 1]"};
  }
  return config;
}

bool degradable(const VmInstance& vm) {
  return vm.vm_class == workload::VmClass::degradable;
}

}  // namespace

Site::Site(SiteConfig config)
    : config_{validated(config)}, block_{{config_}} {}

bool Site::admits(const workload::VmShape& shape,
                  int available_cores) const {
  const int after = allocated_cores() + shape.cores;
  const double cap = config_.utilization_cap *
                     static_cast<double>(std::min(available_cores,
                                                  total_cores()));
  return static_cast<double>(after) <= cap;
}

bool Site::place(const VmInstance& vm, AllocationPolicy& policy) {
  if (vms_.contains(vm.vm_id)) {
    throw std::invalid_argument{"Site::place: duplicate vm_id"};
  }
  const std::optional<int> server = policy.choose(*this, vm.shape);
  if (!server) return false;
  block_.commit(0, *server, vm.vm_id, vm.shape.cores, vm.shape.memory_gb,
                degradable(vm));
  VmInstance placed = vm;
  placed.server = *server;
  if (placed.end_tick >= 0) departures_.emplace(placed.end_tick, placed.vm_id);
  vms_.emplace(vm.vm_id, placed);
  return true;
}

std::optional<VmInstance> Site::remove(std::int64_t vm_id) {
  const auto it = vms_.find(vm_id);
  if (it == vms_.end()) return std::nullopt;
  const VmInstance vm = it->second;
  block_.remove(0, vm.server, vm.vm_id, vm.shape.cores, vm.shape.memory_gb,
                degradable(vm));
  vms_.erase(it);
  // Any calendar-queue entry for this VM goes stale and is skipped on pop.
  return vm;
}

std::vector<VmInstance> Site::take(
    const std::vector<SiteBlock::Evicted>& out) {
  std::vector<VmInstance> evicted;
  evicted.reserve(out.size());
  for (const SiteBlock::Evicted& e : out) {
    const auto it = vms_.find(e.vm_id);
    evicted.push_back(it->second);
    vms_.erase(it);
  }
  return evicted;
}

std::vector<VmInstance> Site::shrink_to(int available_cores) {
  std::vector<SiteBlock::Evicted> out;
  block_.shrink_to(0, available_cores, out);
  return take(out);
}

std::vector<VmInstance> Site::collect_departures(util::Tick t) {
  std::vector<VmInstance> out;
  while (!departures_.empty() && departures_.top().first <= t) {
    const auto [end_tick, vm_id] = departures_.top();
    departures_.pop();
    const auto it = vms_.find(vm_id);
    // Stale entries: the VM left earlier (remove/evict) or was re-placed
    // with a different end_tick (its live entry is elsewhere in the heap).
    if (it == vms_.end() || it->second.end_tick != end_tick) continue;
    out.push_back(*remove(vm_id));
  }
  // Deterministic order (the heap yields end_tick order, not vm_id order).
  std::sort(out.begin(), out.end(),
            [](const VmInstance& a, const VmInstance& b) {
              return a.vm_id < b.vm_id;
            });
  return out;
}

std::vector<VmInstance> Site::fail_servers(int count) {
  std::vector<SiteBlock::Evicted> out;
  block_.fail_servers(0, count, out);
  return take(out);
}

void Site::repair_servers(int count) { block_.repair_servers(0, count); }

const VmInstance* Site::find(std::int64_t vm_id) const {
  const auto it = vms_.find(vm_id);
  return it == vms_.end() ? nullptr : &it->second;
}

std::optional<int> BestFitPolicy::choose(const Site& site,
                                         const workload::VmShape& shape) {
  const int server =
      site.block().best_fit(0, shape.cores, shape.memory_gb);
  return server < 0 ? std::nullopt : std::optional<int>{server};
}

}  // namespace vbatt::dcsim
