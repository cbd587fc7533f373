// Per-server state of a contiguous block of sites — the one implementation
// of a site's servers, used with one site by dcsim::Site (Fig 4) and with
// a whole shard of sites by the fleet engine.
//
// The state is flat parallel arrays shared by every site in the block:
// server free-resource columns, one contiguous free-cores bucket-bitset
// region (a bitset of server ids per free-core count, plus a per-site mask
// of nonempty buckets), and per-server victim lists that carry the
// victim's shape inline. A tick touches a few dense arrays instead of
// chasing pointers, and no operation sweeps the servers:
//   * best_fit walks the nonempty buckets from the shape's core count up
//     and returns the exact server id scan_reference::best_fit would;
//   * shrink_to evicts round-robin from a persistent cursor (advanced by
//     one only when the call had to evict), each server's victims in
//     order (degradable first, then vm_id);
//   * fail/repair walk servers lowest-index-first; a failed server leaves
//     the bucket index, so no placement can see it until repair;
//   * powered-server and allocated-core counters are kept incrementally.
// What SiteBlock deliberately leaves out is VM identity: it stores each
// resident's shape, class and id in its victim entry and nothing else.
// dcsim::Site adds the vm_id -> VmInstance store and a departure calendar
// on top of a one-site block; the fleet engine keeps VM identity in its
// own SoA arrays and its own app-level calendar.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace vbatt::dcsim {

struct ServerSpec {
  int cores = 40;
  double memory_gb = 512.0;
};

struct SiteConfig {
  int n_servers = 700;
  ServerSpec server{};
  /// Admission control rejects VMs that would push allocated cores above
  /// this fraction of the *currently powered* capacity (the paper's 70%).
  /// The 30% headroom is exactly what lets minor power dips be absorbed by
  /// powering down unallocated cores (Fig. 4a: >80% of power changes cause
  /// no migration).
  double utilization_cap = 0.70;
};

/// Per-server free-resource bookkeeping.
struct ServerState {
  int free_cores = 0;
  double free_memory_gb = 0.0;
  int vm_count = 0;
};

class SiteBlock {
 public:
  /// A VM evicted by shrink_to or fail_servers. Shape and class ride
  /// along so the caller needs no side lookup to detach its bookkeeping.
  struct Evicted {
    std::int64_t vm_id = 0;
    std::int32_t cores = 0;
    double memory_gb = 0.0;
    std::int32_t server = -1;
    bool degradable = false;
  };

  /// One config per site in the block (empty = inert block). All sites
  /// must share one ServerSpec (the VM-level engine sizes every site from
  /// the same config.server); throws std::invalid_argument otherwise.
  explicit SiteBlock(const std::vector<SiteConfig>& configs);

  std::size_t n_sites() const noexcept { return sites_.size(); }
  int n_servers(std::size_t s) const { return sites_[s].n_servers; }
  int allocated_cores(std::size_t s) const { return sites_[s].allocated_cores; }
  double allocated_memory_gb(std::size_t s) const {
    return sites_[s].allocated_memory_gb;
  }
  /// Servers hosting at least one VM (those draw power).
  int powered_servers(std::size_t s) const { return sites_[s].powered_servers; }
  /// Cores in use on powered servers — equals allocated cores, since only
  /// VMs allocate and only VM-hosting servers are powered.
  int active_cores(std::size_t s) const { return sites_[s].allocated_cores; }
  int failed_servers(std::size_t s) const { return sites_[s].failed_servers; }

  /// Free resources of server `i` of site `s`. A failed server keeps its
  /// (fully free) state but is never a placement candidate.
  ServerState server(std::size_t s, int i) const {
    const std::size_t idx = sites_[s].server_base + static_cast<std::size_t>(i);
    return ServerState{free_cores_[idx], free_memory_gb_[idx], vm_count_[idx]};
  }
  bool server_failed(std::size_t s, int i) const {
    return failed_[sites_[s].server_base + static_cast<std::size_t>(i)] != 0;
  }

  /// The best-fit server for a shape: least free cores that still fit,
  /// ties to a server already hosting VMs (never start an empty server if
  /// a used one fits), then the lowest id. -1 when no server fits.
  int best_fit(std::size_t s, int cores, double memory_gb) const;

  /// Commit a placement at `server` (any server; the caller chose it).
  void commit(std::size_t s, int server, std::int64_t vm_id, int cores,
              double memory_gb, bool degradable);

  /// best_fit, then commit there. Returns the hosting server id or -1
  /// when no server fits.
  int place(std::size_t s, std::int64_t vm_id, int cores, double memory_gb,
            bool degradable);

  /// Detach one resident VM (departure or migration). The caller names
  /// the hosting server and the VM's shape/class exactly as placed.
  void remove(std::size_t s, int server, std::int64_t vm_id, int cores,
              double memory_gb, bool degradable);

  /// Evict round-robin until allocated cores <= available_cores,
  /// appending victims to `out` in eviction order (degradable first, then
  /// vm_id, per server). The persistent cursor advances only when the
  /// site was over budget on entry.
  void shrink_to(std::size_t s, int available_cores,
                 std::vector<Evicted>& out);

  /// Take `count` healthy servers offline (lowest index first), evicting
  /// their residents into `out` in the same per-server victim order.
  void fail_servers(std::size_t s, int count, std::vector<Evicted>& out);

  /// Return `count` failed servers to service (lowest index first).
  void repair_servers(std::size_t s, int count);

 private:
  /// Victim-order entry: sorted by (rank, vm_id); rank 0 = degradable,
  /// 1 = stable (degradable VMs are evicted first). Shape rides along so
  /// evictions never consult caller state.
  struct Victim {
    std::int32_t rank = 0;
    std::int64_t vm_id = 0;
    std::int32_t cores = 0;
    double memory_gb = 0.0;
  };

  /// Per-site header over the flat server/bucket columns.
  struct SiteState {
    std::int32_t n_servers = 0;
    std::size_t server_base = 0;  // index into server columns / victims_
    std::size_t word_base = 0;    // index into bucket_words_, per bucket
    std::size_t n_words = 0;      // bitset words per bucket at this site
    std::size_t count_base = 0;   // index into bucket_count_
    int allocated_cores = 0;
    double allocated_memory_gb = 0.0;
    int powered_servers = 0;
    int failed_servers = 0;
    int eviction_cursor = 0;
    /// Servers in the top (all-cores-free) bucket that still host VMs —
    /// only zero-core VMs can create them. While 0, best-fit's "prefer a
    /// used server" sweep over the top bucket is provably empty, so the
    /// query short-circuits to the first set bit (every candidate is a
    /// factory-empty server with identical capacity).
    int top_used = 0;
  };

  void move_bucket(const SiteState& site, int server, int old_free,
                   int new_free);
  /// Pops the victim entry and restores free resources; `entry` must be a
  /// current victim of `server`.
  void detach(SiteState& site, int server, const Victim& entry);

  /// Lowest-index fitting server in bucket `b` of `site`; -1 if none.
  int first_fit_in_bucket(const SiteState& site, int b, int cores,
                          double memory_gb) const;

  std::uint64_t* bucket(const SiteState& site, int b) {
    return bucket_words_.data() + site.word_base +
           static_cast<std::size_t>(b) * site.n_words;
  }
  const std::uint64_t* bucket(const SiteState& site, int b) const {
    return bucket_words_.data() + site.word_base +
           static_cast<std::size_t>(b) * site.n_words;
  }
  int& bucket_count(const SiteState& site, int b) {
    return bucket_count_[site.count_base + static_cast<std::size_t>(b)];
  }
  int bucket_count(const SiteState& site, int b) const {
    return bucket_count_[site.count_base + static_cast<std::size_t>(b)];
  }

  int top_ = 0;  // server cores; bucket ids run 0..top_
  double server_memory_gb_ = 0.0;
  std::vector<SiteState> sites_;

  // Server columns, all indexed by site.server_base + local server id.
  std::vector<std::int32_t> free_cores_;
  std::vector<double> free_memory_gb_;
  std::vector<std::int32_t> vm_count_;
  std::vector<std::uint8_t> failed_;
  std::vector<std::vector<Victim>> victims_;

  /// All bucket bitsets of the whole block, one contiguous region:
  /// site s, bucket b lives at [word_base + b*n_words, +n_words).
  std::vector<std::uint64_t> bucket_words_;
  /// Population per (site, bucket), flat at bucket_count_base + b.
  std::vector<int> bucket_count_;
  /// One bit per bucket, set while the bucket is nonempty, so best_fit
  /// skips empty fill levels with a bit scan instead of walking the count
  /// array. Site s's mask starts at s * mask_words_.
  std::vector<std::uint64_t> bucket_mask_;
  std::size_t mask_words_ = 0;

  void update_mask(std::size_t s_index, int b, bool nonempty) {
    const std::size_t w =
        s_index * mask_words_ + static_cast<std::size_t>(b) / 64;
    const std::uint64_t bit = std::uint64_t{1}
                              << (static_cast<std::size_t>(b) % 64);
    if (nonempty) {
      bucket_mask_[w] |= bit;
    } else {
      bucket_mask_[w] &= ~bit;
    }
  }
  /// Lowest nonempty bucket id in [from, limit), or `limit` if none.
  int next_nonempty(std::size_t s_index, int from, int limit) const;
};

}  // namespace vbatt::dcsim
