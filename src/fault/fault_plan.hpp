// Deterministic fault injection over the machine substrate.
//
// A FaultPlan is the single source of truth about what is broken during a
// modeled frame: failed compute nodes (which take all six of their torus
// links down), individually failed torus links, failed I/O nodes, and
// failed or degraded storage servers. Plans are either built explicitly
// (tests) or generated from per-component failure rates with a seeded
// generator, so the same spec + seed always produces the same plan and —
// because every recovery path in the tree is deterministic — the same
// FrameStats. Nothing in the fault layer reads a clock or an unseeded RNG.
//
// Recovery policies live in the layers the plan can hurt (net, runtime,
// compose, iolib, storage); this module only answers "is X dead?" and
// provides the deterministic next-live-sibling helpers those layers share.
// FaultStats accumulates what recovery cost: retries, rerouted hops,
// reassigned image partitions, dropped block contributions, and the frame's
// resulting pixel coverage.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <unordered_set>

#include "machine/config.hpp"
#include "machine/partition.hpp"

namespace pvr::fault {

/// Per-component failure rates and recovery pricing knobs used by
/// FaultPlan::generate and by the recovery paths.
struct FaultSpec {
  std::uint64_t seed = 1;          ///< generator seed; same seed, same plan
  double node_fail_rate = 0.0;     ///< fraction of compute nodes dead
  double link_fail_rate = 0.0;     ///< fraction of directed torus links dead
  double ion_fail_rate = 0.0;      ///< fraction of I/O nodes dead
  double server_fail_rate = 0.0;   ///< fraction of file servers dead
  double server_degrade_rate = 0.0;  ///< fraction of servers degraded
  /// Streaming-bandwidth divisor on a degraded server (RAID rebuild).
  double server_degrade_factor = 4.0;
  /// Fraction of compute nodes degraded-but-alive (thermal throttling,
  /// ECC scrubbing): their ranks render every sample `compute_degrade_factor`
  /// times slower, inflating the BSP render straggler term.
  double compute_degrade_rate = 0.0;
  double compute_degrade_factor = 2.0;  ///< sample-rate divisor when degraded
  /// Send attempts before a message to a dead rank is declared
  /// undeliverable; each attempt costs `retry_timeout` at the sender.
  int max_retries = 3;
  double retry_timeout = 0.002;    ///< seconds per failed delivery attempt
};

/// What recovery cost during one modeled frame. The failed_* census fields
/// describe the plan; the rest are accumulated by the recovery paths.
struct FaultStats {
  // --- plan census ---
  std::int64_t failed_nodes = 0;
  std::int64_t failed_links = 0;   ///< explicitly failed (dead nodes extra)
  std::int64_t failed_ions = 0;
  std::int64_t failed_servers = 0;
  std::int64_t degraded_servers = 0;
  std::int64_t degraded_nodes = 0;  ///< degraded-but-alive compute nodes

  // --- recovery work ---
  std::int64_t undeliverable_messages = 0;  ///< sends to/from dead ranks
  std::int64_t retries = 0;            ///< message + storage retry attempts
  std::int64_t rerouted_messages = 0;  ///< messages that left the DOR path
  std::int64_t rerouted_hops = 0;      ///< hops traveled on detoured routes
  std::int64_t reassigned_partitions = 0;  ///< compositor tiles reassigned
  std::int64_t reassigned_aggregators = 0; ///< I/O file domains reassigned
  std::int64_t dropped_blocks = 0;     ///< renderer blocks lost with owner
  /// Dead exchange-group members whose schedule role a live proxy absorbed
  /// (radix-k partner substitution).
  std::int64_t substituted_partners = 0;
  /// Messages re-addressed to a proxy or sent on a dead rank's behalf.
  std::int64_t proxied_messages = 0;
  std::int64_t rerouted_clients = 0;   ///< I/O clients moved to sibling ION
  std::int64_t failover_extents = 0;   ///< stripe extents served by failover
  /// Fraction of scheduled composite pixels actually delivered; 1.0 when
  /// every renderer contributed, < 1.0 when dead renderers dropped blocks.
  double coverage = 1.0;
};

class FaultPlan {
 public:
  /// An empty plan: everything healthy. Every query returns "alive".
  FaultPlan() = default;
  explicit FaultPlan(const FaultSpec& spec) : spec_(spec) {}

  /// Draws a plan from the spec's per-component rates, deterministically
  /// from spec.seed. Components are sampled in a fixed order (nodes, links,
  /// IONs, servers, degraded servers) so the plan is reproducible.
  static FaultPlan generate(const machine::Partition& partition,
                            const machine::StorageConfig& storage,
                            const FaultSpec& spec);

  // --- explicit injection (tests, targeted what-if studies) ---
  // Dead and degraded are mutually exclusive states: killing a component
  // clears any degradation it carried, and degrading a dead component is a
  // no-op (it cannot run slowly — it does not run at all). Generated plans
  // obey the same invariant.
  void fail_node(std::int64_t node) {
    nodes_.insert(node);
    degraded_nodes_.erase(node);
  }
  /// Fails the directed link leaving `node` along `dim` (0..2) in
  /// direction `dir` (0 = +, 1 = -). Throws pvr::Error on a negative node
  /// or an out-of-range dim or dir, which would alias another link.
  void fail_link(std::int64_t node, int dim, int dir);
  void fail_ion(std::int64_t ion) { ions_.insert(ion); }
  void fail_server(int server) {
    servers_.insert(server);
    degraded_.erase(server);
  }
  void degrade_server(int server, double factor) {
    if (server_failed(server)) return;
    degraded_[server] = factor;
  }
  void degrade_node(std::int64_t node, double factor) {
    if (node_failed(node)) return;
    degraded_nodes_[node] = factor;
  }

  // --- queries ---
  bool empty() const {
    return nodes_.empty() && links_.empty() && ions_.empty() &&
           servers_.empty() && degraded_.empty() && degraded_nodes_.empty();
  }
  bool node_failed(std::int64_t node) const { return nodes_.count(node) > 0; }
  /// Explicit link faults only; callers combine with node_failed on the
  /// link's endpoints (a dead node takes all six of its links down).
  bool link_failed(std::int64_t node, int dim, int dir) const {
    return links_.count(link_key(node, dim, dir)) > 0;
  }
  bool ion_failed(std::int64_t ion) const { return ions_.count(ion) > 0; }
  bool server_failed(int server) const { return servers_.count(server) > 0; }
  /// Streaming-bandwidth divisor for a server; 1.0 when healthy.
  double server_degrade(int server) const {
    const auto it = degraded_.find(server);
    return it == degraded_.end() ? 1.0 : it->second;
  }
  /// Per-sample render slowdown of a compute node; 1.0 when healthy.
  double node_degrade(std::int64_t node) const {
    const auto it = degraded_nodes_.find(node);
    return it == degraded_nodes_.end() ? 1.0 : it->second;
  }

  /// A rank is failed when its hosting node is.
  bool rank_failed(std::int64_t rank,
                   const machine::Partition& part) const {
    return node_failed(part.node_of_rank(rank));
  }
  /// A rank renders at its hosting node's degraded sample rate.
  double rank_degrade(std::int64_t rank,
                      const machine::Partition& part) const {
    return node_degrade(part.node_of_rank(rank));
  }

  // --- deterministic failover targets ---
  /// First live rank at or after `rank` (cyclic). Throws pvr::Error when
  /// every rank is dead — there is nothing left to recover onto.
  std::int64_t next_live_rank(std::int64_t rank,
                              const machine::Partition& part) const;
  /// Group-scoped partner substitution: first live rank in `candidates`
  /// (callers pass a dead rank's exchange group in preferred substitution
  /// order, nearest member first), or -1 when every candidate is dead —
  /// the caller then widens the group, and gives up only when even the
  /// whole communicator is dead.
  std::int64_t first_live_rank(std::span<const std::int64_t> candidates,
                               const machine::Partition& part) const;
  /// First live ION at or after `ion` (cyclic); throws when all are dead.
  std::int64_t next_live_ion(std::int64_t ion, std::int64_t num_ions) const;
  /// First live server at or after `server` (cyclic); throws when all dead.
  int next_live_server(int server, int num_servers) const;

  /// Census of the plan (failed_* fields of FaultStats filled in).
  FaultStats census() const;

  const FaultSpec& spec() const { return spec_; }

 private:
  static std::int64_t link_key(std::int64_t node, int dim, int dir) {
    return node * 6 + dim * 2 + dir;
  }

  FaultSpec spec_;
  std::unordered_set<std::int64_t> nodes_;
  std::unordered_set<std::int64_t> links_;
  std::unordered_set<std::int64_t> ions_;
  std::unordered_set<int> servers_;
  std::unordered_map<int, double> degraded_;
  std::unordered_map<std::int64_t, double> degraded_nodes_;
};

}  // namespace pvr::fault
