// 3D-torus interconnect model.
//
// Routing is dimension-ordered (x, then y, then z) taking the shorter
// wraparound direction in each dimension, matching the BG/P torus. The
// exchange model is bulk-synchronous: given all messages of a communication
// round it computes
//
//   round time = max(worst link serialization, worst endpoint time)
//                + route latency + synchronization skew
//
// where endpoint time includes a per-message software overhead scaled by a
// congestion-collapse factor (a function of the average number of in-flight
// messages per node) and a receive-side hot-spot penalty for high in-degree
// nodes. DESIGN.md §4 documents the calibration of these constants against
// the BG/P microbenchmark literature cited by the paper.
// Fault awareness: every routing/exchange entry point has a fault-aware
// variant taking a fault::FaultPlan. A dead node takes all six of its links
// down; dimension-ordered routes that would cross a failed link or node are
// detoured over the shortest live path (deterministic BFS, fixed neighbor
// order) and the detour's hops are charged like any other traffic. Messages
// whose endpoints are dead — or that are cut off entirely by link faults —
// are undeliverable: the sender burns its configured retry attempts and the
// message never enters the round. exchange() compiles the plan once per
// exchange into dense per-node and per-link dead flags and a far-end table,
// checks each route against them, and runs the same BFS over them; the
// per-hop route_with_faults() is the reference it is tested against.
// Host parallelism: exchange() optionally routes its transfers on a
// par::ThreadPool. Transfers are split into deterministic chunks, each chunk
// accumulates into private integer tallies, and the tallies merge exactly —
// so the priced cost is bit-identical for any host thread count (DESIGN.md
// §8). route()/route_with_faults() are templated on the visitor, so hot
// callers pay neither a std::function allocation nor a per-hop indirect
// call. The exchange does not tally message by message or hop by hop. It
// walks its transfers as runs of consecutive transfers between the same
// two nodes (a two-phase shuffle or direct-send emits several ranks' worth
// per node pair) and routes each run once, adding its message count and
// byte sum wherever one message would add 1 and its bytes. A
// dimension-ordered route is at most one contiguous interval per ring,
// tallied in O(1) per dimension into difference arrays (a detour's links
// as intervals of one), and one prefix sum turns them into per-link
// totals; route() stays the per-hop reference.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "fault/fault_plan.hpp"
#include "machine/partition.hpp"
#include "net/transfer.hpp"
#include "obs/metrics.hpp"
#include "par/thread_pool.hpp"

namespace pvr::net {

/// Directed torus link identifier: 6 links per node (3 dims x 2 directions).
struct LinkId {
  std::int64_t node;  ///< source node of the directed link
  int dim;            ///< 0=x, 1=y, 2=z
  int dir;            ///< 0 = +, 1 = -
};

/// Outcome of routing one message through a faulty torus.
struct FaultRoute {
  std::int64_t hops = 0;  ///< hops actually traveled (0 when unreachable)
  bool reachable = true;  ///< false: endpoints dead or cut off by faults
  bool detoured = false;  ///< true: left the dimension-ordered path
};

class TorusModel {
 public:
  explicit TorusModel(const machine::Partition& partition);

  /// Calls `visit` for every directed link on the dimension-ordered route
  /// from node a to node b. Returns hop count. Templated on the visitor so
  /// the per-dimension link runs are accounted in a tight inlined loop.
  template <typename Visit>
  std::int64_t route(std::int64_t node_a, std::int64_t node_b,
                     Visit&& visit) const {
    const auto& part = *partition_;
    Vec3i cur = part.coords_of_node(node_a);
    const Vec3i dst = part.coords_of_node(node_b);
    const Vec3i dims = part.torus_dims();
    std::int64_t hops = 0;
    for (int d = 0; d < 3; ++d) {
      const std::int64_t dim = dims[d];
      const std::int64_t fwd = (dst[d] - cur[d] + dim) % dim;
      const bool go_plus = fwd <= dim - fwd;  // prefer + on ties
      std::int64_t steps = go_plus ? fwd : dim - fwd;
      hops += steps;
      // One contiguous run along dimension d: only coordinate d changes.
      while (steps-- > 0) {
        visit(LinkId{part.node_of_coords(cur), d, go_plus ? 0 : 1});
        cur[d] = (cur[d] + (go_plus ? 1 : dim - 1)) % dim;
      }
    }
    PVR_ASSERT(cur == dst);
    return hops;
  }

  /// Fault-aware routing. Uses the dimension-ordered route when it is
  /// clean; otherwise finds the shortest live detour (deterministic BFS).
  /// `visit` sees the links actually traversed; nothing is visited when the
  /// destination is unreachable.
  template <typename Visit>
  FaultRoute route_with_faults(std::int64_t node_a, std::int64_t node_b,
                               const fault::FaultPlan& plan,
                               Visit&& visit) const {
    FaultRoute result;
    if (plan.empty()) {
      result.hops = route(node_a, node_b, visit);
      return result;
    }
    if (plan.node_failed(node_a) || plan.node_failed(node_b)) {
      result.reachable = false;
      return result;
    }
    if (node_a == node_b) return result;

    // Fast path: the dimension-ordered route, when every link on it is
    // alive.
    std::vector<LinkId> path;
    route(node_a, node_b, [&](const LinkId& l) { path.push_back(l); });
    bool clean = true;
    for (const LinkId& l : path) {
      if (!link_usable(l, plan)) {
        clean = false;
        break;
      }
    }
    if (!clean && !detour(node_a, node_b, plan, &path)) {
      result.reachable = false;
      return result;
    }
    for (const LinkId& l : path) visit(l);
    result.hops = std::int64_t(path.size());
    result.detoured = !clean;
    return result;
  }

  /// Neighbor of `node` one hop along `dim` in direction `dir` (0=+, 1=-).
  std::int64_t neighbor(std::int64_t node, int dim, int dir) const;

  /// True when the directed link and both of its endpoint nodes are alive.
  bool link_usable(const LinkId& link, const fault::FaultPlan& plan) const;

  /// Flat index of a directed link; links are numbered node*6 + dim*2 + dir.
  std::int64_t link_index(const LinkId& link) const {
    return link.node * 6 + link.dim * 2 + link.dir;
  }
  std::int64_t num_links() const { return partition_->num_nodes() * 6; }

  /// Models one bulk-synchronous exchange of point-to-point messages.
  /// `rounds` > 1 means the messages are issued in that many pipelined
  /// rounds (as two-phase I/O does), which divides the instantaneous
  /// congestion pressure without changing total per-message or wire costs.
  ExchangeCost exchange(std::span<const Transfer> transfers,
                        std::int64_t rounds = 1) const;

  /// Fault-aware exchange: routes detour around failed links/nodes (extra
  /// hops are charged), undeliverable messages cost their sender the
  /// configured retries and are dropped from the round. `plan` may be null
  /// (healthy pricing, identical to the two-argument overload); `stats`, if
  /// non-null, accumulates undeliverable/retry/reroute counters. `metrics`,
  /// if non-null, receives the round's network census: a message-size
  /// histogram, per-rank send/recv volume, per-link carried bytes, and the
  /// busiest-link gauge (net.* names; see DESIGN.md §7) — always recorded
  /// from the calling thread, so it never depends on the chunking, and
  /// with each family looked up once per exchange. `pool`, if non-null and
  /// multi-threaded, routes the transfers in parallel chunks; the priced
  /// cost is bit-identical to the serial run for any thread count.
  ExchangeCost exchange(std::span<const Transfer> transfers,
                        std::int64_t rounds, const fault::FaultPlan* plan,
                        fault::FaultStats* stats,
                        obs::MetricsRegistry* metrics = nullptr,
                        par::ThreadPool* pool = nullptr) const;

  /// Theoretical aggregate peak bandwidth (bytes/s) for a round of messages
  /// of the given size: every node injecting at link speed, derated only by
  /// the small-message efficiency curve. This is the "peak" line of Fig 4.
  double peak_aggregate_bandwidth(double message_bytes) const;

  /// Small-message link efficiency in (0, 1]: s / (s + s_half).
  double message_efficiency(double message_bytes) const;

  const machine::Partition& partition() const { return *partition_; }

 private:
  /// BFS over live links, fixed neighbor order (x+, x-, y+, y-, z+, z-) so
  /// the chosen shortest path is deterministic. Returns false when node_b
  /// is unreachable; otherwise fills `path` with the detour's links.
  bool detour(std::int64_t node_a, std::int64_t node_b,
              const fault::FaultPlan& plan, std::vector<LinkId>* path) const;

  const machine::Partition* partition_;
  /// Torus coordinates of every node, so the exchange reads a table
  /// instead of dividing twice per message endpoint.
  std::vector<Vec3i> coords_;
};

}  // namespace pvr::net
