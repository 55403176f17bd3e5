// Unit tests for pvr::net — torus routing, exchange cost model, tree model,
// fault-aware routing and exchange pricing.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <vector>

#include "fault/fault_plan.hpp"
#include "machine/partition.hpp"
#include "net/torus.hpp"
#include "net/tree.hpp"
#include "par/thread_pool.hpp"
#include "util/rng.hpp"

namespace pvr::net {
namespace {

machine::Partition make_partition(std::int64_t ranks) {
  return machine::Partition(machine::MachineConfig{}, ranks);
}

/// Minimum hop count between two nodes on the partition's torus, going the
/// short way round each ring: the oracle for route lengths.
std::int64_t torus_hops(const machine::Partition& part, std::int64_t node_a,
                        std::int64_t node_b) {
  const Vec3i a = part.coords_of_node(node_a);
  const Vec3i b = part.coords_of_node(node_b);
  std::int64_t hops = 0;
  for (int d = 0; d < 3; ++d) {
    const std::int64_t dim = part.torus_dims()[d];
    const std::int64_t fwd = (b[d] - a[d] + dim) % dim;
    hops += std::min(fwd, dim - fwd);  // wraparound: go the short way
  }
  return hops;
}

TEST(PartitionTest, TorusHopsProperties) {
  // The oracle's own anchors on an 8x8x8 torus.
  const auto p = make_partition(512 * 4);
  // Self distance is zero; symmetry; wraparound shortcut.
  EXPECT_EQ(torus_hops(p, 0, 0), 0);
  for (std::int64_t a : {std::int64_t(0), std::int64_t(100),
                         std::int64_t(511)}) {
    for (std::int64_t b : {std::int64_t(1), std::int64_t(333)}) {
      EXPECT_EQ(torus_hops(p, a, b), torus_hops(p, b, a));
    }
  }
  // Neighbors along x.
  EXPECT_EQ(torus_hops(p, 0, 1), 1);
  // Wraparound: 0 -> 7 along x is one hop the short way.
  EXPECT_EQ(torus_hops(p, 0, 7), 1);
  // Maximum distance on an 8^3 torus is 4+4+4.
  std::int64_t max_hops = 0;
  for (std::int64_t n = 0; n < p.num_nodes(); n += 37) {
    max_hops = std::max(max_hops, torus_hops(p, 0, n));
  }
  EXPECT_LE(max_hops, 12);
}

TEST(TorusRoutingTest, HopCountMatchesTorusDistance) {
  const auto part = make_partition(512 * 4);  // 8x8x8 nodes
  const TorusModel torus(part);
  for (std::int64_t a = 0; a < part.num_nodes(); a += 97) {
    for (std::int64_t b = 0; b < part.num_nodes(); b += 131) {
      std::int64_t visited = 0;
      const std::int64_t hops =
          torus.route(a, b, [&](const LinkId&) { ++visited; });
      EXPECT_EQ(hops, visited);
      EXPECT_EQ(hops, torus_hops(part, a, b));
    }
  }
}

TEST(TorusRoutingTest, RouteLinksFormAPath) {
  const auto part = make_partition(512 * 4);
  const TorusModel torus(part);
  // Each visited link's source must be reachable: first link starts at a.
  std::vector<LinkId> links;
  torus.route(3, 400, [&](const LinkId& l) { links.push_back(l); });
  ASSERT_FALSE(links.empty());
  EXPECT_EQ(links.front().node, 3);
}

TEST(TorusRoutingTest, SelfRouteIsEmpty) {
  const auto part = make_partition(64);
  const TorusModel torus(part);
  std::int64_t visited = 0;
  EXPECT_EQ(torus.route(5, 5, [&](const LinkId&) { ++visited; }), 0);
  EXPECT_EQ(visited, 0);
}

TEST(TorusExchangeTest, EmptyExchangeIsFree) {
  const auto part = make_partition(64);
  const TorusModel torus(part);
  const ExchangeCost cost = torus.exchange({});
  EXPECT_DOUBLE_EQ(cost.seconds, 0.0);
  EXPECT_EQ(cost.messages, 0);
}

TEST(TorusExchangeTest, LocalMessagesAreCheap) {
  const auto part = make_partition(64);
  const TorusModel torus(part);
  // Ranks 0 and 1 share node 0.
  const std::vector<Transfer> local = {{0, 1, 1 << 20}};
  const std::vector<Transfer> remote = {{0, 63, 1 << 20}};
  const ExchangeCost lc = torus.exchange(local);
  const ExchangeCost rc = torus.exchange(remote);
  EXPECT_EQ(lc.local_messages, 1);
  EXPECT_EQ(rc.local_messages, 0);
  EXPECT_LT(lc.seconds, rc.seconds);
  EXPECT_EQ(lc.max_hops, 0);
  EXPECT_GT(rc.max_hops, 0);
}

TEST(TorusExchangeTest, BytesAreConserved) {
  const auto part = make_partition(256);
  const TorusModel torus(part);
  std::vector<Transfer> transfers;
  std::int64_t expect = 0;
  for (std::int64_t r = 0; r < 256; r += 7) {
    transfers.push_back({r, (r * 13 + 5) % 256, 1000 + r});
    expect += 1000 + r;
  }
  const ExchangeCost cost = torus.exchange(transfers);
  EXPECT_EQ(cost.total_bytes, expect);
  EXPECT_EQ(cost.messages, std::int64_t(transfers.size()));
}

TEST(TorusExchangeTest, MoreBytesCostMore) {
  const auto part = make_partition(256);
  const TorusModel torus(part);
  const std::vector<Transfer> small = {{0, 255, 10 * 1024}};
  const std::vector<Transfer> large = {{0, 255, 10 * 1024 * 1024}};
  EXPECT_LT(torus.exchange(small).seconds, torus.exchange(large).seconds);
}

TEST(TorusExchangeTest, SmallMessageFloodCollapses) {
  // The paper's core compositing observation: the same total bytes cost far
  // more as many tiny messages than as few large ones.
  const auto part = make_partition(4096);
  const TorusModel torus(part);
  std::vector<Transfer> few, many;
  // 4096 messages of 64 KiB vs 64x more messages of 1 KiB (same bytes).
  for (std::int64_t r = 0; r < 4096; ++r) {
    few.push_back({r, (r + 1234) % 4096, 64 * 1024});
    for (int j = 0; j < 64; ++j) {
      many.push_back({r, (r * 64 + j * 67 + 1) % 4096, 1024});
    }
  }
  const ExchangeCost cf = torus.exchange(few);
  const ExchangeCost cm = torus.exchange(many);
  EXPECT_EQ(cf.total_bytes, cm.total_bytes);
  EXPECT_GT(cm.seconds, 2.0 * cf.seconds);
  EXPECT_GT(cm.congestion_factor, cf.congestion_factor);
}

TEST(TorusExchangeTest, HotspotReceiverIsSlower) {
  const auto part = make_partition(1024);
  const TorusModel torus(part);
  // Same message population, but one version converges on a single node.
  std::vector<Transfer> spread, incast;
  for (std::int64_t r = 4; r < 260; ++r) {
    spread.push_back({r, (r + 512) % 1024, 32 * 1024});
    incast.push_back({r, 0, 32 * 1024});
  }
  EXPECT_GT(torus.exchange(incast).seconds,
            torus.exchange(spread).seconds);
}

TEST(TorusExchangeTest, MessageEfficiencyCurve) {
  const auto part = make_partition(64);
  const TorusModel torus(part);
  EXPECT_DOUBLE_EQ(torus.message_efficiency(0), 1.0);
  EXPECT_LT(torus.message_efficiency(256), torus.message_efficiency(4096));
  EXPECT_GT(torus.message_efficiency(1 << 20), 0.99);
}

TEST(TorusExchangeTest, PeakBandwidthScalesWithNodes) {
  const auto small = make_partition(256);
  const auto large = make_partition(4096);
  const TorusModel ts(small), tl(large);
  EXPECT_GT(tl.peak_aggregate_bandwidth(65536),
            ts.peak_aggregate_bandwidth(65536));
  EXPECT_LT(tl.peak_aggregate_bandwidth(128),
            tl.peak_aggregate_bandwidth(65536));
}

TEST(TorusExchangeTest, SkewGrowsWithPartition) {
  const auto small = make_partition(64);
  const auto large = make_partition(32768);
  const std::vector<Transfer> one = {{0, 1, 0}};
  // Both partitions place ranks 0,1 on node 0 -> local; the skew term still
  // reflects partition size.
  const ExchangeCost cs = TorusModel(small).exchange(one);
  const ExchangeCost cl = TorusModel(large).exchange(one);
  EXPECT_LT(cs.skew_seconds, cl.skew_seconds);
}

TEST(TorusRoutingTest, WraparoundTieBreakPrefersPlusDirection) {
  // 8x8x8 nodes: nodes 0 and 4 are equidistant both ways around the x ring
  // (4 hops each); the route must deterministically take the + direction.
  const auto part = make_partition(2048);
  ASSERT_EQ(part.torus_dims(), (Vec3i{8, 8, 8}));
  const TorusModel torus(part);
  std::vector<LinkId> links;
  const std::int64_t hops =
      torus.route(0, 4, [&](const LinkId& l) { links.push_back(l); });
  EXPECT_EQ(hops, 4);
  ASSERT_EQ(links.size(), 4u);
  for (const LinkId& l : links) {
    EXPECT_EQ(l.dim, 0);
    EXPECT_EQ(l.dir, 0);  // + on ties
  }
  // A strictly shorter backward path must still go backward (0 -> 6 is two
  // hops in -x, six in +x).
  links.clear();
  EXPECT_EQ(torus.route(0, 6, [&](const LinkId& l) { links.push_back(l); }),
            2);
  for (const LinkId& l : links) EXPECT_EQ(l.dir, 1);
}

TEST(TorusExchangeTest, ZeroByteMessageStillCostsTime) {
  // A zero-byte message crosses the network and pays software overhead,
  // latency, and skew — it is not free.
  const auto part = make_partition(64);
  const TorusModel torus(part);
  const std::vector<Transfer> transfers = {{0, 63, 0}};
  const ExchangeCost cost = torus.exchange(transfers);
  EXPECT_EQ(cost.messages, 1);
  EXPECT_EQ(cost.total_bytes, 0);
  EXPECT_GT(cost.seconds, 0.0);
  EXPECT_GT(cost.endpoint_seconds, 0.0);
}

TEST(TorusFaultTest, EmptyPlanRouteMatchesPlainRoute) {
  const auto part = make_partition(256);
  const TorusModel torus(part);
  const fault::FaultPlan empty;
  std::int64_t visited = 0;
  const FaultRoute fr =
      torus.route_with_faults(0, 37, empty, [&](const LinkId&) { ++visited; });
  EXPECT_TRUE(fr.reachable);
  EXPECT_FALSE(fr.detoured);
  EXPECT_EQ(fr.hops, torus.route(0, 37, [](const LinkId&) {}));
  EXPECT_EQ(fr.hops, visited);
}

TEST(TorusFaultTest, DetoursAroundAFailedLink) {
  const auto part = make_partition(256);  // 64 nodes, 4x4x4
  const TorusModel torus(part);
  fault::FaultPlan plan;
  plan.fail_link(0, 0, 0);  // the one-hop +x link 0 -> 1
  std::vector<LinkId> links;
  const FaultRoute fr = torus.route_with_faults(
      0, 1, plan, [&](const LinkId& l) { links.push_back(l); });
  EXPECT_TRUE(fr.reachable);
  EXPECT_TRUE(fr.detoured);
  EXPECT_EQ(fr.hops, 3);  // shortest live path around the dead link
  ASSERT_EQ(links.size(), 3u);
  EXPECT_EQ(links.front().node, 0);
  for (const LinkId& l : links) EXPECT_TRUE(torus.link_usable(l, plan));
}

TEST(TorusFaultTest, DeadNodeKillsItsLinks) {
  const auto part = make_partition(256);
  const TorusModel torus(part);
  fault::FaultPlan plan;
  plan.fail_node(1);
  // Outgoing links of the dead node and links into it are both unusable.
  EXPECT_FALSE(torus.link_usable(LinkId{1, 0, 0}, plan));
  EXPECT_FALSE(torus.link_usable(LinkId{0, 0, 0}, plan));  // 0 -> 1
  EXPECT_TRUE(torus.link_usable(LinkId{0, 1, 0}, plan));   // 0 -> 4 lives
}

TEST(TorusFaultTest, DeadEndpointIsUnreachable) {
  const auto part = make_partition(256);
  const TorusModel torus(part);
  fault::FaultPlan plan;
  plan.fail_node(1);
  std::int64_t visited = 0;
  const FaultRoute fr =
      torus.route_with_faults(0, 1, plan, [&](const LinkId&) { ++visited; });
  EXPECT_FALSE(fr.reachable);
  EXPECT_EQ(fr.hops, 0);
  EXPECT_EQ(visited, 0);
}

TEST(TorusFaultTest, ExchangeCountsUndeliverableAndChargesRetries) {
  const auto part = make_partition(64);  // 16 nodes; node 15 = ranks 60-63
  const TorusModel torus(part);
  fault::FaultPlan plan;
  plan.fail_node(15);
  fault::FaultStats stats;
  const std::vector<Transfer> transfers = {{0, 60, 4096}};
  const ExchangeCost cost = torus.exchange(transfers, 1, &plan, &stats);
  EXPECT_EQ(stats.undeliverable_messages, 1);
  EXPECT_EQ(stats.retries, plan.spec().max_retries);
  // The message never enters the round, but the live sender stalls.
  EXPECT_EQ(cost.messages, 0);
  EXPECT_EQ(cost.total_bytes, 0);
  EXPECT_DOUBLE_EQ(
      cost.retry_seconds,
      double(plan.spec().max_retries) * plan.spec().retry_timeout);
  EXPECT_GT(cost.seconds, 0.0);
}

TEST(TorusFaultTest, ExchangeWithEmptyPlanIsIdenticalToHealthy) {
  const auto part = make_partition(256);
  const TorusModel torus(part);
  std::vector<Transfer> transfers;
  for (std::int64_t r = 0; r < 256; r += 5) {
    transfers.push_back({r, (r * 31 + 7) % 256, 2000 + r});
  }
  const fault::FaultPlan empty;
  fault::FaultStats stats;
  const ExchangeCost healthy = torus.exchange(transfers);
  const ExchangeCost faulty = torus.exchange(transfers, 1, &empty, &stats);
  EXPECT_EQ(healthy.seconds, faulty.seconds);
  EXPECT_EQ(healthy.messages, faulty.messages);
  EXPECT_EQ(healthy.total_bytes, faulty.total_bytes);
  EXPECT_EQ(healthy.link_seconds, faulty.link_seconds);
  EXPECT_EQ(healthy.endpoint_seconds, faulty.endpoint_seconds);
  EXPECT_EQ(stats.undeliverable_messages, 0);
  EXPECT_EQ(stats.rerouted_messages, 0);
}

TEST(TorusFaultTest, DetouredExchangeChargesTheExtraHops) {
  const auto part = make_partition(256);
  const TorusModel torus(part);
  fault::FaultPlan plan;
  plan.fail_link(0, 0, 0);
  fault::FaultStats stats;
  const std::vector<Transfer> transfers = {{0, 4, 65536}};  // node 0 -> 1
  const ExchangeCost cost = torus.exchange(transfers, 1, &plan, &stats);
  EXPECT_EQ(stats.rerouted_messages, 1);
  EXPECT_EQ(stats.rerouted_hops, 3);
  EXPECT_EQ(cost.max_hops, 3);
  EXPECT_EQ(cost.messages, 1);
}

/// An exchange priced from per-hop routes: route()'s visitor for a healthy
/// exchange, route_with_faults()'s under a fault plan, one message at a
/// time. The reference the exchange's run tallies, ring-interval link
/// tallies and dense fault tables must reproduce bit for bit, with the
/// net.* metric families a traced exchange records.
struct HopReference {
  ExchangeCost cost;
  fault::FaultStats stats;
  std::map<std::int64_t, std::int64_t> link_bytes;  ///< links with traffic
  obs::Histogram message_bytes;  ///< delivered messages' sizes
  /// Delivered bytes by sending and by receiving rank.
  std::map<std::int64_t, std::int64_t> rank_send_bytes, rank_recv_bytes;
  /// Transfers by outcome: delivered over the dimension-ordered route,
  /// detoured, cut off by link faults, to or from a dead node, and
  /// delivered within one node.
  std::int64_t clean = 0, detoured = 0, cut_off = 0, dead_endpoint = 0;
  std::int64_t local = 0;
};

HopReference per_hop_exchange(const TorusModel& torus,
                              const std::vector<Transfer>& transfers,
                              std::int64_t rounds,
                              const fault::FaultPlan* plan = nullptr) {
  const machine::Partition& part = torus.partition();
  const machine::MachineConfig& cfg = part.config();
  const auto nodes = std::size_t(part.num_nodes());
  std::vector<std::int64_t> link_bytes(std::size_t(torus.num_links()));
  std::vector<std::int64_t> link_msgs(link_bytes.size());
  std::vector<std::int64_t> send_msgs(nodes), recv_msgs(nodes);
  std::vector<std::int64_t> send_bytes(nodes), recv_bytes(nodes);
  std::vector<std::int64_t> local_bytes(nodes), failed_sends(nodes);
  HopReference ref;
  ExchangeCost& c = ref.cost;
  double pressure_events = 0.0;
  for (const Transfer& t : transfers) {
    const auto src = std::size_t(part.node_of_rank(t.src_rank));
    const auto dst = std::size_t(part.node_of_rank(t.dst_rank));
    const auto charge = [&](const LinkId& l) {
      link_bytes[std::size_t(torus.link_index(l))] += t.bytes;
      ++link_msgs[std::size_t(torus.link_index(l))];
    };
    FaultRoute fr;
    if (plan != nullptr) {
      fr = torus.route_with_faults(std::int64_t(src), std::int64_t(dst),
                                   *plan, charge);
    } else {
      fr.hops = torus.route(std::int64_t(src), std::int64_t(dst), charge);
    }
    if (!fr.reachable) {
      // Undeliverable: a live sender burns every retry, then gives up.
      const bool src_dead = plan->node_failed(std::int64_t(src));
      ++(src_dead || plan->node_failed(std::int64_t(dst)) ? ref.dead_endpoint
                                                          : ref.cut_off);
      if (!src_dead) ++failed_sends[src];
      ++ref.stats.undeliverable_messages;
      ref.stats.retries += plan->spec().max_retries;
      continue;
    }
    if (fr.detoured) {
      ++ref.detoured;
      ++ref.stats.rerouted_messages;
      ref.stats.rerouted_hops += fr.hops;
    }
    ++c.messages;
    c.total_bytes += t.bytes;
    ref.message_bytes.record(t.bytes);
    ref.rank_send_bytes[t.src_rank] += t.bytes;
    ref.rank_recv_bytes[t.dst_rank] += t.bytes;
    pressure_events += 2.0 * cfg.small_msg_pressure_bytes /
                       (cfg.small_msg_pressure_bytes + double(t.bytes));
    if (src == dst) {
      ++ref.local;
      ++c.local_messages;
      local_bytes[src] += t.bytes;
      continue;
    }
    if (!fr.detoured) ++ref.clean;
    ++send_msgs[src];
    send_bytes[src] += t.bytes;
    ++recv_msgs[dst];
    recv_bytes[dst] += t.bytes;
    c.max_hops = std::max(c.max_hops, fr.hops);
  }
  const double pressure =
      pressure_events / double(nodes) / double(rounds);
  c.congestion_factor =
      1.0 + std::min(cfg.congestion_max,
                     std::pow(pressure / cfg.congestion_kappa,
                              cfg.congestion_gamma));
  for (std::size_t i = 0; i < link_bytes.size(); ++i) {
    if (link_msgs[i] == 0) continue;
    ref.link_bytes[std::int64_t(i)] = link_bytes[i];
    const double bytes = double(link_bytes[i]);
    const double bw = cfg.torus_link_bw *
                      torus.message_efficiency(bytes / double(link_msgs[i]));
    if (bytes / bw > c.link_seconds) {
      c.link_seconds = bytes / bw;
      c.bottleneck_link = std::int64_t(i);
    }
  }
  const double retry_penalty =
      plan == nullptr
          ? 0.0
          : double(plan->spec().max_retries) * plan->spec().retry_timeout;
  for (std::size_t n = 0; n < nodes; ++n) {
    const bool hot = double(recv_msgs[n]) > cfg.hotspot_indegree;
    const double msg_cost =
        cfg.msg_overhead * c.congestion_factor *
        (double(send_msgs[n]) +
         double(recv_msgs[n]) * (hot ? cfg.hotspot_factor : 1.0));
    const double wire =
        double(send_bytes[n] + recv_bytes[n]) / cfg.torus_link_bw +
        double(local_bytes[n]) / (4.0 * cfg.torus_link_bw);
    const double retry_seconds = double(failed_sends[n]) * retry_penalty;
    const double endpoint = msg_cost + wire + retry_seconds;
    if (endpoint > c.endpoint_seconds) {
      c.endpoint_seconds = endpoint;
      c.bottleneck_node = std::int64_t(n);
    }
    c.retry_seconds = std::max(c.retry_seconds, retry_seconds);
  }
  c.latency_seconds = cfg.torus_max_latency;
  c.skew_seconds =
      cfg.sync_skew_base +
      cfg.sync_skew_per_log2 * std::log2(std::max<double>(2.0, double(nodes)));
  c.seconds = std::max(c.link_seconds, c.endpoint_seconds) +
              c.latency_seconds + c.skew_seconds;
  return ref;
}

/// A seeded plan over `part`: one dead node (on partitions of three or
/// more nodes), a live node whose six outgoing links are all dead, and
/// about a tenth of all other links dead.
fault::FaultPlan seeded_plan(const machine::Partition& part,
                             std::uint64_t seed) {
  fault::FaultPlan plan;
  Rng rng{seed};
  const std::int64_t nodes = part.num_nodes();
  const auto pick = [&] {
    return std::int64_t(rng.next_below(std::uint64_t(nodes)));
  };
  std::int64_t dead = -1;
  if (nodes >= 3) {
    dead = pick();
    plan.fail_node(dead);
  }
  std::int64_t isolated = pick();
  while (isolated == dead) isolated = pick();
  for (int dim = 0; dim < 3; ++dim) {
    for (int dir = 0; dir < 2; ++dir) plan.fail_link(isolated, dim, dir);
  }
  for (std::int64_t node = 0; node < nodes; ++node) {
    for (int dim = 0; dim < 3; ++dim) {
      for (int dir = 0; dir < 2; ++dir) {
        if (rng.next_below(10) == 0) plan.fail_link(node, dim, dir);
      }
    }
  }
  return plan;
}

void expect_same_fault_stats(const fault::FaultStats& got,
                             const fault::FaultStats& want) {
  EXPECT_EQ(got.failed_nodes, want.failed_nodes);
  EXPECT_EQ(got.failed_links, want.failed_links);
  EXPECT_EQ(got.failed_ions, want.failed_ions);
  EXPECT_EQ(got.failed_servers, want.failed_servers);
  EXPECT_EQ(got.degraded_servers, want.degraded_servers);
  EXPECT_EQ(got.degraded_nodes, want.degraded_nodes);
  EXPECT_EQ(got.undeliverable_messages, want.undeliverable_messages);
  EXPECT_EQ(got.retries, want.retries);
  EXPECT_EQ(got.rerouted_messages, want.rerouted_messages);
  EXPECT_EQ(got.rerouted_hops, want.rerouted_hops);
  EXPECT_EQ(got.reassigned_partitions, want.reassigned_partitions);
  EXPECT_EQ(got.reassigned_aggregators, want.reassigned_aggregators);
  EXPECT_EQ(got.dropped_blocks, want.dropped_blocks);
  EXPECT_EQ(got.substituted_partners, want.substituted_partners);
  EXPECT_EQ(got.proxied_messages, want.proxied_messages);
  EXPECT_EQ(got.rerouted_clients, want.rerouted_clients);
  EXPECT_EQ(got.failover_extents, want.failover_extents);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.coverage),
            std::bit_cast<std::uint64_t>(want.coverage));
}

void expect_bitwise_equal(const ExchangeCost& got, const ExchangeCost& want) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  EXPECT_EQ(bits(got.seconds), bits(want.seconds));
  EXPECT_EQ(got.messages, want.messages);
  EXPECT_EQ(got.local_messages, want.local_messages);
  EXPECT_EQ(got.total_bytes, want.total_bytes);
  EXPECT_EQ(got.max_hops, want.max_hops);
  EXPECT_EQ(bits(got.congestion_factor), bits(want.congestion_factor));
  EXPECT_EQ(bits(got.link_seconds), bits(want.link_seconds));
  EXPECT_EQ(bits(got.endpoint_seconds), bits(want.endpoint_seconds));
  EXPECT_EQ(bits(got.latency_seconds), bits(want.latency_seconds));
  EXPECT_EQ(bits(got.skew_seconds), bits(want.skew_seconds));
  EXPECT_EQ(bits(got.retry_seconds), bits(want.retry_seconds));
  EXPECT_EQ(got.bottleneck_link, want.bottleneck_link);
  EXPECT_EQ(got.bottleneck_node, want.bottleneck_node);
}

TEST(TorusExchangeTest, LinkTalliesMatchPerHopRoutes) {
  // Torus dims of 1, 2, odd and even sizes: 1 node is 1x1x1, 2 is 1x1x2,
  // 12 is 2x2x3, 30 is 2x3x5, and 60 is 3x4x5. On dims of 1 and 2 the +
  // and - neighbors coincide. Enough transfers that the pooled exchange
  // splits them over several chunks. Each partition runs healthy and under
  // a seeded fault plan, whose transfers must cover every outcome.
  par::ThreadPool pool(3);
  HopReference outcomes;
  for (const std::int64_t nodes : {1, 2, 12, 30, 60}) {
    SCOPED_TRACE(nodes);
    const auto part = make_partition(nodes * 4);
    const TorusModel torus(part);
    const Vec3i dims = part.torus_dims();
    Rng rng{std::uint64_t(nodes)};
    std::vector<Transfer> transfers;
    const auto rank_on = [&](const Vec3i& c) {
      return part.node_of_coords(c) * 4 + std::int64_t(rng.next_below(4));
    };
    for (std::int64_t i = 0; i < 3 * 8 * torus.num_links() + 17; ++i) {
      const auto bytes = std::int64_t(rng.next_below(8192));
      const auto src = std::int64_t(rng.next_below(std::uint64_t(nodes * 4)));
      switch (i % 4) {
        case 0:  // src == dst
          transfers.push_back({src, src, bytes});
          break;
        case 1: {  // half-way round every ring: fwd == D - fwd where D is even
          Vec3i c = part.coords_of_node(part.node_of_rank(src));
          for (int d = 0; d < 3; ++d) c[d] = (c[d] + dims[d] / 2) % dims[d];
          transfers.push_back({src, rank_on(c), bytes});
          break;
        }
        default:
          transfers.push_back(
              {src, std::int64_t(rng.next_below(std::uint64_t(nodes * 4))),
               bytes});
      }
    }
    const std::int64_t rounds = 3;
    const fault::FaultPlan faults = seeded_plan(part, std::uint64_t(nodes));
    for (const fault::FaultPlan* plan :
         {static_cast<const fault::FaultPlan*>(nullptr), &faults}) {
      SCOPED_TRACE(plan == nullptr ? "healthy" : "faulty");
      const HopReference want =
          per_hop_exchange(torus, transfers, rounds, plan);
      if (plan != nullptr) {
        outcomes.clean += want.clean;
        outcomes.detoured += want.detoured;
        outcomes.cut_off += want.cut_off;
        outcomes.dead_endpoint += want.dead_endpoint;
        outcomes.local += want.local;
      }
      for (par::ThreadPool* p :
           {static_cast<par::ThreadPool*>(nullptr), &pool}) {
        SCOPED_TRACE(p == nullptr ? "serial" : "pool");
        obs::MetricsRegistry metrics;
        fault::FaultStats stats;
        const ExchangeCost got =
            torus.exchange(transfers, rounds, plan, &stats, &metrics, p);
        expect_bitwise_equal(got, want.cost);
        expect_same_fault_stats(stats, want.stats);
        EXPECT_EQ(metrics.indexed("net.link_bytes").by_index,
                  want.link_bytes);
      }
    }
  }
  EXPECT_GT(outcomes.clean, 0);
  EXPECT_GT(outcomes.detoured, 0);
  EXPECT_GT(outcomes.cut_off, 0);
  EXPECT_GT(outcomes.dead_endpoint, 0);
  EXPECT_GT(outcomes.local, 0);
}

/// All four net.* families of a traced exchange against the reference's.
void expect_same_metrics(const obs::MetricsRegistry& got,
                         const HopReference& want) {
  const auto& histograms = got.histograms();
  const auto& indexed = got.indexed_counters();
  ASSERT_EQ(histograms.count("net.message_bytes"), 1u);
  const obs::Histogram& sizes = histograms.at("net.message_bytes");
  EXPECT_TRUE(std::equal(std::begin(sizes.counts), std::end(sizes.counts),
                         std::begin(want.message_bytes.counts)));
  EXPECT_EQ(sizes.count, want.message_bytes.count);
  EXPECT_EQ(sizes.sum, want.message_bytes.sum);
  EXPECT_EQ(sizes.max_value, want.message_bytes.max_value);
  EXPECT_EQ(indexed.at("net.link_bytes").by_index, want.link_bytes);
  EXPECT_EQ(indexed.at("net.rank_send_bytes").by_index,
            want.rank_send_bytes);
  EXPECT_EQ(indexed.at("net.rank_recv_bytes").by_index,
            want.rank_recv_bytes);
}

TEST(TorusExchangeTest, RunsMatchPerHopRoutes) {
  // Transfers laid out as the two-phase shuffle and direct-send emit
  // them: runs of 1 to 2 x cores_per_node consecutive transfers between
  // the same two nodes, so ranks repeat inside a run, and the exchange
  // routes each run once. Runs include local ones and zero-byte
  // transfers, some straddle a chunk boundary, and under a seeded fault
  // plan some detour, are cut off or meet a dead endpoint. Two of the
  // partitions leave their last node half full, so runs to and from it
  // meet the rank range's clip to the partition.
  par::ThreadPool pool2(2), pool4(4);
  HopReference outcomes;
  std::int64_t straddling = 0, zero_byte_in_runs = 0;
  for (const std::int64_t ranks : {8, 46, 120, 238}) {
    SCOPED_TRACE(ranks);
    const auto part = make_partition(ranks);
    const TorusModel torus(part);
    const std::int64_t nodes = part.num_nodes();
    const std::int64_t cores = part.config().cores_per_node;
    Rng rng{std::uint64_t(ranks)};
    const auto rank_on = [&](std::int64_t node) {
      const std::int64_t first = node * cores;
      const std::int64_t on = std::min(cores, ranks - first);
      return first + std::int64_t(rng.next_below(std::uint64_t(on)));
    };
    const std::int64_t grain =
        std::max<std::int64_t>(64, 8 * torus.num_links());
    std::vector<Transfer> transfers;
    std::vector<std::int64_t> run_begin;
    while (std::int64_t(transfers.size()) < 3 * grain + 17) {
      const auto src = std::int64_t(rng.next_below(std::uint64_t(nodes)));
      const std::int64_t dst =
          run_begin.size() % 5 == 0
              ? src
              : std::int64_t(rng.next_below(std::uint64_t(nodes)));
      const auto length =
          1 + std::int64_t(rng.next_below(std::uint64_t(2 * cores)));
      run_begin.push_back(std::int64_t(transfers.size()));
      for (std::int64_t j = 0; j < length; ++j) {
        const std::int64_t bytes =
            rng.next_below(4) == 0 ? 0
                                   : std::int64_t(rng.next_below(8192));
        if (bytes == 0 && length > 1) ++zero_byte_in_runs;
        transfers.push_back({rank_on(src), rank_on(dst), bytes});
      }
    }
    const auto n = std::int64_t(transfers.size());
    run_begin.push_back(n);
    const par::ChunkPlan cp = par::plan_chunks(n, grain);
    ASSERT_GT(cp.count, 1);
    for (std::size_t r = 0; r + 1 < run_begin.size(); ++r) {
      for (std::int64_t c = 1; c < cp.count; ++c) {
        straddling += run_begin[r] < cp.begin(c) &&
                      cp.begin(c) < run_begin[r + 1];
      }
    }
    const std::int64_t rounds = 2;
    const fault::FaultPlan faults = seeded_plan(part, std::uint64_t(ranks));
    for (const fault::FaultPlan* plan :
         {static_cast<const fault::FaultPlan*>(nullptr), &faults}) {
      SCOPED_TRACE(plan == nullptr ? "healthy" : "faulty");
      const HopReference want =
          per_hop_exchange(torus, transfers, rounds, plan);
      if (plan != nullptr) {
        outcomes.clean += want.clean;
        outcomes.detoured += want.detoured;
        outcomes.cut_off += want.cut_off;
        outcomes.dead_endpoint += want.dead_endpoint;
        outcomes.local += want.local;
      }
      for (par::ThreadPool* p :
           {static_cast<par::ThreadPool*>(nullptr), &pool2, &pool4}) {
        SCOPED_TRACE(p == nullptr ? 1 : p->threads());
        obs::MetricsRegistry metrics;
        fault::FaultStats stats;
        const ExchangeCost got =
            torus.exchange(transfers, rounds, plan, &stats, &metrics, p);
        expect_bitwise_equal(got, want.cost);
        expect_same_fault_stats(stats, want.stats);
        expect_same_metrics(metrics, want);
      }
    }
  }
  EXPECT_GT(straddling, 0);
  EXPECT_GT(zero_byte_in_runs, 0);
  EXPECT_GT(outcomes.clean, 0);
  EXPECT_GT(outcomes.detoured, 0);
  EXPECT_GT(outcomes.cut_off, 0);
  EXPECT_GT(outcomes.dead_endpoint, 0);
  EXPECT_GT(outcomes.local, 0);
}

TEST(TorusExchangeDeathTest, RankPastTheLastNodeStillAborts) {
  // 10 ranks fill two nodes and half of a third. Rank 10 does not exist,
  // though division would place it on rank 9's node: a run to rank 9 must
  // not take it in, so node_of_rank's range check still sees it.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto part = make_partition(10);
  ASSERT_EQ(part.num_nodes(), 3);
  const TorusModel torus(part);
  const std::vector<Transfer> transfers = {{0, 9, 64}, {0, 10, 64}};
  EXPECT_DEATH((void)torus.exchange(transfers), "rank < num_ranks_");
}

TEST(TreeModelTest, DepthAndBarrier) {
  const auto part = make_partition(1024);  // 256 nodes -> depth 8
  const TreeModel tree(part);
  EXPECT_EQ(tree.depth(), 8);
  EXPECT_DOUBLE_EQ(tree.barrier(),
                   2.0 * 8 * part.config().tree_latency);
}

TEST(TreeModelTest, SingleNodeDepthIsOne) {
  const auto part = make_partition(1);
  const TreeModel tree(part);
  EXPECT_EQ(tree.depth(), 1);
}

}  // namespace
}  // namespace pvr::net
