#include "net/torus.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace pvr::net {

TorusModel::TorusModel(const machine::Partition& partition)
    : partition_(&partition) {
  coords_.reserve(std::size_t(partition.num_nodes()));
  for (std::int64_t node = 0; node < partition.num_nodes(); ++node) {
    coords_.push_back(partition.coords_of_node(node));
  }
}

std::int64_t TorusModel::neighbor(std::int64_t node, int dim, int dir) const {
  const auto& part = *partition_;
  Vec3i c = part.coords_of_node(node);
  const Vec3i dims = part.torus_dims();
  c[dim] = (c[dim] + (dir == 0 ? 1 : dims[dim] - 1)) % dims[dim];
  return part.node_of_coords(c);
}

bool TorusModel::link_usable(const LinkId& link,
                             const fault::FaultPlan& plan) const {
  if (plan.link_failed(link.node, link.dim, link.dir)) return false;
  if (plan.node_failed(link.node)) return false;
  return !plan.node_failed(neighbor(link.node, link.dim, link.dir));
}

bool TorusModel::detour(std::int64_t node_a, std::int64_t node_b,
                        const fault::FaultPlan& plan,
                        std::vector<LinkId>* path) const {
  const std::int64_t n = partition_->num_nodes();
  std::vector<std::int64_t> parent(std::size_t(n), -1);
  std::vector<std::int8_t> parent_link(std::size_t(n), -1);
  std::vector<std::int64_t> queue;
  queue.reserve(std::size_t(n));
  queue.push_back(node_a);
  parent[std::size_t(node_a)] = node_a;
  bool found = false;
  for (std::size_t head = 0; head < queue.size() && !found; ++head) {
    const std::int64_t cur = queue[head];
    for (int dim = 0; dim < 3 && !found; ++dim) {
      for (int dir = 0; dir < 2; ++dir) {
        const LinkId link{cur, dim, dir};
        if (!link_usable(link, plan)) continue;
        const std::int64_t nb = neighbor(cur, dim, dir);
        if (parent[std::size_t(nb)] >= 0) continue;
        parent[std::size_t(nb)] = cur;
        parent_link[std::size_t(nb)] = std::int8_t(dim * 2 + dir);
        if (nb == node_b) {
          found = true;
          break;
        }
        queue.push_back(nb);
      }
    }
  }
  if (!found) return false;
  path->clear();
  for (std::int64_t cur = node_b; cur != node_a;
       cur = parent[std::size_t(cur)]) {
    const int key = parent_link[std::size_t(cur)];
    path->push_back(LinkId{parent[std::size_t(cur)], key / 2, key % 2});
  }
  std::reverse(path->begin(), path->end());
  return true;
}

double TorusModel::message_efficiency(double message_bytes) const {
  const double s_half = partition_->config().half_bw_msg_bytes;
  // Guard the degenerate calibration s_half == 0 combined with a 0-byte
  // average message, which would otherwise produce 0/0 = NaN link seconds.
  if (message_bytes <= 0.0 || s_half <= 0.0) return 1.0;
  return message_bytes / (message_bytes + s_half);
}

double TorusModel::peak_aggregate_bandwidth(double message_bytes) const {
  const auto& cfg = partition_->config();
  return double(partition_->num_nodes()) * cfg.torus_link_bw *
         message_efficiency(message_bytes);
}

ExchangeCost TorusModel::exchange(std::span<const Transfer> transfers,
                                  std::int64_t rounds) const {
  return exchange(transfers, rounds, nullptr, nullptr);
}

ExchangeCost TorusModel::exchange(std::span<const Transfer> transfers,
                                  std::int64_t rounds,
                                  const fault::FaultPlan* plan,
                                  fault::FaultStats* stats,
                                  obs::MetricsRegistry* metrics,
                                  par::ThreadPool* pool) const {
  const auto& part = *partition_;
  const auto& cfg = part.config();
  const std::int64_t nodes = part.num_nodes();
  PVR_ASSERT(rounds >= 1);
  const bool faulty = plan != nullptr && !plan->empty();

  ExchangeCost cost;
  if (transfers.empty()) return cost;
  const std::int64_t n = std::int64_t(transfers.size());

  // Retry pricing is invariant per exchange: read the plan's spec once, not
  // per undeliverable message.
  std::int64_t max_retries = 0;
  double retry_penalty = 0.0;
  if (faulty) {
    const auto& spec = plan->spec();
    max_retries = spec.max_retries;
    retry_penalty = double(spec.max_retries) * spec.retry_timeout;
  }

  // Every tally is an integer, so per-chunk partials merge exactly: the
  // priced cost is bit-identical for any host thread count, including the
  // single-accumulator serial path below. The only floating-point sums of
  // the exchange (congestion pressure; the link/endpoint folds) run on the
  // calling thread in a fixed order either way.
  struct NodeLoad {
    std::int64_t send_msgs = 0, recv_msgs = 0;
    std::int64_t send_bytes = 0, recv_bytes = 0;
    std::int64_t local_bytes = 0;
    std::int64_t failed_sends = 0;  ///< undeliverable messages, live sender
  };
  struct LinkLoad {
    std::int64_t bytes = 0, msgs = 0;
  };
  struct Tally {
    /// Ring difference arrays until the prefix sum after the merge, then
    /// per-link totals.
    std::vector<LinkLoad> link;
    std::vector<NodeLoad> node;
    std::int64_t messages = 0, local_messages = 0, total_bytes = 0;
    std::int64_t max_hops = 0;
    std::int64_t undeliverable = 0, retries = 0;
    std::int64_t rerouted_messages = 0, rerouted_hops = 0;
  };
  const auto make_tally = [&] {
    Tally t;
    t.link.assign(static_cast<std::size_t>(num_links()), LinkLoad{});
    t.node.assign(static_cast<std::size_t>(nodes), NodeLoad{});
    return t;
  };

  // delivered[i]: transfer i entered the round. Only faulty exchanges can
  // drop messages; the flag replays the pressure and metrics passes in
  // transfer order on the calling thread.
  std::vector<std::uint8_t> delivered;
  if (faulty) delivered.assign(static_cast<std::size_t>(n), 1);

  // The fault plan compiled once per exchange into dense tables indexed
  // like link_index(): far[l] is the node at link l's far end, and
  // link_dead[l] is !link_usable(l). Healthy exchanges build none of them.
  const Vec3i dims = part.torus_dims();
  std::vector<std::uint8_t> node_dead, link_dead;
  std::vector<std::int64_t> far;
  if (faulty) {
    node_dead.resize(static_cast<std::size_t>(nodes));
    for (std::int64_t node = 0; node < nodes; ++node) {
      node_dead[static_cast<std::size_t>(node)] = plan->node_failed(node);
    }
    far.resize(static_cast<std::size_t>(num_links()));
    link_dead.resize(far.size());
    for (std::int64_t node = 0; node < nodes; ++node) {
      for (int d = 0; d < 3; ++d) {
        for (int dir = 0; dir < 2; ++dir) {
          Vec3i c = coords_[static_cast<std::size_t>(node)];
          c[d] = (c[d] + (dir == 0 ? 1 : dims[d] - 1)) % dims[d];
          const auto l =
              static_cast<std::size_t>(link_index({node, d, dir}));
          far[l] = part.node_of_coords(c);
          link_dead[l] = plan->link_failed(node, d, dir) ||
                         node_dead[static_cast<std::size_t>(node)] ||
                         node_dead[static_cast<std::size_t>(far[l])];
        }
      }
    }
  }

  // Run d of the dimension-ordered route from a to b, as route() takes
  // it: its hop count and direction (0 = +, 1 = -; + on ties).
  struct Run {
    std::int64_t steps;
    int dir;
  };
  const auto dor_run = [&](const Vec3i& a, const Vec3i& b, int d) {
    const std::int64_t dim = dims[d];
    const std::int64_t delta = b[d] - a[d];
    const std::int64_t fwd = delta < 0 ? delta + dim : delta;
    // Two selects rather than one branch: random traffic mispredicts it.
    const bool go_plus = fwd <= dim - fwd;
    return Run{go_plus ? fwd : dim - fwd, go_plus ? 0 : 1};
  };

  // Node numbering is linear in the coordinates, so position p of a
  // dimension-d ring is the ring's position-0 node plus p strides, the
  // strides read off Partition::node_of_coords. A dimension of size 1 has
  // no runs, so its stride stays 0.
  Vec3i stride{0, 0, 0};
  for (int d = 0; d < 3; ++d) {
    if (dims[d] < 2) continue;
    Vec3i unit{0, 0, 0};
    unit[d] = 1;
    stride[d] = part.node_of_coords(unit);
  }

  // Tallies k messages carrying `bytes` in all along the dimension-ordered
  // route from src to dst into `tally`'s difference arrays; returns its
  // hop count. A dimension-ordered route is at most one run per
  // dimension, and each run covers a cyclic interval [lo, lo + steps) of
  // positions on one ring of one (dim, dir). Run d's ring holds the
  // coordinates below d at the destination's and those above d at the
  // source's, exactly the nodes route() walks. The interval adds +k at lo
  // and -k one past its end, mod the ring; one that wraps past the ring's
  // last position adds +k at position 0 as well.
  const auto tally_runs = [&](std::int64_t src, std::int64_t dst,
                              std::int64_t k, std::int64_t bytes,
                              Tally& tally) {
    const Vec3i& a = coords_[static_cast<std::size_t>(src)];
    const Vec3i& b = coords_[static_cast<std::size_t>(dst)];
    std::int64_t node = src;  // on run d's ring, at position a[d]
    std::int64_t hops = 0;
    for (int d = 0; d < 3; ++d) {
      const std::int64_t dim = dims[d];
      const std::int64_t ring = node - a[d] * stride[d];  // position 0
      const Run run = dor_run(a, b, d);
      if (run.steps > 0) {
        hops += run.steps;
        const auto add = [&](std::int64_t pos, std::int64_t msgs,
                             std::int64_t sum) {
          LinkLoad& l = tally.link[static_cast<std::size_t>(
              link_index({ring + pos * stride[d], d, run.dir}))];
          l.bytes += sum;
          l.msgs += msgs;
        };
        std::int64_t lo = run.dir == 0 ? a[d] : a[d] - run.steps + 1;
        if (lo < 0) lo += dim;
        const std::int64_t end = lo + run.steps;
        const bool wraps = end >= dim;
        const std::int64_t past = wraps ? end - dim : end;
        PVR_ASSERT(lo >= 0 && lo < dim && past >= 0 && past < dim);
        add(lo, k, bytes);
        add(past, -k, -bytes);
        // A branch, not a +0 add: the +0 would touch one more cache line
        // per run (or chain on lo's), which measured slower.
        if (wraps) add(0, k, bytes);
      }
      node = ring + b[d] * stride[d];
    }
    return hops;
  };

  // True when no link on the dimension-ordered route from src to dst is
  // dead: route()'s hop walk, read from the dense tables.
  const auto route_clean = [&](std::int64_t src, std::int64_t dst) {
    const Vec3i& a = coords_[static_cast<std::size_t>(src)];
    const Vec3i& b = coords_[static_cast<std::size_t>(dst)];
    std::int64_t at = src;
    for (int d = 0; d < 3; ++d) {
      const Run run = dor_run(a, b, d);
      for (std::int64_t s = 0; s < run.steps; ++s) {
        const auto l = static_cast<std::size_t>(link_index({at, d, run.dir}));
        if (link_dead[l]) return false;
        at = far[l];
      }
    }
    return true;
  };

  // One detour link as a ring interval of one position: +k at the link and
  // -k at the same (dim, dir) link one position further round its ring,
  // which starts at the + neighbor. A link at the ring's last position
  // needs no -k: the prefix sum ends there.
  const auto tally_link = [&](std::int64_t link, std::int64_t k,
                              std::int64_t bytes, Tally& tally) {
    const std::int64_t node = link / 6;
    const int d = int(link % 6) / 2;
    LinkLoad& on = tally.link[static_cast<std::size_t>(link)];
    on.bytes += bytes;
    on.msgs += k;
    if (coords_[static_cast<std::size_t>(node)][d] + 1 < dims[d]) {
      const std::int64_t next =
          far[static_cast<std::size_t>(link_index({node, d, 0}))];
      LinkLoad& past =
          tally.link[static_cast<std::size_t>(next * 6 + link % 6)];
      past.bytes -= bytes;
      past.msgs -= k;
    }
  };

  // Detour search scratch, private to one chunk and sized on its first
  // detour: seen[node] == epoch marks a node this search discovered, and
  // via[node] is the link it was discovered over.
  struct Search {
    std::vector<std::uint32_t> seen;
    std::vector<std::int64_t> via;
    std::vector<std::int64_t> queue;
    std::uint32_t epoch = 0;
  };
  // detour()'s BFS over the dense tables: neighbors in the order x+, x-,
  // y+, y-, z+, z-, a node's parent set on its first discovery, and an
  // early exit at dst, so it finds the same path. Tallies that path's
  // links for k messages and returns its hop count, or -1 when dst is cut
  // off.
  const auto tally_detour = [&](std::int64_t src, std::int64_t dst,
                                std::int64_t k, std::int64_t bytes,
                                Tally& tally, Search& s) -> std::int64_t {
    if (s.seen.empty()) {
      s.seen.assign(static_cast<std::size_t>(nodes), 0);
      s.via.resize(static_cast<std::size_t>(nodes));
      s.queue.reserve(static_cast<std::size_t>(nodes));
    }
    const std::uint32_t epoch = ++s.epoch;
    s.queue.assign(1, src);
    s.seen[static_cast<std::size_t>(src)] = epoch;
    bool found = false;
    for (std::size_t head = 0; head < s.queue.size() && !found; ++head) {
      const std::int64_t first = link_index({s.queue[head], 0, 0});
      for (std::int64_t l = first; l < first + 6; ++l) {
        if (link_dead[static_cast<std::size_t>(l)]) continue;
        const std::int64_t nb = far[static_cast<std::size_t>(l)];
        if (s.seen[static_cast<std::size_t>(nb)] == epoch) continue;
        s.seen[static_cast<std::size_t>(nb)] = epoch;
        s.via[static_cast<std::size_t>(nb)] = l;
        if (nb == dst) {
          found = true;
          break;
        }
        s.queue.push_back(nb);
      }
    }
    if (!found) return -1;
    std::int64_t hops = 0;
    for (std::int64_t at = dst; at != src;
         at = s.via[static_cast<std::size_t>(at)] / 6) {
      tally_link(s.via[static_cast<std::size_t>(at)], k, bytes, tally);
      ++hops;
    }
    return hops;
  };

  // Routes k messages from node src to node dst, carrying `bytes` in all,
  // into `tally`: they share one route, so every tally adds k (or their
  // byte sum) where one message would add 1 (or its bytes). Returns false
  // when they are undeliverable.
  const auto process = [&](std::int64_t src, std::int64_t dst,
                           std::int64_t k, std::int64_t bytes, Tally& tally,
                           Search& search) -> bool {
    std::int64_t hops = 0;
    bool detoured = false;
    if (faulty) {
      // A message to (or from) a dead rank, or one cut off from its
      // destination by link faults, never enters the round: a live sender
      // burns its retry attempts discovering this, then gives up.
      const bool src_dead = node_dead[static_cast<std::size_t>(src)] != 0;
      bool undeliverable =
          src_dead || node_dead[static_cast<std::size_t>(dst)] != 0;
      if (!undeliverable && src != dst && !route_clean(src, dst)) {
        detoured = true;
        hops = tally_detour(src, dst, k, bytes, tally, search);
        undeliverable = hops < 0;
      }
      if (undeliverable) {
        if (!src_dead) {
          tally.node[static_cast<std::size_t>(src)].failed_sends += k;
        }
        tally.undeliverable += k;
        tally.retries += k * max_retries;
        return false;
      }
      if (detoured) {
        tally.rerouted_messages += k;
        tally.rerouted_hops += k * hops;
      }
    }
    tally.messages += k;
    tally.total_bytes += bytes;
    if (src == dst) {
      tally.local_messages += k;
      tally.node[static_cast<std::size_t>(src)].local_bytes += bytes;
      return true;
    }
    auto& sl = tally.node[static_cast<std::size_t>(src)];
    auto& dl = tally.node[static_cast<std::size_t>(dst)];
    sl.send_msgs += k;
    sl.send_bytes += bytes;
    dl.recv_msgs += k;
    dl.recv_bytes += bytes;
    if (!detoured) hops = tally_runs(src, dst, k, bytes, tally);
    tally.max_hops = std::max(tally.max_hops, hops);
    return true;
  };

  // Routes transfers [begin, end) into `tally` as runs of consecutive
  // transfers between the same two nodes, one route per run. Only a run's
  // first transfer divides to find its nodes; the rest compare their ranks
  // with the nodes' rank ranges, clipped to the partition, so a rank past
  // the last one still starts a run of its own and fails node_of_rank's
  // range check.
  const std::int64_t cores = cfg.cores_per_node;
  const std::int64_t ranks = part.num_ranks();
  const auto route_range = [&](std::int64_t begin, std::int64_t end,
                               Tally& tally, Search& search) {
    for (std::int64_t i = begin; i < end;) {
      const Transfer& first = transfers[std::size_t(i)];
      const std::int64_t src = part.node_of_rank(first.src_rank);
      const std::int64_t dst = part.node_of_rank(first.dst_rank);
      const std::int64_t src_lo = src * cores;
      const std::int64_t src_hi = std::min(src_lo + cores, ranks);
      const std::int64_t dst_lo = dst * cores;
      const std::int64_t dst_hi = std::min(dst_lo + cores, ranks);
      const auto same_nodes = [&](const Transfer& t) {
        return t.src_rank >= src_lo && t.src_rank < src_hi &&
               t.dst_rank >= dst_lo && t.dst_rank < dst_hi;
      };
      std::int64_t j = i;
      std::int64_t bytes = 0;
      do {
        const Transfer& t = transfers[std::size_t(j)];
        PVR_ASSERT(t.bytes >= 0);
        bytes += t.bytes;
        ++j;
      } while (j < end && same_nodes(transfers[std::size_t(j)]));
      if (!process(src, dst, j - i, bytes, tally, search)) {
        std::fill(delivered.begin() + i, delivered.begin() + j,
                  std::uint8_t{0});
      }
      i = j;
    }
  };

  // Chunk boundaries depend only on n and the partition, never on the
  // thread count (DESIGN.md §8); a run that straddles one is routed as two
  // runs, whose integer tallies sum to the same totals. Every chunk
  // zero-fills and merges a private tally of the whole torus, so it takes
  // at least 8 transfers per link to keep that below its routing. One
  // grain serves healthy and faulty exchanges alike: a faulty run only
  // reads a table per hop to check its route and, rarely, searches a
  // detour, so a finer grain would buy little speed for up to kMaxChunks
  // tallies alive at once.
  const par::ChunkPlan cp =
      par::plan_chunks(n, std::max<std::int64_t>(64, 8 * num_links()));
  Tally total = make_tally();
  if (pool == nullptr || pool->threads() <= 1 || cp.count <= 1) {
    Search search;
    route_range(0, n, total, search);
  } else {
    std::vector<Tally> parts(static_cast<std::size_t>(cp.count));
    pool->run_chunks(cp.count, [&](std::int64_t c) {
      Tally t = make_tally();
      Search search;
      route_range(cp.begin(c), cp.end(c, n), t, search);
      parts[static_cast<std::size_t>(c)] = std::move(t);
    });
    for (const Tally& t : parts) {
      for (std::size_t i = 0; i < total.link.size(); ++i) {
        total.link[i].bytes += t.link[i].bytes;
        total.link[i].msgs += t.link[i].msgs;
      }
      for (std::size_t i = 0; i < total.node.size(); ++i) {
        total.node[i].send_msgs += t.node[i].send_msgs;
        total.node[i].recv_msgs += t.node[i].recv_msgs;
        total.node[i].send_bytes += t.node[i].send_bytes;
        total.node[i].recv_bytes += t.node[i].recv_bytes;
        total.node[i].local_bytes += t.node[i].local_bytes;
        total.node[i].failed_sends += t.node[i].failed_sends;
      }
      total.messages += t.messages;
      total.local_messages += t.local_messages;
      total.total_bytes += t.total_bytes;
      total.max_hops = std::max(total.max_hops, t.max_hops);
      total.undeliverable += t.undeliverable;
      total.retries += t.retries;
      total.rerouted_messages += t.rerouted_messages;
      total.rerouted_hops += t.rerouted_hops;
    }
  }
  // Prefix-sum every ring's difference arrays into per-link totals,
  // walking each ring from position 0.
  for (std::int64_t node = 0; node < nodes; ++node) {
    const Vec3i& first = coords_[static_cast<std::size_t>(node)];
    for (int d = 0; d < 3; ++d) {
      if (first[d] != 0) continue;
      Vec3i at = first;
      for (int dir = 0; dir < 2; ++dir) {
        LinkLoad sum{};
        for (at[d] = 0; at[d] < dims[d]; ++at[d]) {
          LinkLoad& l = total.link[static_cast<std::size_t>(
              link_index({part.node_of_coords(at), d, dir}))];
          sum.bytes += l.bytes;
          sum.msgs += l.msgs;
          l = sum;
        }
      }
    }
  }

  cost.messages = total.messages;
  cost.local_messages = total.local_messages;
  cost.total_bytes = total.total_bytes;
  cost.max_hops = total.max_hops;
  if (stats != nullptr) {
    stats->undeliverable_messages += total.undeliverable;
    stats->retries += total.retries;
    stats->rerouted_messages += total.rerouted_messages;
    stats->rerouted_hops += total.rerouted_hops;
  }

  // Congestion collapse factor from the global message pressure: the
  // smallness-weighted message events per node, per pipelined round.
  // Summed over transfers in order on the calling thread (the only
  // non-associative per-message accumulation of the exchange).
  double pressure_events = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    if (faulty && delivered[std::size_t(i)] == 0) continue;
    pressure_events +=
        2.0 * cfg.small_msg_pressure_bytes /
        (cfg.small_msg_pressure_bytes + double(transfers[std::size_t(i)].bytes));
  }
  const double pressure = pressure_events / double(nodes) / double(rounds);
  cost.congestion_factor =
      1.0 + std::min(cfg.congestion_max,
                     std::pow(pressure / cfg.congestion_kappa,
                              cfg.congestion_gamma));

  if (metrics != nullptr && cost.messages > 0) {
    // Per-message census, replayed in transfer order on the calling thread
    // (metrics are not thread-safe and must not depend on chunk timing).
    // Each family is looked up once; per-rank volumes fold in dense arrays
    // (-1: no delivered message) and enter the registry once per rank that
    // sent or received one, in rank order, zero-byte messages included.
    obs::Histogram& sizes = metrics->histogram("net.message_bytes");
    std::vector<std::int64_t> sent(static_cast<std::size_t>(ranks), -1);
    std::vector<std::int64_t> received(sent.size(), -1);
    const auto fold = [](std::int64_t& volume, std::int64_t bytes) {
      volume = std::max<std::int64_t>(volume, 0) + bytes;
    };
    for (std::int64_t i = 0; i < n; ++i) {
      if (faulty && delivered[std::size_t(i)] == 0) continue;
      const Transfer& t = transfers[std::size_t(i)];
      sizes.record(t.bytes);
      fold(sent[static_cast<std::size_t>(t.src_rank)], t.bytes);
      fold(received[static_cast<std::size_t>(t.dst_rank)], t.bytes);
    }
    obs::IndexedCounter& send = metrics->indexed("net.rank_send_bytes");
    obs::IndexedCounter& recv = metrics->indexed("net.rank_recv_bytes");
    for (std::int64_t r = 0; r < ranks; ++r) {
      const auto at = static_cast<std::size_t>(r);
      if (sent[at] >= 0) send.add(r, sent[at]);
      if (received[at] >= 0) recv.add(r, received[at]);
    }
  }

  // Worst per-link serialization, derated by small-message efficiency.
  double worst_link = 0.0;
  double busiest_link_bytes = 0.0;
  for (std::size_t i = 0; i < total.link.size(); ++i) {
    if (total.link[i].msgs == 0) continue;
    const double bytes = double(total.link[i].bytes);
    const double avg_msg = bytes / double(total.link[i].msgs);
    const double bw = cfg.torus_link_bw * message_efficiency(avg_msg);
    if (bytes / bw > worst_link) {  // strict: lowest link id wins ties
      worst_link = bytes / bw;
      cost.bottleneck_link = std::int64_t(i);
    }
    busiest_link_bytes = std::max(busiest_link_bytes, bytes);
    if (metrics != nullptr) {
      metrics->indexed("net.link_bytes")
          .add(std::int64_t(i), total.link[i].bytes);
    }
  }
  cost.link_seconds = worst_link;
  if (metrics != nullptr) {
    metrics->counter("net.messages").add(cost.messages);
    metrics->counter("net.local_messages").add(cost.local_messages);
    metrics->counter("net.bytes").add(cost.total_bytes);
    metrics->counter("net.exchanges").add(1);
    metrics->gauge("net.busiest_link_bytes").max(busiest_link_bytes);
    metrics->gauge("net.max_congestion_factor").max(cost.congestion_factor);
  }

  // Worst per-node endpoint time: per-message software overhead (scaled by
  // congestion and, on hot receivers, the hot-spot penalty) plus injection /
  // extraction serialization at link bandwidth. Local (intra-node) copies
  // are charged at memory-copy speed approximated by 4x link bandwidth.
  // Senders that retried undeliverable messages stall for those attempts
  // before the round can close (BSP).
  double worst_endpoint = 0.0;
  const double local_copy_bw = 4.0 * cfg.torus_link_bw;
  for (std::size_t node_id = 0; node_id < total.node.size(); ++node_id) {
    const NodeLoad& nl = total.node[node_id];
    const bool hot = double(nl.recv_msgs) > cfg.hotspot_indegree;
    const double hot_factor = hot ? cfg.hotspot_factor : 1.0;
    const double msg_cost = cfg.msg_overhead * cost.congestion_factor *
                            (double(nl.send_msgs) +
                             double(nl.recv_msgs) * hot_factor);
    const double wire =
        double(nl.send_bytes + nl.recv_bytes) / cfg.torus_link_bw +
        double(nl.local_bytes) / local_copy_bw;
    const double retry_seconds = double(nl.failed_sends) * retry_penalty;
    const double endpoint = msg_cost + wire + retry_seconds;
    if (endpoint > worst_endpoint) {  // strict: lowest node id wins ties
      worst_endpoint = endpoint;
      cost.bottleneck_node = std::int64_t(node_id);
    }
    cost.retry_seconds = std::max(cost.retry_seconds, retry_seconds);
  }
  cost.endpoint_seconds = worst_endpoint;

  cost.latency_seconds = cfg.torus_max_latency;
  cost.skew_seconds =
      cfg.sync_skew_base +
      cfg.sync_skew_per_log2 * std::log2(std::max<double>(2.0, double(nodes)));

  cost.seconds = std::max(cost.link_seconds, cost.endpoint_seconds) +
                 cost.latency_seconds + cost.skew_seconds;
  return cost;
}

}  // namespace pvr::net
