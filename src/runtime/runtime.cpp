#include "runtime/runtime.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace pvr::runtime {

Runtime::Runtime(const machine::Partition& partition, Mode mode)
    : partition_(&partition), mode_(mode), torus_(partition),
      tree_(partition) {}

namespace {

std::vector<net::Transfer> transfers_of(std::span<const Message> messages) {
  std::vector<net::Transfer> transfers;
  transfers.reserve(messages.size());
  for (const Message& m : messages) {
    transfers.push_back(net::Transfer{m.src_rank, m.dst_rank, m.bytes});
  }
  return transfers;
}

}  // namespace

net::ExchangeCost Runtime::exchange_messages_overlapped(
    std::span<const Message> messages) {
  return price_transfers(transfers_of(messages), /*rounds=*/1,
                         /*overlapped=*/true);
}

net::ExchangeCost Runtime::exchange_transfers(
    std::span<const net::Transfer> transfers, std::int64_t rounds) {
  return price_transfers(transfers, rounds, /*overlapped=*/false);
}

net::ExchangeCost Runtime::price_transfers(
    std::span<const net::Transfer> transfers, std::int64_t rounds,
    bool overlapped) {
  obs::ScopedSpan span(tracer_, "net.exchange", obs::Category::kExchange);
  const fault::FaultStats fault_before =
      (tracer_ != nullptr && fault_stats_ != nullptr) ? *fault_stats_
                                                      : fault::FaultStats{};
  net::ExchangeCost cost =
      torus_.exchange(transfers, rounds, fault_plan_, fault_stats_,
                      tracer_ != nullptr ? &tracer_->metrics() : nullptr,
                      pool_);
  if (overlapped) {
    // Overlapped traffic rides inside an enclosing phase: it pays routing,
    // serialization, and contention, but not the barrier-close skew.
    cost.seconds -= cost.skew_seconds;
    cost.skew_seconds = 0.0;
  }
  if (tracer_ != nullptr) {
    span.arg("messages", double(cost.messages));
    span.arg("local_messages", double(cost.local_messages));
    span.arg("bytes", double(cost.total_bytes));
    span.arg("rounds", double(rounds));
    span.arg("max_hops", double(cost.max_hops));
    span.arg("congestion_factor", cost.congestion_factor);
    span.arg("link_seconds", cost.link_seconds);
    span.arg("endpoint_seconds", cost.endpoint_seconds);
    span.arg("latency_seconds", cost.latency_seconds);
    span.arg("skew_seconds", cost.skew_seconds);
    span.arg("bottleneck_link", double(cost.bottleneck_link));
    span.arg("bottleneck_node", double(cost.bottleneck_node));
    if (overlapped) span.arg("overlapped", 1.0);
    if (fault_stats_ != nullptr) {
      // Per-round recovery deltas: what this exchange spent on faults.
      span.arg("retry_seconds", cost.retry_seconds);
      span.arg("rerouted_messages",
               double(fault_stats_->rerouted_messages -
                      fault_before.rerouted_messages));
      span.arg("undeliverable_messages",
               double(fault_stats_->undeliverable_messages -
                      fault_before.undeliverable_messages));
    }
    tracer_->advance(cost.seconds);
  }
  return cost;
}

net::ExchangeCost Runtime::exchange_messages(std::vector<Message> messages,
                                             const ConsumeFn& consume) {
  const net::ExchangeCost cost = price_transfers(
      transfers_of(messages), /*rounds=*/1, /*overlapped=*/false);

  if (consume != nullptr) {
    if (fault_plan_ != nullptr && !fault_plan_->empty()) {
      // Undeliverable messages (dead sender or receiver) never reach an
      // inbox; the torus exchange already charged the sender's retries.
      // Compositors that recover by partner substitution re-address their
      // messages to live proxies *before* submitting them, so substituted
      // traffic passes this filter untouched.
      std::erase_if(messages, [&](const Message& m) {
        return rank_failed(m.src_rank) || rank_failed(m.dst_rank);
      });
    }
    std::stable_sort(messages.begin(), messages.end(), MessageOrder{});
    // Group the sorted inbox by destination rank. Groups are disjoint, and
    // the message order within each group is the deterministic sorted order
    // on any number of threads. A proxy standing in for several dead ranks
    // simply sees one larger inbox here: grouping by dst_rank is already
    // substitution-aware, and ties (same dst, src, tag) keep their serial
    // production order via the stable sort.
    struct Group {
      std::size_t begin, count;
    };
    std::vector<Group> groups;
    std::size_t i = 0;
    while (i < messages.size()) {
      std::size_t j = i;
      while (j < messages.size() &&
             messages[j].dst_rank == messages[i].dst_rank) {
        ++j;
      }
      groups.push_back(Group{i, j - i});
      i = j;
    }
    if (pool_ != nullptr && pool_->threads() > 1) {
      par::parallel_for(
          pool_, std::int64_t(groups.size()), /*min_grain=*/1,
          [&](std::int64_t begin, std::int64_t end, std::int64_t) {
            for (std::int64_t g = begin; g < end; ++g) {
              const Group& grp = groups[std::size_t(g)];
              consume(messages[grp.begin].dst_rank,
                      std::span<const Message>(&messages[grp.begin],
                                               grp.count));
            }
          });
    } else {
      for (const Group& grp : groups) {
        consume(messages[grp.begin].dst_rank,
                std::span<const Message>(&messages[grp.begin], grp.count));
      }
    }
  }
  return cost;
}

double Runtime::barrier() {
  const double seconds = tree_.barrier();
  if (tracer_ != nullptr) {
    obs::ScopedSpan span(tracer_, "tree.barrier", obs::Category::kCollective);
    span.arg("bytes", 0.0);
    span.arg("tree_depth", double(tree_.depth()));
    tracer_->metrics().counter("tree.collectives").add(1);
    // A barrier moves no payload; the counter keeps its key in exports.
    tracer_->metrics().counter("tree.bytes").add(0);
    tracer_->advance(seconds);
  }
  return seconds;
}

}  // namespace pvr::runtime
