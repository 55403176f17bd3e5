// Superstep (bulk-synchronous) rank runtime.
//
// Parallel algorithms in this library are phase-structured: all ranks
// exchange messages, then every receiving rank consumes its inbox. The
// runtime delivers the messages sequentially (deterministic, single
// process) while charging simulated time: exchanges are priced by the torus
// contention model, the barrier by the tree network model.
//
// Two modes share all code paths: kExecute moves real payload bytes between
// ranks (used by tests/examples at small scale to validate algorithm output);
// kModel moves only byte counts (used by the benchmark harness at full
// Blue Gene/P scale).
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "fault/fault_plan.hpp"
#include "machine/partition.hpp"
#include "net/torus.hpp"
#include "net/transfer.hpp"
#include "net/tree.hpp"
#include "obs/trace.hpp"
#include "par/thread_pool.hpp"
#include "runtime/message.hpp"
#include "util/error.hpp"

namespace pvr::runtime {

enum class Mode {
  kExecute,  ///< real payload movement + modeled time
  kModel,    ///< modeled time only; payloads are sized, not materialized
};

class Runtime {
 public:
  Runtime(const machine::Partition& partition, Mode mode);

  Mode mode() const { return mode_; }
  std::int64_t num_ranks() const { return partition_->num_ranks(); }
  const machine::Partition& partition() const { return *partition_; }

  /// Installs (or with nullptrs clears) a fault plan for subsequent phases.
  /// While a plan is active every exchange is priced fault-aware: routes
  /// detour around dead links/nodes, messages to or from failed ranks are
  /// reported undeliverable (the sender pays the configured retries) and
  /// are not delivered to `consume`. Pointers are borrowed; the caller
  /// keeps them alive until the plan is cleared. `stats` may be null.
  /// Note: delivery filtering is endpoint-based; a message cut off only by
  /// link faults still reaches `consume` in execute mode (its loss affects
  /// pricing and FaultStats, which is what model mode observes).
  void set_faults(const fault::FaultPlan* plan, fault::FaultStats* stats) {
    PVR_ASSERT(plan != nullptr || stats == nullptr);
    fault_plan_ = plan;
    fault_stats_ = stats;
  }
  const fault::FaultPlan* fault_plan() const { return fault_plan_; }
  fault::FaultStats* fault_stats() const { return fault_stats_; }

  /// Attaches (or with nullptr detaches) a simulated-clock tracer. While
  /// attached, every priced phase — exchange rounds and the barrier — emits
  /// a span with its full cost breakdown and advances the tracer's clock by
  /// the phase's modeled seconds; the torus feeds the tracer's metrics
  /// registry. Borrowed pointer; a null tracer (the default) makes all
  /// instrumentation free.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }
  obs::Tracer* tracer() const { return tracer_; }

  /// Attaches (or with nullptr detaches) a host thread pool. While attached,
  /// torus exchange pricing routes transfers in parallel, two-phase I/O
  /// plans build their file domains in parallel, and exchange_messages
  /// drains rank inboxes in parallel. All results stay bit-identical to the
  /// serial run (DESIGN.md §8). Borrowed pointer.
  void set_pool(par::ThreadPool* pool) { pool_ = pool; }
  par::ThreadPool* pool() const { return pool_; }
  /// True when an active fault plan marks the rank's node as failed.
  bool rank_failed(std::int64_t rank) const {
    return fault_plan_ != nullptr &&
           fault_plan_->rank_failed(rank, *partition_);
  }

  using ConsumeFn =
      std::function<void(std::int64_t rank, std::span<const Message> inbox)>;

  /// One communication superstep over an explicit message list: the round
  /// is priced on the torus and, if `consume` is non-null, each receiving
  /// rank consumes its inbox in deterministic (dst, src, tag) order, in any
  /// mode. Returns the round's cost.
  ///
  /// Rank-private contract: with a thread pool attached, distinct ranks'
  /// inboxes drain on different threads, so consume(rank, ..) must touch
  /// only state private to `rank` (rank-indexed, pre-sized). Message order
  /// *within* one rank's inbox is unchanged, and rank inboxes are disjoint,
  /// so the produced data is identical to a serial drain.
  net::ExchangeCost exchange_messages(std::vector<Message> messages,
                                      const ConsumeFn& consume = nullptr);

  /// Prices a payload-free transfer list (phases that only size their
  /// traffic, like the two-phase I/O shuffle): the same net.exchange span
  /// and args as exchange_messages, with nothing delivered.
  /// `rounds` models pipelined issue (see TorusModel::exchange).
  net::ExchangeCost exchange_transfers(std::span<const net::Transfer> transfers,
                                       std::int64_t rounds = 1);

  /// Like exchange_messages without delivery, but priced as traffic
  /// overlapped with an enclosing phase: routing, serialization,
  /// contention, and fault handling all apply, but no synchronization-skew
  /// term is charged because the messages do not close a BSP round of their
  /// own — the enclosing stage's barrier does. Used by asynchronous
  /// protocols such as render-stage work stealing (pvr::steal).
  net::ExchangeCost exchange_messages_overlapped(
      std::span<const Message> messages);

  /// Barrier across all ranks on the tree network; returns its modeled
  /// seconds (a tree.barrier span when traced).
  double barrier();

 private:
  /// The one pricing path: the net.exchange span and the torus price.
  net::ExchangeCost price_transfers(std::span<const net::Transfer> transfers,
                                    std::int64_t rounds, bool overlapped);

  const machine::Partition* partition_;
  Mode mode_;
  net::TorusModel torus_;
  net::TreeModel tree_;
  const fault::FaultPlan* fault_plan_ = nullptr;
  fault::FaultStats* fault_stats_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  par::ThreadPool* pool_ = nullptr;
};

}  // namespace pvr::runtime
