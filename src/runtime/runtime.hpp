// Superstep (bulk-synchronous) rank runtime.
//
// Parallel algorithms in this library are phase-structured: every rank
// computes, then all ranks exchange messages, then every rank consumes its
// inbox. The runtime executes the per-rank code sequentially (deterministic,
// single process) while charging simulated time:
//
//   * compute phases cost the *maximum* of the per-rank durations (BSP),
//   * exchanges are priced by the torus contention model,
//   * collectives by the tree network model.
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

/// Per-rank send interface handed to the produce callback of an exchange.
class Sender {
 public:
  /// Sends a sized message without payload (valid in both modes; in execute
  /// mode only for algorithms that don't need the bytes delivered).
  void send(std::int64_t dst_rank, std::int32_t tag, std::int64_t bytes);
  /// Sends a message with payload (execute mode).
  void send(std::int64_t dst_rank, std::int32_t tag, Payload payload);

 private:
  friend class Runtime;
  Sender(std::int64_t src, std::int64_t num_ranks,
         std::vector<Message>* sink)
      : src_(src), num_ranks_(num_ranks), sink_(sink) {}
  std::int64_t src_;
  std::int64_t num_ranks_;
  std::vector<Message>* sink_;
};

/// Accumulated simulated time, split by category.
struct TimeLedger {
  double compute = 0.0;
  double exchange = 0.0;
  double collective = 0.0;
  double total() const { return compute + exchange + collective; }
};

class Runtime {
 public:
  Runtime(const machine::Partition& partition, Mode mode);

  Mode mode() const { return mode_; }
  std::int64_t num_ranks() const { return partition_->num_ranks(); }
  const machine::Partition& partition() const { return *partition_; }
  const net::TorusModel& torus() const { return torus_; }
  const net::TreeModel& tree() const { return tree_; }

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
  /// attached, every priced phase — exchange rounds, compute phases, tree
  /// collectives — emits a span with its full cost breakdown and advances
  /// the tracer's clock by the phase's modeled seconds; the torus feeds the
  /// tracer's metrics registry. Borrowed pointer; a null tracer (the
  /// default) makes all instrumentation free.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }
  obs::Tracer* tracer() const { return tracer_; }

  /// Attaches (or with nullptr detaches) a host thread pool. While attached,
  /// torus exchange pricing routes transfers in parallel, two-phase I/O
  /// plans build their file domains in parallel, and consumers that opt in
  /// via ConsumePolicy::kParallelRanks drain rank inboxes in parallel. All
  /// results stay bit-identical to the serial run (DESIGN.md §8). Borrowed
  /// pointer.
  void set_pool(par::ThreadPool* pool) { pool_ = pool; }
  par::ThreadPool* pool() const { return pool_; }
  /// True when an active fault plan marks the rank's node as failed.
  bool rank_failed(std::int64_t rank) const {
    return fault_plan_ != nullptr &&
           fault_plan_->rank_failed(rank, *partition_);
  }

  using ProduceFn = std::function<void(std::int64_t rank, Sender& out)>;
  using ConsumeFn =
      std::function<void(std::int64_t rank, std::span<const Message> inbox)>;

  /// How the consume callback may be driven when a thread pool is attached.
  /// kParallelRanks is an opt-in contract from the caller: consume(rank, ..)
  /// touches only rank-private (rank-indexed, pre-sized) state, so distinct
  /// ranks' inboxes may drain on different threads. Message order *within*
  /// one rank's inbox is unchanged either way, and rank inboxes are disjoint
  /// — the produced data is identical to a serial drain.
  enum class ConsumePolicy { kSerial, kParallelRanks };

  /// One communication superstep: every rank produces messages, the round is
  /// priced on the torus, and (in any mode) each receiving rank consumes its
  /// inbox in deterministic order. Returns the round's cost; also adds it to
  /// the ledger.
  net::ExchangeCost exchange(const ProduceFn& produce, const ConsumeFn& consume,
                             ConsumePolicy policy = ConsumePolicy::kSerial);

  /// Prices an explicit message list (schedule-driven phases that already
  /// built their messages). Consumes inboxes if `consume` is non-null.
  net::ExchangeCost exchange_messages(
      std::vector<Message> messages, const ConsumeFn& consume = nullptr,
      ConsumePolicy policy = ConsumePolicy::kSerial);

  /// Prices a payload-free transfer list (phases that only size their
  /// traffic, like the two-phase I/O shuffle): the same net.exchange span,
  /// args, and ledger charge as exchange_messages, with nothing delivered.
  /// `rounds` models pipelined issue (see TorusModel::exchange).
  net::ExchangeCost exchange_transfers(std::span<const net::Transfer> transfers,
                                       std::int64_t rounds = 1);

  /// Like exchange_messages, but priced as traffic overlapped with an
  /// enclosing phase: routing, serialization, contention, and fault
  /// handling all apply, but no synchronization-skew term is charged
  /// because the messages do not close a BSP round of their own — the
  /// enclosing stage's barrier does. Used by asynchronous protocols such
  /// as render-stage work stealing (pvr::steal).
  net::ExchangeCost exchange_messages_overlapped(
      std::vector<Message> messages, const ConsumeFn& consume = nullptr,
      ConsumePolicy policy = ConsumePolicy::kSerial);

  /// Compute phase: runs `body` on every rank; the phase costs the maximum
  /// of the reported per-rank durations. `body` returns its rank's modeled
  /// compute seconds.
  double compute(const std::function<double(std::int64_t rank)>& body);

  /// Collectives (semantics executed by the caller where needed; these
  /// charge time). bytes are per-rank payload sizes.
  double barrier();
  double allreduce(std::int64_t bytes);
  double broadcast(std::int64_t bytes);
  double gather(std::int64_t bytes_per_rank);

  const TimeLedger& ledger() const { return ledger_; }
  void reset_ledger() { ledger_ = {}; }

 private:
  net::ExchangeCost exchange_messages_impl(std::vector<Message> messages,
                                           const ConsumeFn& consume,
                                           ConsumePolicy policy,
                                           bool overlapped);
  /// The one pricing path: the net.exchange span, the torus price, and the
  /// ledger charge.
  net::ExchangeCost price_transfers(std::span<const net::Transfer> transfers,
                                    std::int64_t rounds, bool overlapped);
  double charge_collective(const char* name, std::int64_t bytes,
                           double seconds);

  const machine::Partition* partition_;
  Mode mode_;
  net::TorusModel torus_;
  net::TreeModel tree_;
  TimeLedger ledger_;
  const fault::FaultPlan* fault_plan_ = nullptr;
  fault::FaultStats* fault_stats_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  par::ThreadPool* pool_ = nullptr;
};

}  // namespace pvr::runtime
