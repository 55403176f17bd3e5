// Render-stage work stealing: collapse the BSP straggler tail under
// degraded-but-alive compute nodes (DESIGN.md §6, "Work stealing").
//
// The paper's pipeline charges the render phase at the slowest rank's pace,
// so one thermally-throttled node stretches the whole frame. The Distributed
// FrameBuffer line of work (Usher et al., PAPERS.md) shows the cure is
// dynamic ownership: work migrates to idle ranks instead of the frame
// waiting on stragglers. This module plans that migration *deterministically*
// — a steal schedule is a pure function of (block work, per-rank slowdowns,
// config), never of host threads or a clock — so frames stay bit-identical
// across PVR_THREADS and reproducible across runs.
//
// Granularity is the scanline chunk: each block's screen footprint is cut
// into `chunks_per_block` row bands, and idle ranks claim bands from the
// tail of the slowest live rank's footprint (the victim keeps a row prefix,
// so per-block merges are contiguous). Two active policies share the
// schedule and differ only in what the claim costs on the wire:
//
//   * kScanlineChunks — the thief receives only a small claim descriptor
//     (the victim streams fragments into compositing as usual);
//   * kReplicateBlocks — the thief re-replicates the victim's whole block
//     (ghost included) before rendering its bands; the block bytes are
//     priced as real torus messages, detouring around dead links when a
//     fault plan is armed.
//
// Dead ranks are never victims (their data is gone — that is the
// checkpoint/restart story) and never thieves; stealing only rebalances
// work among the live ranks, weighted by each rank's degrade slowdown.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "machine/config.hpp"

namespace pvr::steal {

enum class StealPolicy {
  kOff,             ///< no stealing; the baseline BSP straggler stands
  kScanlineChunks,  ///< thieves claim footprint row bands, data stays put
  kReplicateBlocks, ///< claims ship the whole block's bytes to the thief
};

const char* to_string(StealPolicy policy);

struct StealConfig {
  StealPolicy policy = StealPolicy::kOff;
  /// Scanline chunks a block's footprint is cut into: the steal granularity.
  /// More chunks balance finer at more claim messages.
  int chunks_per_block = 16;
  /// Wire size of one claim descriptor (victim -> thief control message).
  std::int64_t claim_bytes = 64;

  bool enabled() const { return policy != StealPolicy::kOff; }
};

/// Fail-loud validation; throws pvr::Error naming the offending field.
void validate(const StealConfig& config);

/// Per-block render work as the planner sees it: who owns the block, how
/// many modeled ray samples it costs, how many screen rows its footprint
/// spans (the stealable unit), and how many bytes re-replicating it moves.
struct BlockWork {
  std::int64_t block = 0;
  std::int64_t owner = 0;    ///< owning rank
  std::int64_t samples = 0;  ///< modeled ray samples in the block
  std::int64_t rows = 0;     ///< scanline rows of the screen footprint
  std::int64_t bytes = 0;    ///< block bytes (ghost incl.) for replication
};

/// One planned steal: the thief renders footprint rows [row_begin, row_end)
/// of the victim's block. Adjacent same-thief chunks are merged, so claims
/// of one block have disjoint, ascending row ranges.
struct StealClaim {
  std::int64_t block = 0;
  std::int64_t victim = 0;
  std::int64_t thief = 0;
  std::int64_t row_begin = 0;
  std::int64_t row_end = 0;
  std::int64_t samples = 0;  ///< modeled samples migrating with the claim
};

/// One whole-block copy under kReplicateBlocks: the block's bytes (ghost
/// included) shipped victim -> thief before the thief renders its bands.
struct StealReplica {
  std::int64_t block = 0;
  std::int64_t victim = 0;
  std::int64_t thief = 0;
  std::int64_t bytes = 0;
};

/// A deterministic steal schedule plus the load-balance accounting that
/// motivates it. Straggler ratios compare the worst live rank's weighted
/// render time against the water-filling ideal (total samples spread over
/// live ranks in proportion to their speed): 1.0 is perfectly balanced.
struct StealSchedule {
  std::vector<StealClaim> claims;  ///< sorted by (block, row_begin)
  std::int64_t chunks_stolen = 0;  ///< chunk moves before merging
  /// kReplicateBlocks: one replica per distinct (block, thief) pair, in
  /// claim order, from the victim of the pair's first claim. Empty under
  /// kScanlineChunks.
  std::vector<StealReplica> replicas;
  /// Bytes the schedule re-replicates: the replicas' sum.
  std::int64_t bytes_replicated = 0;
  double straggler_before = 1.0;  ///< worst/ideal before stealing
  double straggler_after = 1.0;   ///< worst/ideal after the schedule
  /// Worst live rank's weighted seconds (no imbalance factor applied).
  double worst_before_seconds = 0.0;
  double worst_after_seconds = 0.0;
  /// Rank that bounds the render phase after the schedule (lowest rank wins
  /// ties, -1 when nothing renders). Feeds the profiler's per-rank lanes.
  std::int64_t worst_after_rank = -1;
  /// Raw straggler sample count after the schedule (render-cost attribution:
  /// stolen chunks land on the thief).
  std::int64_t max_rank_samples_after = 0;
  /// Per-rank weighted seconds after the schedule (no imbalance factor),
  /// exactly the planner's internal loads: dead ranks 0.0, and the maximum
  /// equals worst_after_seconds bitwise. Feeds the async task graph's
  /// per-rank render durations.
  std::vector<double> rank_seconds_after;

  bool empty() const { return claims.empty(); }
};

/// Plans steal schedules from per-rank weighted render estimates.
///
/// The planner runs a deterministic greedy rebalance: repeatedly take the
/// worst (highest weighted-time) live rank as victim and the best (lowest)
/// live rank as thief, and move one tail chunk of the victim's most loaded
/// block if that strictly lowers the pairwise maximum; ties break toward the
/// lower rank, chunks move at most once, and the loop stops when the
/// cheapest thief no longer helps the slowest victim. Every accepted move
/// lowers (never raises) the global straggler, so straggler_after <=
/// straggler_before always holds.
class StealPlanner {
 public:
  StealPlanner(const machine::MachineConfig& machine, StealConfig config);

  const StealConfig& config() const { return config_; }

  /// Computes the schedule. `rank_slowdown` returns the per-sample time
  /// multiplier of a rank — 1.0 healthy, > 1.0 degraded, <= 0.0 dead (its
  /// blocks are dropped, exactly as RenderModel::estimate_degraded drops
  /// them); null means every rank is healthy. Deterministic: a pure
  /// function of the arguments and the config.
  StealSchedule plan(
      std::span<const BlockWork> blocks, std::int64_t num_ranks,
      const std::function<double(std::int64_t rank)>& rank_slowdown) const;

 private:
  const machine::MachineConfig* machine_;
  StealConfig config_;
};

/// Per-frame steal accounting embedded in core::FrameStats. All-zero ratios
/// of 1.0 with policy kOff (the frame never consulted the planner).
struct StealStats {
  StealPolicy policy = StealPolicy::kOff;
  std::int64_t chunks_stolen = 0;
  std::int64_t bytes_replicated = 0;
  /// Modeled seconds of the claim + replication exchanges (folded into the
  /// frame's render stage time; the render phase itself is shortened by the
  /// migrated work).
  double steal_seconds = 0.0;
  double straggler_before = 1.0;
  double straggler_after = 1.0;
};

}  // namespace pvr::steal
