// Direct-send message schedule (paper §III-B.3): each renderer sends the
// intersection of its block's screen footprint with each compositor tile to
// that tile's owner. The schedule is a pure function of block footprints,
// depths, and the image partition — identical in model and execute mode,
// which is what makes the model's message counts exact.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "compose/image_partition.hpp"
#include "fault/fault_plan.hpp"
#include "machine/partition.hpp"
#include "obs/trace.hpp"
#include "util/image.hpp"

namespace pvr::compose {

/// Screen-space description of one rendered block.
struct BlockScreenInfo {
  std::int64_t rank = 0;   ///< renderer owning the block
  Rect footprint;          ///< screen bounding rect (may be empty)
  double depth = 0.0;      ///< visibility key (smaller = nearer)
};

/// One scheduled direct-send message.
struct ScheduledMessage {
  std::int64_t src_rank = 0;  ///< renderer
  std::int64_t dst_rank = 0;  ///< compositor (== tile index)
  std::int32_t block_index = 0;  ///< index into the BlockScreenInfo span
  Rect rect;                  ///< pixels carried (footprint ∩ tile)
  double depth = 0.0;
  std::int64_t pixels() const { return rect.pixel_count(); }
};

/// Calls emit(const ScheduledMessage&) for every message of the direct-send
/// schedule, in schedule order: block by block, each block's tiles row by
/// row. Compositor for tile i is rank i.
template <class Emit>
void for_each_scheduled(std::span<const BlockScreenInfo> blocks,
                        const ImagePartition& partition, Emit&& emit) {
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const BlockScreenInfo& info = blocks[b];
    if (info.footprint.empty()) continue;
    std::int64_t tx0, tx1, ty0, ty1;
    partition.tile_range(info.footprint, &tx0, &tx1, &ty0, &ty1);
    for (std::int64_t ty = ty0; ty < ty1; ++ty) {
      for (std::int64_t tx = tx0; tx < tx1; ++tx) {
        const Rect r = info.footprint.intersect(partition.tile(tx, ty));
        if (r.empty()) continue;
        emit(ScheduledMessage{info.rank, partition.tile_index(tx, ty),
                              std::int32_t(b), r, info.depth});
      }
    }
  }
}

/// Builds the full direct-send schedule (for_each_scheduled's messages).
std::vector<ScheduledMessage> build_direct_send_schedule(
    std::span<const BlockScreenInfo> blocks, const ImagePartition& partition);

// --- fault-path helpers shared by both compositors ---

/// Scheduled-vs-delivered pixel tally: the single coverage metric every
/// compositor reports under fault injection.
struct PixelTally {
  std::int64_t scheduled = 0;  ///< pixels every renderer should contribute
  std::int64_t delivered = 0;  ///< pixels live renderers actually contribute
};

/// Tally over block footprints (clipped to the image): every block's
/// footprint is scheduled, blocks on live ranks are delivered. Because the
/// direct-send schedule covers each footprint pixel exactly once, this
/// equals direct-send's per-message tally — so radix-k reports the same
/// coverage as direct-send for the same dead-renderer set.
PixelTally tally_block_pixels(std::span<const BlockScreenInfo> blocks,
                              int width, int height,
                              const fault::FaultPlan& plan,
                              const machine::Partition& part);

/// Folds delivered/scheduled into stats->coverage (min across phases, so a
/// frame reports its worst phase). A scheduled count of zero leaves the
/// coverage untouched: a pixel-free phase has nothing to lose. Null stats
/// are a no-op.
void fold_coverage(const PixelTally& tally, fault::FaultStats* stats);

/// Partner substitution for recursive exchange schedules (radix-k, of which
/// binary swap is the all-2 case). `order` maps visibility position -> rank;
/// `round_sizes` are the per-round exchange-group sizes (the radices; their
/// product must be order.size()). For each position held
/// by a dead rank, the substituting actor is chosen group-scoped: the next
/// live rank in visibility-position order (cyclic) within the smallest
/// round-prefix group that still has a live member. Returns actor[pos], the
/// rank playing each position's role — the position's own rank when live.
/// Throws pvr::Error when every rank is dead. Pure function of
/// (order, round_sizes, plan): bit-deterministic at any thread count.
std::vector<std::int64_t> substitute_positions(
    std::span<const std::int64_t> order, std::span<const int> round_sizes,
    const fault::FaultPlan& plan, const machine::Partition& part);

/// FaultStats + trace bookkeeping for a substitution: counts every proxied
/// position into stats->substituted_partners and emits one
/// fault.partner_substituted instant per absorbed position.
void record_substitutions(std::span<const std::int64_t> order,
                          std::span<const std::int64_t> actors,
                          fault::FaultStats* stats, obs::Tracer* tracer);

}  // namespace pvr::compose
