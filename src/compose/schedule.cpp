#include "compose/schedule.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace pvr::compose {

std::vector<ScheduledMessage> build_direct_send_schedule(
    std::span<const BlockScreenInfo> blocks,
    const ImagePartition& partition) {
  // Grown, not reserved from the tile ranges: the one exact-size
  // allocation moved glibc's dynamic mmap threshold and raised the e2e
  // run-async-faults workload's peak RSS by ~1.1 MiB (7%).
  std::vector<ScheduledMessage> schedule;
  for_each_scheduled(blocks, partition, [&](const ScheduledMessage& m) {
    schedule.push_back(m);
  });
  return schedule;
}

PixelTally tally_block_pixels(std::span<const BlockScreenInfo> blocks,
                              int width, int height,
                              const fault::FaultPlan& plan,
                              const machine::Partition& part) {
  const Rect image{0, 0, width, height};
  PixelTally tally;
  for (const BlockScreenInfo& info : blocks) {
    const std::int64_t pixels = info.footprint.intersect(image).pixel_count();
    tally.scheduled += pixels;
    if (!plan.rank_failed(info.rank, part)) tally.delivered += pixels;
  }
  return tally;
}

void fold_coverage(const PixelTally& tally, fault::FaultStats* stats) {
  if (stats == nullptr || tally.scheduled <= 0) return;
  stats->coverage = std::min(
      stats->coverage, double(tally.delivered) / double(tally.scheduled));
}

std::vector<std::int64_t> substitute_positions(
    std::span<const std::int64_t> order, std::span<const int> round_sizes,
    const fault::FaultPlan& plan, const machine::Partition& part) {
  const std::int64_t n = std::int64_t(order.size());
  std::int64_t product = 1;
  for (const int k : round_sizes) product *= k;
  PVR_REQUIRE(product == n,
              "round sizes must factor the compositing communicator");
  std::vector<std::int64_t> actors(order.begin(), order.end());
  std::vector<std::int64_t> group;
  for (std::int64_t p = 0; p < n; ++p) {
    if (!plan.rank_failed(order[std::size_t(p)], part)) continue;
    // Widen through the nested round-prefix groups: after round i, the
    // positions sharing all mixed-radix digits above i form one block of
    // prod(round_sizes[0..i]) consecutive positions — the set of ranks the
    // dead rank's data has mixed with so far, and the natural place its
    // role can be absorbed without breaking the recursion.
    std::int64_t proxy = -1;
    std::int64_t block = 1;
    for (const int k : round_sizes) {
      block *= k;
      if (k == 1) continue;  // radix-1 rounds widen nothing
      const std::int64_t base = (p / block) * block;
      group.clear();
      for (std::int64_t d = 1; d < block; ++d) {
        group.push_back(order[std::size_t(base + (p - base + d) % block)]);
      }
      proxy = plan.first_live_rank(group, part);
      if (proxy >= 0) break;
    }
    if (proxy < 0) {
      throw Error(
          "partner substitution impossible: every rank in the compositing "
          "communicator is on a failed node");
    }
    actors[std::size_t(p)] = proxy;
  }
  return actors;
}

void record_substitutions(std::span<const std::int64_t> order,
                          std::span<const std::int64_t> actors,
                          fault::FaultStats* stats, obs::Tracer* tracer) {
  for (std::size_t p = 0; p < order.size(); ++p) {
    if (actors[p] == order[p]) continue;
    if (stats != nullptr) ++stats->substituted_partners;
    if (tracer != nullptr) {
      tracer->instant("fault.partner_substituted", obs::Category::kFault,
                      {{"position", double(p)},
                       {"from_rank", double(order[p])},
                       {"to_rank", double(actors[p])}});
    }
  }
}

}  // namespace pvr::compose
