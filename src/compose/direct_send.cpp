#include "compose/direct_send.hpp"

#include <algorithm>
#include <cstring>

#include "obs/trace.hpp"
#include "util/error.hpp"

namespace pvr::compose {

namespace {

struct FragmentHeader {
  std::int32_t x0, y0, x1, y1;
  double depth;
};

runtime::Payload pack_fragment(const render::SubImage& sub, const Rect& r,
                               double depth) {
  FragmentHeader hdr{r.x0, r.y0, r.x1, r.y1, depth};
  runtime::Payload payload(sizeof(FragmentHeader) +
                           std::size_t(r.pixel_count()) * sizeof(Rgba));
  std::memcpy(payload.data(), &hdr, sizeof(hdr));
  auto* pixels = reinterpret_cast<Rgba*>(payload.data() + sizeof(hdr));
  std::size_t i = 0;
  for (int y = r.y0; y < r.y1; ++y) {
    const std::size_t row =
        std::size_t(y - sub.rect.y0) * std::size_t(sub.rect.width()) +
        std::size_t(r.x0 - sub.rect.x0);
    for (int x = 0; x < r.width(); ++x) {
      pixels[i++] = sub.pixels[row + std::size_t(x)];
    }
  }
  return payload;
}

struct Fragment {
  Rect rect;
  double depth;
  std::int64_t src;
  const Rgba* pixels;
};

}  // namespace

DirectSendCompositor::DirectSendCompositor(runtime::Runtime& rt,
                                           const CompositeConfig& config)
    : rt_(&rt), config_(config) {
  PVR_REQUIRE(config.wire_bytes_per_pixel > 0,
              "wire bytes per pixel must be positive");
}

std::int64_t DirectSendCompositor::compositor_count() const {
  return ::pvr::compose::compositor_count(config_.policy, rt_->num_ranks(),
                                          config_.fixed_compositors);
}

CompositeStats DirectSendCompositor::model(
    std::span<const BlockScreenInfo> blocks, int width, int height,
    DirectSendDetail* detail) {
  return run(blocks, {}, width, height, nullptr, detail);
}

CompositeStats DirectSendCompositor::execute(
    std::span<const BlockScreenInfo> blocks,
    std::span<const render::SubImage> subimages, int width, int height,
    Image* out) {
  PVR_REQUIRE(rt_->mode() == runtime::Mode::kExecute,
              "execute() requires an execute-mode runtime");
  PVR_REQUIRE(subimages.size() == blocks.size(),
              "need one subimage per block");
  return run(blocks, subimages, width, height, out);
}

CompositeStats DirectSendCompositor::run(
    std::span<const BlockScreenInfo> blocks,
    std::span<const render::SubImage> subimages, int width, int height,
    Image* out, DirectSendDetail* detail) {
  const bool execute = !subimages.empty();
  obs::Tracer* tracer = rt_->tracer();
  obs::ScopedSpan span(tracer, "composite.direct_send",
                       obs::Category::kComposite);

  const std::int64_t m = compositor_count();
  const ImagePartition partition(width, height, m);

  CompositeStats stats;
  stats.num_compositors = partition.num_tiles();

  // Fault recovery (model mode): a dead compositor's tile is reassigned to
  // the next live rank (degraded: one rank may then own several tiles); a
  // dead renderer's fragments are simply lost and the frame reports the
  // resulting pixel coverage < 100%.
  const machine::Partition& mpart = rt_->partition();
  const fault::FaultPlan* plan = rt_->fault_plan();
  fault::FaultStats* fstats = rt_->fault_stats();
  const bool faulty = plan != nullptr && !plan->empty();
  PVR_REQUIRE(!(faulty && execute),
              "fault injection is model-mode only; clear the fault plan "
              "before compositing real pixels");
  std::vector<std::int64_t> tile_owner;
  if (faulty) {
    tile_owner.resize(std::size_t(partition.num_tiles()));
    for (std::int64_t t = 0; t < partition.num_tiles(); ++t) {
      std::int64_t owner = t;  // tile i is owned by compositor rank i
      if (plan->rank_failed(t, mpart)) {
        owner = plan->next_live_rank(t, mpart);
        if (fstats != nullptr) ++fstats->reassigned_partitions;
        if (tracer != nullptr) {
          tracer->instant("fault.tile_reassigned", obs::Category::kFault,
                          {{"tile", double(t)},
                           {"from_rank", double(t)},
                           {"to_rank", double(owner)}});
        }
      }
      tile_owner[std::size_t(t)] = owner;
    }
    // Reassignment can merge tiles onto one rank: report the number of
    // ranks actually compositing, not the nominal tile count.
    std::vector<std::int64_t> owners = tile_owner;
    std::sort(owners.begin(), owners.end());
    owners.erase(std::unique(owners.begin(), owners.end()), owners.end());
    stats.num_compositors = std::int64_t(owners.size());
  }

  // Per-compositor-rank blended pixels (for the blend-compute term); with
  // reassigned tiles one rank can blend several tiles' pixels.
  std::vector<std::int64_t> blend_pixels(std::size_t(rt_->num_ranks()), 0);
  if (detail != nullptr) {
    detail->blend_pixels.assign(std::size_t(rt_->num_ranks()), 0);
    detail->sources.assign(std::size_t(rt_->num_ranks()), {});
  }

  // One walk of the schedule. Model mode only sizes its traffic: one
  // transfer per delivered message, priced as exchange_messages prices
  // messages. Execute mode packs each message's pixels.
  std::int64_t scheduled_pixels = 0;
  std::int64_t delivered_pixels = 0;
  std::vector<net::Transfer> transfers;
  std::vector<runtime::Message> messages;
  for_each_scheduled(blocks, partition, [&](const ScheduledMessage& s) {
    scheduled_pixels += s.pixels();
    if (faulty && plan->rank_failed(s.src_rank, mpart)) {
      return;  // dead renderer: this block's contribution is dropped
    }
    delivered_pixels += s.pixels();
    const std::int64_t dst =
        faulty ? tile_owner[std::size_t(s.dst_rank)] : s.dst_rank;
    const std::int64_t bytes = s.pixels() * config_.wire_bytes_per_pixel;
    if (execute) {
      const render::SubImage& sub = subimages[std::size_t(s.block_index)];
      PVR_ASSERT(sub.rect.intersect(s.rect) == s.rect);
      messages.push_back(runtime::Message{s.src_rank, dst, s.block_index,
                                          bytes,
                                          pack_fragment(sub, s.rect, s.depth)});
    } else {
      transfers.push_back(net::Transfer{s.src_rank, dst, bytes});
    }
    ++stats.messages;
    stats.bytes += bytes;
    blend_pixels[std::size_t(dst)] += s.pixels();
    if (detail != nullptr) {
      detail->sources[std::size_t(dst)].push_back(s.src_rank);
    }
  });
  if (detail != nullptr) {
    detail->blend_pixels = blend_pixels;
    for (std::vector<std::int64_t>& srcs : detail->sources) {
      std::sort(srcs.begin(), srcs.end());
      srcs.erase(std::unique(srcs.begin(), srcs.end()), srcs.end());
    }
  }
  if (faulty) {
    fold_coverage(PixelTally{scheduled_pixels, delivered_pixels}, fstats);
  }

  // Compositor rank -> blended tile pixels, pre-sized so each consume call
  // touches only its own slot (rank-private: safe under kParallelRanks).
  // Execute mode is never faulty, so dst ranks are exactly tile indices.
  std::vector<std::vector<Rgba>> tiles(
      execute ? std::size_t(partition.num_tiles()) : 0);
  if (!execute) {
    stats.exchange = rt_->exchange_transfers(transfers);
  } else {
    const auto consume = [&](std::int64_t rank,
                             std::span<const runtime::Message> inbox) {
      const Rect tile = partition.tile(rank);
      // Collect fragments and sort into visibility order (near first).
      std::vector<Fragment> fragments;
      fragments.reserve(inbox.size());
      for (const runtime::Message& msg : inbox) {
        PVR_ASSERT(msg.payload.size() >= sizeof(FragmentHeader));
        FragmentHeader hdr;
        std::memcpy(&hdr, msg.payload.data(), sizeof(hdr));
        fragments.push_back(Fragment{
            Rect{hdr.x0, hdr.y0, hdr.x1, hdr.y1}, hdr.depth, msg.src_rank,
            reinterpret_cast<const Rgba*>(msg.payload.data() +
                                          sizeof(FragmentHeader))});
      }
      std::sort(fragments.begin(), fragments.end(),
                [](const Fragment& a, const Fragment& b) {
                  if (a.depth != b.depth) return a.depth < b.depth;
                  return a.src < b.src;
                });
      std::vector<Rgba>& acc = tiles[std::size_t(rank)];
      acc.assign(std::size_t(tile.pixel_count()), kTransparent);
      for (const Fragment& f : fragments) {
        const Rect r = f.rect.intersect(tile);
        for (int y = r.y0; y < r.y1; ++y) {
          for (int x = r.x0; x < r.x1; ++x) {
            Rgba& dst = acc[std::size_t(y - tile.y0) *
                                std::size_t(tile.width()) +
                            std::size_t(x - tile.x0)];
            // dst holds the accumulation of nearer fragments; f is behind.
            const Rgba src = f.pixels[std::size_t(y - f.rect.y0) *
                                          std::size_t(f.rect.width()) +
                                      std::size_t(x - f.rect.x0)];
            dst.blend_under(src);
          }
        }
      }
    };
    stats.exchange = rt_->exchange_messages(std::move(messages), consume);
  }

  const std::int64_t worst_blend =
      blend_pixels.empty()
          ? 0
          : *std::max_element(blend_pixels.begin(), blend_pixels.end());
  stats.blend_seconds =
      double(worst_blend) / rt_->partition().config().blends_per_second;
  if (tracer != nullptr) {
    obs::ScopedSpan blend_span(tracer, "composite.blend",
                               obs::Category::kCompute);
    blend_span.arg("worst_blend_pixels", double(worst_blend));
    tracer->advance(stats.blend_seconds);
  }
  stats.seconds = stats.exchange.seconds + stats.blend_seconds;
  if (tracer != nullptr) {
    span.arg("compositors", double(stats.num_compositors));
    span.arg("messages", double(stats.messages));
    span.arg("bytes", double(stats.bytes));
  }

  if (execute && out != nullptr) {
    *out = Image(width, height);
    for (std::int64_t t = 0; t < partition.num_tiles(); ++t) {
      const Rect r = partition.tile(t);
      const std::vector<Rgba>& acc = tiles[std::size_t(t)];
      if (acc.empty()) continue;  // tile received no fragments
      out->insert(r, acc);
    }
  }
  return stats;
}

}  // namespace pvr::compose
