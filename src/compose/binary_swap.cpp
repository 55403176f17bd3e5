#include "compose/binary_swap.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "obs/trace.hpp"
#include "util/error.hpp"

namespace pvr::compose {

namespace {

/// Wire header for a shipped half-region.
struct FragmentPack {
  Rect rect;
  double depth;
};

/// Splits r into (first, second) along its longer side.
std::pair<Rect, Rect> split_rect(const Rect& r) {
  if (r.width() >= r.height()) {
    const int mid = r.x0 + r.width() / 2;
    return {Rect{r.x0, r.y0, mid, r.y1}, Rect{mid, r.y0, r.x1, r.y1}};
  }
  const int mid = r.y0 + r.height() / 2;
  return {Rect{r.x0, r.y0, r.x1, mid}, Rect{r.x0, mid, r.x1, r.y1}};
}

}  // namespace

BinarySwapCompositor::BinarySwapCompositor(runtime::Runtime& rt,
                                           const CompositeConfig& config)
    : rt_(&rt), config_(config) {}

CompositeStats BinarySwapCompositor::model(
    std::span<const BlockScreenInfo> blocks, int width, int height) {
  return run(blocks, {}, width, height, nullptr);
}

CompositeStats BinarySwapCompositor::execute(
    std::span<const BlockScreenInfo> blocks,
    std::span<const render::SubImage> subimages, int width, int height,
    Image* out) {
  PVR_REQUIRE(rt_->mode() == runtime::Mode::kExecute,
              "execute() requires an execute-mode runtime");
  PVR_REQUIRE(subimages.size() == blocks.size(),
              "need one subimage per block");
  return run(blocks, subimages, width, height, out);
}

CompositeStats BinarySwapCompositor::run(
    std::span<const BlockScreenInfo> blocks,
    std::span<const render::SubImage> subimages, int width, int height,
    Image* out) {
  const std::int64_t n = rt_->num_ranks();
  PVR_REQUIRE(is_pow2(n), "binary swap requires a power-of-two rank count");
  PVR_REQUIRE(std::int64_t(blocks.size()) == n,
              "binary swap requires exactly one block per rank");
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    PVR_REQUIRE(blocks[i].rank == std::int64_t(i),
                "blocks must be listed in rank order");
  }
  const bool execute = !subimages.empty();
  const int rounds = ilog2(n);
  obs::Tracer* tracer = rt_->tracer();
  obs::ScopedSpan span(tracer, "composite.binary_swap",
                       obs::Category::kComposite);
  if (tracer != nullptr) span.arg("rounds", double(rounds));

  const machine::Partition& mpart = rt_->partition();
  const fault::FaultPlan* plan = rt_->fault_plan();
  fault::FaultStats* fstats = rt_->fault_stats();
  const bool faulty = plan != nullptr && !plan->empty();
  PVR_REQUIRE(!(faulty && execute),
              "fault injection is model-mode only; clear the fault plan "
              "before compositing real pixels");

  CompositeStats stats;
  stats.num_compositors = n;

  // Visibility order: pos[r] is rank r's index in near-to-far order.
  std::vector<std::int64_t> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::int64_t a, std::int64_t b) {
    if (blocks[std::size_t(a)].depth != blocks[std::size_t(b)].depth) {
      return blocks[std::size_t(a)].depth < blocks[std::size_t(b)].depth;
    }
    return a < b;
  });
  std::vector<std::int64_t> pos(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) pos[std::size_t(order[std::size_t(i)])] = i;
  const auto rank_at_pos = [&](std::int64_t p) { return order[std::size_t(p)]; };

  // Fault recovery (model mode, paper-scale partner substitution): a dead
  // rank's schedule role — receiving its partners' pieces, blending its
  // kept region, carrying it into later rounds — is absorbed by a
  // deterministic live proxy (next live rank in visibility-position order
  // within the smallest exchange group that still has a live member). Its
  // own pixel contribution is dropped and reported via coverage.
  std::vector<std::int64_t> actor;  // position -> acting rank
  if (faulty) {
    const std::vector<int> round_sizes(std::size_t(rounds), 2);
    actor = substitute_positions(order, round_sizes, *plan, mpart);
    record_substitutions(order, actor, fstats, tracer);
    fold_coverage(tally_block_pixels(blocks, width, height, *plan, mpart),
                  fstats);
    std::int64_t live = 0;
    for (std::int64_t r = 0; r < n; ++r) {
      if (!plan->rank_failed(r, mpart)) ++live;
    }
    stats.num_compositors = live;
  }

  // Per-rank state: current region, and (execute) a full-image buffer.
  std::vector<Rect> region(static_cast<std::size_t>(n), Rect{0, 0, width, height});
  std::vector<Image> buffers;
  if (execute) {
    buffers.assign(static_cast<std::size_t>(n), Image());
    for (std::int64_t r = 0; r < n; ++r) {
      Image img(width, height);
      const render::SubImage& sub = subimages[std::size_t(r)];
      if (!sub.rect.empty()) img.insert(sub.rect, sub.pixels);
      buffers[std::size_t(r)] = std::move(img);
    }
  }

  const auto& mcfg = rt_->partition().config();
  std::vector<std::int64_t> blend_pixels(faulty ? std::size_t(n) : 0);
  for (int round = 0; round < rounds; ++round) {
    std::vector<runtime::Message> messages;
    messages.reserve(static_cast<std::size_t>(n));
    std::vector<Rect> kept(static_cast<std::size_t>(n));
    std::int64_t worst_blend = 0;
    std::int64_t redirected = 0;  // messages whose original partner is dead
    if (faulty) blend_pixels.assign(std::size_t(n), 0);
    for (std::int64_t r = 0; r < n; ++r) {
      const std::int64_t p = pos[std::size_t(r)];
      const std::int64_t partner_pos = p ^ (std::int64_t(1) << round);
      const std::int64_t partner = rank_at_pos(partner_pos);
      const auto [first, second] = split_rect(region[std::size_t(r)]);
      const bool keep_first = ((p >> round) & 1) == 0;
      const Rect keep = keep_first ? first : second;
      const Rect send = keep_first ? second : first;
      kept[std::size_t(r)] = keep;
      if (faulty) {
        // The blend of the kept region lands on whoever plays position p;
        // a proxy absorbing several positions accumulates all their work.
        blend_pixels[std::size_t(actor[std::size_t(p)])] +=
            keep.pixel_count();
      } else {
        worst_blend = std::max(worst_blend, keep.pixel_count());
      }
      // Late rounds of small images can leave nothing to give away; an
      // empty piece schedules no message (direct-send never schedules
      // empty fragments either, so message counts stay comparable).
      if (send.empty()) continue;

      const std::int64_t src = faulty ? actor[std::size_t(p)] : r;
      const std::int64_t dst =
          faulty ? actor[std::size_t(partner_pos)] : partner;
      if (src == dst) continue;  // proxy plays both roles: a local blend
      if (faulty && (src != r || dst != partner)) {
        if (fstats != nullptr) ++fstats->proxied_messages;
        if (dst != partner) ++redirected;
      }
      runtime::Message msg;
      msg.src_rank = src;
      msg.dst_rank = dst;
      msg.tag = round;
      msg.bytes = send.pixel_count() * config_.wire_bytes_per_pixel;
      if (execute) {
        // Ship the pixels of the half we give away.
        const std::vector<Rgba> pixels =
            buffers[std::size_t(r)].extract(send);
        FragmentPack pack{send, blocks[std::size_t(r)].depth};
        msg.payload.resize(sizeof(FragmentPack) +
                           pixels.size() * sizeof(Rgba));
        std::memcpy(msg.payload.data(), &pack, sizeof(pack));
        std::memcpy(msg.payload.data() + sizeof(pack), pixels.data(),
                    pixels.size() * sizeof(Rgba));
      }
      stats.bytes += msg.bytes;
      messages.push_back(std::move(msg));
    }
    if (faulty) {
      worst_blend =
          *std::max_element(blend_pixels.begin(), blend_pixels.end());
    }
    stats.messages += std::int64_t(messages.size());

    runtime::Runtime::ConsumeFn consume = nullptr;
    if (execute) {
      consume = [&](std::int64_t rank,
                    std::span<const runtime::Message> inbox) {
        for (const runtime::Message& msg : inbox) {
          if (msg.payload.empty()) continue;
          FragmentPack pack;
          std::memcpy(&pack, msg.payload.data(), sizeof(pack));
          const auto* pixels = reinterpret_cast<const Rgba*>(
              msg.payload.data() + sizeof(pack));
          const Rect r = pack.rect;
          PVR_ASSERT(r == kept[std::size_t(rank)]);
          // The partner covers the adjacent range of the visibility order:
          // if it is nearer, its pixels go in front of ours.
          const bool partner_nearer =
              pos[std::size_t(msg.src_rank)] < pos[std::size_t(rank)];
          Image& buf = buffers[std::size_t(rank)];
          std::size_t i = 0;
          for (int y = r.y0; y < r.y1; ++y) {
            for (int x = r.x0; x < r.x1; ++x) {
              const Rgba theirs = pixels[i++];
              Rgba& mine = buf.at(x, y);
              mine = partner_nearer ? theirs.over(mine) : mine.over(theirs);
            }
          }
        }
      };
    }
    obs::ScopedSpan round_span(tracer, "composite.round",
                               obs::Category::kComposite);
    if (tracer != nullptr) round_span.arg("round", double(round));
    // consume writes only buffers[rank] (kept/pos are read-only here), so
    // rank inboxes may drain in parallel.
    stats.exchange.seconds +=
        rt_->exchange_messages(std::move(messages), consume,
                               runtime::Runtime::ConsumePolicy::kParallelRanks)
            .seconds;
    if (faulty && redirected > 0) {
      // A sender discovers a dead partner the hard way: max_retries failed
      // attempts before re-addressing the piece to the proxy. Priced like
      // the torus prices undeliverable sends.
      const fault::FaultSpec& spec = plan->spec();
      const double stall =
          double(redirected) * spec.max_retries * spec.retry_timeout;
      stats.exchange.seconds += stall;
      stats.exchange.retry_seconds += stall;
      if (fstats != nullptr) fstats->retries += redirected * spec.max_retries;
      if (tracer != nullptr && stall > 0.0) {
        obs::ScopedSpan retry_span(tracer, "fault.partner_discovery",
                                   obs::Category::kFault);
        retry_span.arg("redirected_messages", double(redirected));
        tracer->advance(stall);
      }
    }
    const double round_blend = double(worst_blend) / mcfg.blends_per_second;
    if (tracer != nullptr) {
      obs::ScopedSpan blend_span(tracer, "composite.blend",
                                 obs::Category::kCompute);
      blend_span.arg("worst_blend_pixels", double(worst_blend));
      tracer->advance(round_blend);
    }
    stats.blend_seconds += round_blend;
    for (std::int64_t r = 0; r < n; ++r) region[std::size_t(r)] = kept[std::size_t(r)];
  }

  stats.exchange.messages = stats.messages;
  stats.exchange.total_bytes = stats.bytes;
  stats.seconds = stats.exchange.seconds + stats.blend_seconds;
  if (tracer != nullptr) {
    span.arg("compositors", double(stats.num_compositors));
    span.arg("messages", double(stats.messages));
    span.arg("bytes", double(stats.bytes));
  }

  if (execute && out != nullptr) {
    *out = Image(width, height);
    for (std::int64_t r = 0; r < n; ++r) {
      const Rect rect = region[std::size_t(r)];
      if (rect.empty()) continue;
      out->insert(rect, buffers[std::size_t(r)].extract(rect));
    }
  }
  return stats;
}

}  // namespace pvr::compose
