#include "compose/radix_k.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "obs/trace.hpp"
#include "util/error.hpp"

namespace pvr::compose {

namespace {

/// Splits r into k near-equal parts along its longer side.
Rect split_part(const Rect& r, int k, int j) {
  PVR_ASSERT(k >= 1 && j >= 0 && j < k);
  if (r.width() >= r.height()) {
    return Rect{r.x0 + r.width() * j / k, r.y0,
                r.x0 + r.width() * (j + 1) / k, r.y1};
  }
  return Rect{r.x0, r.y0 + r.height() * j / k, r.x1,
              r.y0 + r.height() * (j + 1) / k};
}

struct PieceHeader {
  Rect rect;
  std::int64_t sender_pos;
};

}  // namespace

RadixKCompositor::RadixKCompositor(runtime::Runtime& rt,
                                   const CompositeConfig& config,
                                   std::vector<int> radices)
    : rt_(&rt), config_(config), radices_(std::move(radices)) {
  PVR_REQUIRE(!radices_.empty(), "need at least one round");
  std::int64_t product = 1;
  for (const int k : radices_) {
    PVR_REQUIRE(k >= 1, "radix must be >= 1");
    product *= k;
  }
  PVR_REQUIRE(product == rt.num_ranks(),
              "product of radices must equal the rank count");
}

std::vector<int> RadixKCompositor::factor(std::int64_t n, int k) {
  PVR_REQUIRE(n >= 1, "n must be >= 1");
  PVR_REQUIRE(k >= 2, "radix must be >= 2");
  std::vector<int> radices;
  while (n % k == 0 && n > 1) {
    radices.push_back(k);
    n /= k;
  }
  // Remaining factor (possibly composite or prime) becomes smaller rounds.
  for (int d = 2; d <= k && n > 1; ++d) {
    while (n % d == 0) {
      radices.push_back(d);
      n /= d;
    }
  }
  if (n > 1) radices.push_back(int(n));  // large prime remainder
  if (radices.empty()) radices.push_back(1);
  return radices;
}

CompositeStats RadixKCompositor::model(
    std::span<const BlockScreenInfo> blocks, int width, int height) {
  return run(blocks, {}, width, height, nullptr);
}

CompositeStats RadixKCompositor::execute(
    std::span<const BlockScreenInfo> blocks,
    std::span<const render::SubImage> subimages, int width, int height,
    Image* out) {
  PVR_REQUIRE(rt_->mode() == runtime::Mode::kExecute,
              "execute() requires an execute-mode runtime");
  PVR_REQUIRE(subimages.size() == blocks.size(),
              "need one subimage per block");
  return run(blocks, subimages, width, height, out);
}

CompositeStats RadixKCompositor::run(
    std::span<const BlockScreenInfo> blocks,
    std::span<const render::SubImage> subimages, int width, int height,
    Image* out) {
  const std::int64_t n = rt_->num_ranks();
  PVR_REQUIRE(std::int64_t(blocks.size()) == n,
              "radix-k requires exactly one block per rank");
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    PVR_REQUIRE(blocks[i].rank == std::int64_t(i),
                "blocks must be listed in rank order");
  }
  const bool execute = !subimages.empty();
  obs::Tracer* tracer = rt_->tracer();
  obs::ScopedSpan span(tracer, "composite.radix_k",
                       obs::Category::kComposite);
  if (tracer != nullptr) span.arg("rounds", double(radices_.size()));

  const machine::Partition& mpart = rt_->partition();
  const fault::FaultPlan* plan = rt_->fault_plan();
  fault::FaultStats* fstats = rt_->fault_stats();
  const bool faulty = plan != nullptr && !plan->empty();
  PVR_REQUIRE(!(faulty && execute),
              "fault injection is model-mode only; clear the fault plan "
              "before compositing real pixels");

  CompositeStats stats;
  stats.num_compositors = n;

  // Visibility order (near to far); ties break by rank.
  std::vector<std::int64_t> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::int64_t a, std::int64_t b) {
    if (blocks[std::size_t(a)].depth != blocks[std::size_t(b)].depth) {
      return blocks[std::size_t(a)].depth < blocks[std::size_t(b)].depth;
    }
    return a < b;
  });
  std::vector<std::int64_t> pos(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    pos[std::size_t(order[std::size_t(i)])] = i;
  }

  // Fault recovery (model mode): partner substitution — a deterministic
  // live proxy absorbs each dead position's role (receives the group's
  // pieces for it, performs its blends, carries its region through later
  // rounds); the dead rank's own contribution is dropped and reported via
  // coverage.
  std::vector<std::int64_t> actor;  // position -> acting rank
  if (faulty) {
    actor = substitute_positions(order, radices_, *plan, mpart);
    record_substitutions(order, actor, fstats, tracer);
    fold_coverage(tally_block_pixels(blocks, width, height, *plan, mpart),
                  fstats);
    std::int64_t live = 0;
    for (std::int64_t r = 0; r < n; ++r) {
      if (!plan->rank_failed(r, mpart)) ++live;
    }
    stats.num_compositors = live;
  }

  std::vector<Rect> region(static_cast<std::size_t>(n),
                           Rect{0, 0, width, height});
  std::vector<Image> buffers;
  if (execute) {
    buffers.reserve(std::size_t(n));
    for (std::int64_t r = 0; r < n; ++r) {
      Image img(width, height);
      const render::SubImage& sub = subimages[std::size_t(r)];
      if (!sub.rect.empty()) img.insert(sub.rect, sub.pixels);
      buffers.push_back(std::move(img));
    }
  }

  const auto& mcfg = rt_->partition().config();
  std::vector<std::int64_t> blend_pixels(faulty ? std::size_t(n) : 0);
  std::int64_t stride = 1;
  for (const int k : radices_) {
    if (k == 1) continue;
    std::vector<Rect> kept(static_cast<std::size_t>(n));
    std::vector<runtime::Message> messages;
    messages.reserve(std::size_t(n) * std::size_t(k - 1));
    std::int64_t worst_blend = 0;
    std::int64_t redirected = 0;  // messages whose original peer is dead
    if (faulty) blend_pixels.assign(std::size_t(n), 0);
    for (std::int64_t r = 0; r < n; ++r) {
      const std::int64_t p = pos[std::size_t(r)];
      const int digit = int((p / stride) % k);
      const Rect cur = region[std::size_t(r)];
      kept[std::size_t(r)] = split_part(cur, k, digit);
      const std::int64_t blend =
          std::int64_t(k) * kept[std::size_t(r)].pixel_count();
      if (faulty) {
        // Position p's blends land on its actor; a proxy absorbing several
        // positions accumulates all their work.
        blend_pixels[std::size_t(actor[std::size_t(p)])] += blend;
      } else {
        worst_blend = std::max(worst_blend, blend);
      }
      for (int j = 0; j < k; ++j) {
        if (j == digit) continue;
        const std::int64_t peer_pos = p + (j - digit) * stride;
        const std::int64_t peer = order[std::size_t(peer_pos)];
        const Rect piece = split_part(cur, k, j);
        // Regions narrower than the radix split into some empty pieces in
        // late rounds; an empty piece schedules no message (direct-send
        // never schedules empty fragments either).
        if (piece.empty()) continue;
        const std::int64_t src = faulty ? actor[std::size_t(p)] : r;
        const std::int64_t dst = faulty ? actor[std::size_t(peer_pos)] : peer;
        if (src == dst) continue;  // proxy plays both roles: a local blend
        if (faulty && (src != r || dst != peer)) {
          if (fstats != nullptr) ++fstats->proxied_messages;
          if (dst != peer) ++redirected;
        }
        runtime::Message msg;
        msg.src_rank = src;
        msg.dst_rank = dst;
        msg.tag = int(stride);
        msg.bytes = piece.pixel_count() * config_.wire_bytes_per_pixel;
        if (execute) {
          const std::vector<Rgba> pixels =
              buffers[std::size_t(r)].extract(piece);
          PieceHeader hdr{piece, p};
          msg.payload.resize(sizeof(hdr) + pixels.size() * sizeof(Rgba));
          std::memcpy(msg.payload.data(), &hdr, sizeof(hdr));
          std::memcpy(msg.payload.data() + sizeof(hdr), pixels.data(),
                      pixels.size() * sizeof(Rgba));
        }
        stats.bytes += msg.bytes;
        messages.push_back(std::move(msg));
      }
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
        const Rect mine = kept[std::size_t(rank)];
        if (mine.empty()) return;
        struct Piece {
          std::int64_t sender_pos;
          const Rgba* pixels;  // null = own buffer
        };
        std::vector<Piece> pieces;
        pieces.push_back(Piece{pos[std::size_t(rank)], nullptr});
        for (const runtime::Message& msg : inbox) {
          if (msg.payload.empty()) continue;
          PieceHeader hdr;
          std::memcpy(&hdr, msg.payload.data(), sizeof(hdr));
          PVR_ASSERT(hdr.rect == mine);
          pieces.push_back(Piece{
              hdr.sender_pos,
              reinterpret_cast<const Rgba*>(msg.payload.data() +
                                            sizeof(hdr))});
        }
        std::sort(pieces.begin(), pieces.end(),
                  [](const Piece& a, const Piece& b) {
                    return a.sender_pos < b.sender_pos;
                  });
        Image& buf = buffers[std::size_t(rank)];
        const std::vector<Rgba> own = buf.extract(mine);
        std::vector<Rgba> acc(std::size_t(mine.pixel_count()),
                              kTransparent);
        for (const Piece& piece : pieces) {
          const Rgba* src = piece.pixels ? piece.pixels : own.data();
          for (std::size_t i = 0; i < acc.size(); ++i) {
            acc[i].blend_under(src[i]);  // near-to-far accumulation
          }
        }
        buf.insert(mine, acc);
      };
    }
    obs::ScopedSpan round_span(tracer, "composite.round",
                               obs::Category::kComposite);
    if (tracer != nullptr) round_span.arg("radix", double(k));
    // consume writes only buffers[rank] (kept/pos/order are read-only
    // here), so rank inboxes may drain in parallel.
    stats.exchange.seconds +=
        rt_->exchange_messages(std::move(messages), consume).seconds;
    if (faulty && redirected > 0) {
      // A sender discovers a dead peer the hard way: max_retries failed
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
    for (std::int64_t r = 0; r < n; ++r) {
      region[std::size_t(r)] = kept[std::size_t(r)];
    }
    stride *= k;
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
