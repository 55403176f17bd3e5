// Direct-send compositor. In model mode it prices the schedule's messages on
// the torus and the blending on the compositor cores; in execute mode it
// additionally moves real pixels through the superstep runtime, blends them
// in visibility order, and assembles the final image — the path tests use to
// prove the schedule correct against a serial reference rendering.
#pragma once

#include <optional>
#include <span>

#include "compose/image_partition.hpp"
#include "compose/policy.hpp"
#include "compose/schedule.hpp"
#include "render/raycaster.hpp"
#include "runtime/runtime.hpp"

namespace pvr::compose {

struct CompositeConfig {
  /// Exchange pattern. Pipelines dispatch on this; the compositor classes
  /// themselves each implement one algorithm and ignore the field.
  CompositeAlgorithm algorithm = CompositeAlgorithm::kDirectSend;
  CompositorPolicy policy = CompositorPolicy::kImproved;
  std::int64_t fixed_compositors = 0;  ///< used when policy == kFixed
  /// Target radix for kRadixK (factored via RadixKCompositor::factor).
  int radix = 8;
  /// Bytes per pixel on the wire. The studied renderer ships 8-bit RGBA
  /// (matching the paper's Fig 4 message sizes of 4 * pixels bytes); pixel
  /// payloads in execute mode stay float for accuracy.
  std::int64_t wire_bytes_per_pixel = 4;
};

struct CompositeStats {
  double seconds = 0.0;        ///< exchange + blend (the paper's "composite")
  net::ExchangeCost exchange;
  double blend_seconds = 0.0;
  std::int64_t num_compositors = 0;
  std::int64_t messages = 0;
  std::int64_t bytes = 0;       ///< wire bytes carried
  double mean_message_bytes() const {
    return messages > 0 ? double(bytes) / double(messages) : 0.0;
  }
  /// Aggregate compositing bandwidth (Fig 4): wire bytes / composite time.
  double bandwidth() const {
    return seconds > 0.0 ? double(bytes) / seconds : 0.0;
  }
};

/// Per-rank structure of one modeled direct-send round, for the async
/// schedule (DESIGN.md §9): which source ranks each destination (compositor)
/// rank waits on, and how many pixels it blends. Indexed by rank; filled
/// from the post-fault-filter message set of the same single pricing pass,
/// so a dead renderer appears in nobody's sources and reassigned tiles land
/// on their live owner's row.
struct DirectSendDetail {
  std::vector<std::int64_t> blend_pixels;          ///< per dst rank
  std::vector<std::vector<std::int64_t>> sources;  ///< sorted, deduplicated
};

class DirectSendCompositor {
 public:
  DirectSendCompositor(runtime::Runtime& rt, const CompositeConfig& config);

  std::int64_t compositor_count() const;

  /// Model mode: prices the schedule without pixel movement. A non-null
  /// `detail` additionally receives the per-rank message structure; the
  /// priced stats (and any emitted spans) are identical either way.
  CompositeStats model(std::span<const BlockScreenInfo> blocks, int width,
                       int height, DirectSendDetail* detail = nullptr);

  /// Execute mode: composites real subimages (one per BlockScreenInfo, same
  /// order). Returns stats; if `out` is non-null the compositor tiles are
  /// assembled into it (a full width x height image).
  CompositeStats execute(std::span<const BlockScreenInfo> blocks,
                         std::span<const render::SubImage> subimages,
                         int width, int height, Image* out);

  const CompositeConfig& config() const { return config_; }

 private:
  CompositeStats run(std::span<const BlockScreenInfo> blocks,
                     std::span<const render::SubImage> subimages, int width,
                     int height, Image* out,
                     DirectSendDetail* detail = nullptr);

  runtime::Runtime* rt_;
  CompositeConfig config_;
};

}  // namespace pvr::compose
