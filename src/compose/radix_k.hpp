// Radix-k compositing — the direct successor of this paper's compositing
// work (Peterka, Goodell, Ross, Shen, Thakur: "A configurable algorithm for
// parallel image-compositing applications", SC'09). It generalizes both
// classic schedules:
//
//   * binary swap  == radix-k with every round radix 2 (Ma et al. 1994);
//                     this class is the repository's binary swap, written
//                     CompositeAlgorithm::kRadixK with radix 2,
//   * direct-send  == radix-k with a single round of radix n.
//
// Each round prices k x kept pixels of blending per rank: every piece a
// rank blends, its own included — what the execute path does, and how
// direct-send prices its fragments.
//
// n ranks are factored into rounds n = k_1 * k_2 * ... * k_r. Ranks are
// sorted into visibility order; in round i, groups of k_i ranks (positions
// sharing every mixed-radix digit except digit i, least significant digit
// first) split their current image region into k_i pieces: member j keeps
// piece j and receives the other members' copies of it, blending them in
// visibility order. After r rounds each rank owns a fully composited 1/n of
// the image. Choosing intermediate radices trades the message count of
// direct-send against the synchronized rounds of binary swap — the knob
// this paper's "limit the compositors" insight foreshadowed.
#pragma once

#include <span>
#include <vector>

#include "compose/direct_send.hpp"

namespace pvr::compose {

class RadixKCompositor {
 public:
  /// `radices`: per-round group sizes; their product must equal the rank
  /// count (checked at run time).
  RadixKCompositor(runtime::Runtime& rt, const CompositeConfig& config,
                   std::vector<int> radices);

  /// Factors n into rounds of radix <= k, largest factors first filled with
  /// `k` while divisible; any remaining factor becomes its own round.
  /// factor(32768, 8) -> {8, 8, 8, 8, 8}; factor(48, 4) -> {4, 4, 3}.
  static std::vector<int> factor(std::int64_t n, int k);

  const std::vector<int>& radices() const { return radices_; }

  CompositeStats model(std::span<const BlockScreenInfo> blocks, int width,
                       int height);
  /// blocks[i] must be rank i's block (one block per rank).
  CompositeStats execute(std::span<const BlockScreenInfo> blocks,
                         std::span<const render::SubImage> subimages,
                         int width, int height, Image* out);

 private:
  CompositeStats run(std::span<const BlockScreenInfo> blocks,
                     std::span<const render::SubImage> subimages, int width,
                     int height, Image* out);

  runtime::Runtime* rt_;
  CompositeConfig config_;
  std::vector<int> radices_;
};

}  // namespace pvr::compose
