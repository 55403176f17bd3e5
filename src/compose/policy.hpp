// Compositor-count policies. The paper's contribution (§IV-A): direct-send
// customarily uses as many compositors as renderers (m = n), but beyond ~1K
// cores the resulting flood of small messages collapses link bandwidth;
// limiting m restores scalability (30x faster compositing at 32K cores).
#pragma once

#include <cstdint>

namespace pvr::compose {

/// Compositing exchange pattern. Direct-send is the paper's studied
/// algorithm; radix-k is the recursive schedule family it is compared
/// against (§III-B.3). Binary swap is kRadixK with radix 2.
enum class CompositeAlgorithm {
  kDirectSend,  ///< renderer -> tile-owner fragments, one round
  kRadixK,      ///< mixed-radix rounds; radix 2 is binary swap
};

enum class CompositorPolicy {
  kOriginal,  ///< m = n (classic direct-send)
  kImproved,  ///< the paper's empirical schedule: m = n up to 1K, then 1K
              ///< for n in (1K, 4K], then 2K
  kFixed,     ///< caller-provided m
};

/// Number of compositors for `num_renderers` under a policy; `fixed_m` is
/// used only by kFixed.
inline std::int64_t compositor_count(CompositorPolicy policy,
                                     std::int64_t num_renderers,
                                     std::int64_t fixed_m = 0) {
  switch (policy) {
    case CompositorPolicy::kOriginal:
      return num_renderers;
    case CompositorPolicy::kImproved:
      if (num_renderers <= 1024) return num_renderers;
      if (num_renderers <= 4096) return 1024;
      return 2048;
    case CompositorPolicy::kFixed:
      return fixed_m < 1 ? 1
                         : (fixed_m > num_renderers ? num_renderers
                                                    : fixed_m);
  }
  return num_renderers;
}

}  // namespace pvr::compose
