// Messages exchanged by the superstep runtime. In execute mode a message
// carries a real payload; in model mode only its size. Delivery order within
// a superstep is deterministic: sorted by (destination, source, tag).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pvr::runtime {

using Payload = std::vector<std::byte>;

struct Message {
  std::int64_t src_rank = 0;
  std::int64_t dst_rank = 0;
  std::int32_t tag = 0;
  std::int64_t bytes = 0;  ///< logical size; equals payload.size() if present
  Payload payload;         ///< empty in model mode
};

/// Deterministic delivery ordering.
struct MessageOrder {
  bool operator()(const Message& a, const Message& b) const {
    if (a.dst_rank != b.dst_rank) return a.dst_rank < b.dst_rank;
    if (a.src_rank != b.src_rank) return a.src_rank < b.src_rank;
    return a.tag < b.tag;
  }
};

}  // namespace pvr::runtime
