// Static regular block decomposition of the volume (paper §III-B: "divides
// the data space into regular blocks and statically allocates a small number
// of blocks to each process").
#pragma once

#include <cstdint>
#include <vector>

#include "util/error.hpp"
#include "util/vec.hpp"

namespace pvr::render {

class Decomposition {
 public:
  /// Splits `dims` into `num_blocks` regular blocks arranged as the most
  /// cubic factorization of num_blocks. Residual voxels are distributed to
  /// the leading blocks so the union exactly tiles the volume.
  Decomposition(const Vec3i& dims, std::int64_t num_blocks);

  const Vec3i& dims() const { return dims_; }
  const Vec3i& block_grid() const { return grid_; }
  std::int64_t num_blocks() const { return grid_.volume(); }

  Vec3i block_coords(std::int64_t block) const {
    PVR_ASSERT(block >= 0 && block < num_blocks());
    return {block % grid_.x, (block / grid_.x) % grid_.y,
            block / (grid_.x * grid_.y)};
  }
  std::int64_t block_of_coords(const Vec3i& c) const {
    return c.x + grid_.x * (c.y + grid_.y * c.z);
  }

  /// Voxel box owned by a block (half-open); boxes partition the volume.
  Box3i block_box(std::int64_t block) const;

  /// Owned box extended by `ghost` voxels per side, clipped to the volume
  /// (the region a rank must load so trilinear sampling works everywhere in
  /// its owned box).
  Box3i ghost_box(std::int64_t block, int ghost = 1) const;

  /// Round-robin static block assignment: block b belongs to rank b when
  /// one block per rank; with `blocks_per_rank` > 1 the blocks cycle over
  /// ranks, matching the paper's static allocation.
  static std::int64_t rank_of_block(std::int64_t block,
                                    std::int64_t num_ranks) {
    return block % num_ranks;
  }

 private:
  /// Per-axis boundary positions (grid_[axis] + 1 entries).
  std::vector<std::int64_t> bounds_[3];
  Vec3i dims_;
  Vec3i grid_;
};

}  // namespace pvr::render
