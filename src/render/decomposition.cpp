#include "render/decomposition.hpp"

#include <algorithm>

#include "machine/partition.hpp"

namespace pvr::render {

namespace {

/// Splits `extent` into `parts` spans whose sizes differ by at most one.
std::vector<std::int64_t> split_axis(std::int64_t extent,
                                     std::int64_t parts) {
  std::vector<std::int64_t> bounds(std::size_t(parts) + 1);
  for (std::int64_t i = 0; i <= parts; ++i) {
    bounds[std::size_t(i)] = extent * i / parts;
  }
  return bounds;
}

}  // namespace

Decomposition::Decomposition(const Vec3i& dims, std::int64_t num_blocks)
    : dims_(dims) {
  PVR_REQUIRE(dims.x > 0 && dims.y > 0 && dims.z > 0,
              "volume dims must be positive");
  PVR_REQUIRE(num_blocks > 0, "need at least one block");
  PVR_REQUIRE(num_blocks <= dims.volume(),
              "more blocks than voxels");
  // Most cubic factorization, assigning larger factors to larger axes so
  // blocks stay as cubic as possible for non-cubic volumes.
  Vec3i f = machine::Partition::cubic_factorization(num_blocks);  // ascending
  int axis_order[3] = {0, 1, 2};
  std::sort(std::begin(axis_order), std::end(axis_order),
            [&](int a, int b) { return dims_[a] < dims_[b]; });
  grid_[axis_order[0]] = f.x;
  grid_[axis_order[1]] = f.y;
  grid_[axis_order[2]] = f.z;
  PVR_REQUIRE(grid_.x <= dims.x && grid_.y <= dims.y && grid_.z <= dims.z,
              "block grid does not fit the volume");
  for (int a = 0; a < 3; ++a) bounds_[a] = split_axis(dims_[a], grid_[a]);
}

Box3i Decomposition::block_box(std::int64_t block) const {
  const Vec3i c = block_coords(block);
  Box3i box;
  for (int a = 0; a < 3; ++a) {
    box.lo[a] = bounds_[a][std::size_t(c[a])];
    box.hi[a] = bounds_[a][std::size_t(c[a]) + 1];
  }
  return box;
}

Box3i Decomposition::ghost_box(std::int64_t block, int ghost) const {
  PVR_REQUIRE(ghost >= 0, "ghost must be >= 0");
  const Box3i own = block_box(block);
  const Vec3i g{ghost, ghost, ghost};
  return Box3i{max(own.lo - g, Vec3i{0, 0, 0}), min(own.hi + g, dims_)};
}

}  // namespace pvr::render
