#include "compose/image_partition.hpp"

#include <cmath>

#include "util/error.hpp"

namespace pvr::compose {

ImagePartition::ImagePartition(int width, int height, std::int64_t num_tiles)
    : width_(width), height_(height) {
  PVR_REQUIRE(width > 0 && height > 0, "image must be non-empty");
  PVR_REQUIRE(num_tiles > 0, "need at least one tile");
  PVR_REQUIRE(num_tiles <= std::int64_t(width) * height,
              "more tiles than pixels");
  // Most square factorization tiles_x * tiles_y == num_tiles with the grid
  // oriented to the image aspect.
  std::int64_t best_x = 1;
  for (std::int64_t d = 1; d * d <= num_tiles; ++d) {
    if (num_tiles % d == 0) best_x = d;
  }
  std::int64_t a = best_x, b = num_tiles / best_x;  // a <= b
  if (width >= height) {
    tiles_x_ = b;
    tiles_y_ = a;
  } else {
    tiles_x_ = a;
    tiles_y_ = b;
  }
  // A pathological prime count may exceed an axis; fall back to a 1D strip
  // along the longer axis (still a valid partition).
  if (tiles_x_ > width || tiles_y_ > height) {
    PVR_REQUIRE(num_tiles <= std::int64_t(std::max(width, height)),
                "tile count does not fit the image");
    if (width >= height) {
      tiles_x_ = num_tiles;
      tiles_y_ = 1;
    } else {
      tiles_x_ = 1;
      tiles_y_ = num_tiles;
    }
  }
  const auto edges = [](std::int64_t extent, std::int64_t count) {
    std::vector<int> e;
    e.reserve(static_cast<std::size_t>(count + 1));
    for (std::int64_t c = 0; c <= count; ++c) {
      e.push_back(int(extent * c / count));
    }
    return e;
  };
  x_edges_ = edges(width_, tiles_x_);
  y_edges_ = edges(height_, tiles_y_);
}

Rect ImagePartition::tile(std::int64_t i) const {
  PVR_ASSERT(i >= 0 && i < num_tiles());
  return tile(i % tiles_x_, i / tiles_x_);
}

std::int64_t ImagePartition::tile_of(int x, int y) const {
  PVR_ASSERT(x >= 0 && x < width_ && y >= 0 && y < height_);
  // Inverse of the floor splits: the tile whose range contains the pixel.
  std::int64_t tx = (std::int64_t(x) * tiles_x_ + tiles_x_ - 1) / width_;
  while (tx > 0 && x_edges_[std::size_t(tx)] > x) --tx;
  while (tx + 1 < tiles_x_ && x_edges_[std::size_t(tx + 1)] <= x) ++tx;
  std::int64_t ty = (std::int64_t(y) * tiles_y_ + tiles_y_ - 1) / height_;
  while (ty > 0 && y_edges_[std::size_t(ty)] > y) --ty;
  while (ty + 1 < tiles_y_ && y_edges_[std::size_t(ty + 1)] <= y) ++ty;
  return tile_index(tx, ty);
}

void ImagePartition::tile_range(const Rect& r, std::int64_t* tx0,
                                std::int64_t* tx1, std::int64_t* ty0,
                                std::int64_t* ty1) const {
  if (r.empty()) {
    *tx0 = *tx1 = *ty0 = *ty1 = 0;
    return;
  }
  const std::int64_t first = tile_of(r.x0, r.y0);
  const std::int64_t last = tile_of(r.x1 - 1, r.y1 - 1);
  *tx0 = first % tiles_x_;
  *ty0 = first / tiles_x_;
  *tx1 = last % tiles_x_ + 1;
  *ty1 = last / tiles_x_ + 1;
}

}  // namespace pvr::compose
