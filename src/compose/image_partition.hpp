// Partition of the final image among m compositors: a near-square grid of
// tiles, tile i owned by compositor rank i. Every pixel belongs to exactly
// one tile. Column c spans pixels [width * c / tiles_x, width * (c + 1) /
// tiles_x), rows likewise; the constructor tabulates those edges once, so
// a tile's rect is table reads rather than divisions.
#pragma once

#include <cstdint>
#include <vector>

#include "util/error.hpp"
#include "util/image.hpp"

namespace pvr::compose {

class ImagePartition {
 public:
  ImagePartition(int width, int height, std::int64_t num_tiles);

  int width() const { return width_; }
  int height() const { return height_; }
  std::int64_t num_tiles() const { return tiles_x_ * tiles_y_; }
  std::int64_t tiles_x() const { return tiles_x_; }
  std::int64_t tiles_y() const { return tiles_y_; }

  Rect tile(std::int64_t i) const;

  /// Tile in grid column tx and row ty.
  Rect tile(std::int64_t tx, std::int64_t ty) const {
    PVR_ASSERT(tx >= 0 && tx < tiles_x_ && ty >= 0 && ty < tiles_y_);
    const auto x = static_cast<std::size_t>(tx);
    const auto y = static_cast<std::size_t>(ty);
    return Rect{x_edges_[x], y_edges_[y], x_edges_[x + 1], y_edges_[y + 1]};
  }

  /// Tile containing pixel (x, y).
  std::int64_t tile_of(int x, int y) const;

  /// Range of tile indices whose rects intersect `r` is a sub-grid;
  /// this returns the tile-grid coordinate bounds [tx0, tx1) x [ty0, ty1).
  void tile_range(const Rect& r, std::int64_t* tx0, std::int64_t* tx1,
                  std::int64_t* ty0, std::int64_t* ty1) const;

  std::int64_t tile_index(std::int64_t tx, std::int64_t ty) const {
    return ty * tiles_x_ + tx;
  }

 private:
  int width_, height_;
  std::int64_t tiles_x_, tiles_y_;
  /// Column and row edges: tiles_x + 1 and tiles_y + 1 pixel offsets, from
  /// 0 to the width and to the height.
  std::vector<int> x_edges_, y_edges_;
};

}  // namespace pvr::compose
