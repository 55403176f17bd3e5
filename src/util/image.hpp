// Image container (RGBA float), screen-space rectangles, and portable
// PPM/PGM writers used to inspect rendered frames and I/O access maps.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/color.hpp"
#include "util/error.hpp"

namespace pvr {

/// Half-open 2D pixel rectangle [lo, hi) in image coordinates.
struct Rect {
  int x0 = 0, y0 = 0, x1 = 0, y1 = 0;

  constexpr Rect() = default;
  constexpr Rect(int x0_, int y0_, int x1_, int y1_)
      : x0(x0_), y0(y0_), x1(x1_), y1(y1_) {}

  constexpr int width() const { return x1 - x0; }
  constexpr int height() const { return y1 - y0; }
  constexpr std::int64_t pixel_count() const {
    return empty() ? 0 : std::int64_t(width()) * height();
  }
  constexpr bool empty() const { return x1 <= x0 || y1 <= y0; }
  constexpr bool contains(int x, int y) const {
    return x >= x0 && x < x1 && y >= y0 && y < y1;
  }
  constexpr Rect intersect(const Rect& o) const {
    Rect r{std::max(x0, o.x0), std::max(y0, o.y0), std::min(x1, o.x1),
           std::min(y1, o.y1)};
    return r;
  }
  constexpr bool operator==(const Rect&) const = default;
};

/// Row-major RGBA image. Pixels are premultiplied-alpha floats.
class Image {
 public:
  Image() = default;
  Image(int width, int height)
      : width_(width),
        height_(height),
        pixels_(static_cast<std::size_t>(width) * height) {
    PVR_REQUIRE(width >= 0 && height >= 0, "image dimensions must be >= 0");
  }

  int width() const { return width_; }
  int height() const { return height_; }
  Rect bounds() const { return Rect{0, 0, width_, height_}; }

  Rgba& at(int x, int y) { return pixels_[index(x, y)]; }
  const Rgba& at(int x, int y) const { return pixels_[index(x, y)]; }

  std::span<Rgba> pixels() { return pixels_; }
  std::span<const Rgba> pixels() const { return pixels_; }

  void fill(const Rgba& c) { std::fill(pixels_.begin(), pixels_.end(), c); }

  /// Copies the given rectangle into a tightly packed pixel buffer.
  std::vector<Rgba> extract(const Rect& r) const;
  /// Writes a tightly packed pixel buffer into the given rectangle.
  void insert(const Rect& r, std::span<const Rgba> src);

  /// Largest absolute channel difference against another image of the same
  /// size. Throws if sizes differ.
  float max_difference(const Image& other) const;

 private:
  std::size_t index(int x, int y) const {
    PVR_ASSERT(x >= 0 && x < width_ && y >= 0 && y < height_);
    return static_cast<std::size_t>(y) * width_ + x;
  }

  int width_ = 0;
  int height_ = 0;
  std::vector<Rgba> pixels_;
};

/// Writes a binary PPM (P6) file; alpha is composited over `background`.
void write_ppm(const Image& image, const std::string& path,
               const Rgba& background = {0, 0, 0, 1});

/// Writes a binary PGM (P5) grayscale file from a row-major byte matrix.
void write_pgm(std::span<const std::uint8_t> gray, int width, int height,
               const std::string& path);

}  // namespace pvr
