#include "util/image.hpp"

#include <cstdio>
#include <memory>

namespace pvr {

std::vector<Rgba> Image::extract(const Rect& r) const {
  PVR_REQUIRE(r.x0 >= 0 && r.y0 >= 0 && r.x1 <= width_ && r.y1 <= height_,
              "extract rectangle out of bounds");
  std::vector<Rgba> out;
  out.reserve(static_cast<std::size_t>(r.pixel_count()));
  for (int y = r.y0; y < r.y1; ++y) {
    for (int x = r.x0; x < r.x1; ++x) {
      out.push_back(at(x, y));
    }
  }
  return out;
}

void Image::insert(const Rect& r, std::span<const Rgba> src) {
  PVR_REQUIRE(r.x0 >= 0 && r.y0 >= 0 && r.x1 <= width_ && r.y1 <= height_,
              "insert rectangle out of bounds");
  PVR_REQUIRE(std::int64_t(src.size()) == r.pixel_count(),
              "insert buffer size mismatch");
  std::size_t i = 0;
  for (int y = r.y0; y < r.y1; ++y) {
    for (int x = r.x0; x < r.x1; ++x) {
      at(x, y) = src[i++];
    }
  }
}

float Image::max_difference(const Image& other) const {
  PVR_REQUIRE(width_ == other.width_ && height_ == other.height_,
              "image size mismatch");
  float worst = 0.0f;
  for (std::size_t i = 0; i < pixels_.size(); ++i) {
    worst = std::max(worst, max_channel_diff(pixels_[i], other.pixels_[i]));
  }
  return worst;
}

namespace {

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

FilePtr open_for_write(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (!f) throw Error("cannot open for writing: " + path);
  return f;
}

}  // namespace

void write_ppm(const Image& image, const std::string& path,
               const Rgba& background) {
  FilePtr f = open_for_write(path);
  std::fprintf(f.get(), "P6\n%d %d\n255\n", image.width(), image.height());
  std::vector<std::uint8_t> row(static_cast<std::size_t>(image.width()) * 3);
  for (int y = 0; y < image.height(); ++y) {
    for (int x = 0; x < image.width(); ++x) {
      const Rgba c = image.at(x, y).over(background);
      row[static_cast<std::size_t>(x) * 3 + 0] = to_u8(c.r);
      row[static_cast<std::size_t>(x) * 3 + 1] = to_u8(c.g);
      row[static_cast<std::size_t>(x) * 3 + 2] = to_u8(c.b);
    }
    if (std::fwrite(row.data(), 1, row.size(), f.get()) != row.size()) {
      throw Error("short write: " + path);
    }
  }
}

void write_pgm(std::span<const std::uint8_t> gray, int width, int height,
               const std::string& path) {
  PVR_REQUIRE(std::int64_t(gray.size()) == std::int64_t(width) * height,
              "pgm buffer size mismatch");
  FilePtr f = open_for_write(path);
  std::fprintf(f.get(), "P5\n%d %d\n255\n", width, height);
  if (std::fwrite(gray.data(), 1, gray.size(), f.get()) != gray.size()) {
    throw Error("short write: " + path);
  }
}

}  // namespace pvr
