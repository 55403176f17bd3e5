#include "render/raycaster.hpp"

#include <algorithm>
#include <optional>

#include "render/simd/packet_kernel.hpp"
#include "render/simd/tf_lut.hpp"
#include "util/error.hpp"

namespace pvr::render {

namespace {

/// Sums per-chunk sample tallies in chunk index order (exact — integers).
std::int64_t merge_samples(const std::vector<std::int64_t>& chunk_samples) {
  std::int64_t total = 0;
  for (const std::int64_t s : chunk_samples) total += s;
  return total;
}

}  // namespace

Raycaster::Raycaster(const Vec3i& volume_dims, RenderConfig config)
    : dims_(volume_dims), config_(config) {
  PVR_REQUIRE(dims_.x > 0 && dims_.y > 0 && dims_.z > 0,
              "volume dims must be positive");
  PVR_REQUIRE(config_.step_voxels > 0, "step must be positive");
  PVR_REQUIRE(config_.value_hi > config_.value_lo, "bad value range");
  h_ = voxel_size(dims_);
  inv_h_ = 1.0 / h_;
  step_world_ = config_.step_voxels * h_;
  // The packet kernel carries lattice indices in int32 lanes. No ray's
  // lattice range is longer than the world box's diagonal plus a step at
  // each end; half of int32 leaves room for the rounding of t.
  PVR_REQUIRE(world_box(dims_).extent().length() / step_world_ <= 0x1p30,
              "step too small: the world box spans more than 2^30 lattice "
              "steps");
  value_scale_ = 1.0f / (config_.value_hi - config_.value_lo);
  value_bias_ = -config_.value_lo * value_scale_;
}

namespace {

/// The brick must cover `owned` plus a one-voxel ghost layer clipped to the
/// volume.
void require_ghost_coverage(const Brick& brick, const Box3i& owned,
                            const Vec3i& dims) {
  const Vec3i g{1, 1, 1};
  const Box3i need{max(owned.lo - g, Vec3i{0, 0, 0}), min(owned.hi + g, dims)};
  PVR_REQUIRE(brick.box().intersect(need) == need,
              "brick does not cover owned box + ghost layer");
}

bool same_box(const Box3d& a, const Box3d& b) {
  return a.lo.x == b.lo.x && a.lo.y == b.lo.y && a.lo.z == b.lo.z &&
         a.hi.x == b.hi.x && a.hi.y == b.hi.y && a.hi.z == b.hi.z;
}

}  // namespace

void Raycaster::render_rect(const Source& src, const Box3d& region,
                            bool region_is_volume, const Camera& camera,
                            par::ThreadPool* pool, SubImage* out) const {
  out->pixels.assign(std::size_t(out->rect.pixel_count()), kTransparent);

  // Scanline chunks: each chunk writes a disjoint row range of out->pixels
  // and tallies its own sample count; rays are independent, so any thread
  // count produces identical pixels, and the chunk-ordered sample merge is
  // exact.
  const std::int64_t rows = out->rect.y1 - out->rect.y0;
  std::vector<std::int64_t> chunk_samples(
      std::size_t(par::plan_chunks(rows).count), 0);
  const float step = float(config_.step_voxels);
  const simd::TfLut lut(*src.tf, step);
  std::optional<simd::TfLut> opacity_lut;
  simd::KernelParams kp;
  kp.brick = src.brick;
  kp.camera = &camera;
  kp.lut = &lut;
  if (src.opacity_brick != nullptr) {
    opacity_lut.emplace(*src.opacity_tf, step);
    kp.opacity_brick = src.opacity_brick;
    kp.opacity_lut = &*opacity_lut;
  }
  kp.region = region;
  kp.vol = world_box(dims_);
  kp.region_is_volume = region_is_volume;
  kp.dt = step_world_;
  kp.inv_h = inv_h_;
  kp.value_scale = value_scale_;
  kp.value_bias = value_bias_;
  kp.early_termination = float(config_.early_termination);
  par::parallel_for(
      pool, rows, /*min_grain=*/1,
      [&](std::int64_t row_begin, std::int64_t row_end, std::int64_t chunk) {
        chunk_samples[std::size_t(chunk)] = simd::render_rows(
            kp, out->rect, row_begin, row_end, out->pixels.data());
      });
  out->samples = merge_samples(chunk_samples);
}

SubImage Raycaster::render_owned(const Source& src, const Box3i& owned,
                                 const Camera& camera, const RowBand* band,
                                 par::ThreadPool* pool) const {
  PVR_REQUIRE(!owned.empty(), "owned box must not be empty");
  require_ghost_coverage(*src.brick, owned, dims_);
  PVR_REQUIRE(src.opacity_brick == nullptr ||
                  src.opacity_brick->box() == src.brick->box(),
              "colour and opacity bricks must share one box");

  const Box3d region = world_box_of(owned, dims_);
  const bool region_is_volume = same_box(region, world_box(dims_));
  SubImage out;
  out.rect = camera.footprint(region);
  if (band != nullptr) {
    const std::int64_t rows = std::max(0, out.rect.height());
    PVR_REQUIRE(band->begin >= 0 && band->begin <= band->end &&
                    band->end <= rows,
                "row band outside the block footprint");
    out.rect = Rect{out.rect.x0, out.rect.y0 + int(band->begin), out.rect.x1,
                    out.rect.y0 + int(band->end)};
  }
  out.depth = camera.depth_of(
      {region.center().x, region.center().y, region.center().z});
  render_rect(src, region, region_is_volume, camera, pool, &out);
  return out;
}

SubImage Raycaster::render_block(const Brick& brick, const Box3i& owned,
                                 const Camera& camera,
                                 const TransferFunction& tf,
                                 par::ThreadPool* pool) const {
  return render_owned({&brick, &tf}, owned, camera, nullptr, pool);
}

SubImage Raycaster::render_block_rows(const Brick& brick, const Box3i& owned,
                                      const Camera& camera,
                                      const TransferFunction& tf,
                                      std::int64_t row_begin,
                                      std::int64_t row_end,
                                      par::ThreadPool* pool) const {
  const RowBand band{row_begin, row_end};
  return render_owned({&brick, &tf}, owned, camera, &band, pool);
}

SubImage Raycaster::render_block(const Brick& color_brick,
                                 const Brick& opacity_brick,
                                 const Box3i& owned, const Camera& camera,
                                 const BivariateTransferFunction& tf,
                                 par::ThreadPool* pool) const {
  return render_owned(
      {&color_brick, &tf.color_tf(), &opacity_brick, &tf.opacity_tf()}, owned,
      camera, nullptr, pool);
}

SubImage Raycaster::render_block_rows(const Brick& color_brick,
                                      const Brick& opacity_brick,
                                      const Box3i& owned,
                                      const Camera& camera,
                                      const BivariateTransferFunction& tf,
                                      std::int64_t row_begin,
                                      std::int64_t row_end,
                                      par::ThreadPool* pool) const {
  const RowBand band{row_begin, row_end};
  return render_owned(
      {&color_brick, &tf.color_tf(), &opacity_brick, &tf.opacity_tf()}, owned,
      camera, &band, pool);
}

Image Raycaster::render_full(const Brick& brick, const Camera& camera,
                             const TransferFunction& tf, par::ThreadPool* pool,
                             std::int64_t* samples) const {
  const Box3i whole{{0, 0, 0}, dims_};
  PVR_REQUIRE(brick.box() == whole, "full render needs the whole volume");
  // Render through render_rect so the serial reference shares the kernel
  // and reports real sample tallies (the whole-image lattice count, which
  // equals the sum over any block decomposition of the same volume).
  SubImage sub;
  sub.rect = Rect{0, 0, camera.width(), camera.height()};
  render_rect({&brick, &tf}, world_box(dims_), /*region_is_volume=*/true,
              camera, pool, &sub);
  Image img(camera.width(), camera.height());
  std::copy(sub.pixels.begin(), sub.pixels.end(), img.pixels().begin());
  if (samples != nullptr) *samples = sub.samples;
  return img;
}

}  // namespace pvr::render
