#include "render/raycaster.hpp"

#include <algorithm>
#include <cmath>

#include "render/simd/packet_kernel.hpp"
#include "render/simd/tf_lut.hpp"
#include "render/trilinear.hpp"
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

float Raycaster::sample_world(const Brick& brick, const Vec3d& world) const {
  return sample_trilinear(brick, inv_h_, world);
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

void Raycaster::render_rect(const Brick& brick, const Box3d& region,
                            bool region_is_volume, const Camera& camera,
                            const TransferFunction& tf, par::ThreadPool* pool,
                            SubImage* out) const {
  out->pixels.assign(std::size_t(out->rect.pixel_count()), kTransparent);

  // Scanline chunks: each chunk writes a disjoint row range of out->pixels
  // and tallies its own sample count; rays are independent, so any thread
  // count produces identical pixels, and the chunk-ordered sample merge is
  // exact.
  const std::int64_t rows = out->rect.y1 - out->rect.y0;
  std::vector<std::int64_t> chunk_samples(
      std::size_t(par::plan_chunks(rows).count), 0);
  const simd::TfLut lut(tf, float(config_.step_voxels));
  simd::KernelParams kp;
  kp.brick = &brick;
  kp.camera = &camera;
  kp.lut = &lut;
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

SubImage Raycaster::render_block(const Brick& brick, const Box3i& owned,
                                 const Camera& camera,
                                 const TransferFunction& tf,
                                 par::ThreadPool* pool) const {
  PVR_REQUIRE(!owned.empty(), "owned box must not be empty");
  require_ghost_coverage(brick, owned, dims_);

  const Box3d region = world_box_of(owned, dims_);
  const bool region_is_volume = same_box(region, world_box(dims_));
  SubImage out;
  out.rect = camera.footprint(region);
  out.depth = camera.depth_of(
      {region.center().x, region.center().y, region.center().z});
  render_rect(brick, region, region_is_volume, camera, tf, pool, &out);
  return out;
}

SubImage Raycaster::render_block_rows(const Brick& brick, const Box3i& owned,
                                      const Camera& camera,
                                      const TransferFunction& tf,
                                      std::int64_t row_begin,
                                      std::int64_t row_end,
                                      par::ThreadPool* pool) const {
  PVR_REQUIRE(!owned.empty(), "owned box must not be empty");
  require_ghost_coverage(brick, owned, dims_);

  const Box3d region = world_box_of(owned, dims_);
  const bool region_is_volume = same_box(region, world_box(dims_));
  const Rect full = camera.footprint(region);
  const std::int64_t rows = std::max(0, full.height());
  PVR_REQUIRE(row_begin >= 0 && row_begin <= row_end && row_end <= rows,
              "row band outside the block footprint");
  SubImage out;
  out.rect = Rect{full.x0, full.y0 + int(row_begin), full.x1,
                  full.y0 + int(row_end)};
  out.depth = camera.depth_of(
      {region.center().x, region.center().y, region.center().z});
  render_rect(brick, region, region_is_volume, camera, tf, pool, &out);
  return out;
}

SubImage Raycaster::render_block_bivariate(
    const Brick& color_brick, const Brick& opacity_brick, const Box3i& owned,
    const Camera& camera, const BivariateTransferFunction& tf,
    par::ThreadPool* pool) const {
  PVR_REQUIRE(!owned.empty(), "owned box must not be empty");
  require_ghost_coverage(color_brick, owned, dims_);
  require_ghost_coverage(opacity_brick, owned, dims_);

  const Box3d vol = world_box(dims_);
  const Box3d region = world_box_of(owned, dims_);
  const bool region_is_volume = same_box(region, vol);
  SubImage out;
  out.rect = camera.footprint(region);
  out.depth = camera.depth_of(
      {region.center().x, region.center().y, region.center().z});
  out.pixels.assign(std::size_t(out.rect.pixel_count()), kTransparent);

  const float step = float(config_.step_voxels);
  const double dt = step_world_;
  const std::int64_t rows = out.rect.y1 - out.rect.y0;
  const std::size_t width = std::size_t(out.rect.x1 - out.rect.x0);
  std::vector<std::int64_t> chunk_samples(
      std::size_t(par::plan_chunks(rows).count), 0);
  par::parallel_for(
      pool, rows, /*min_grain=*/1,
      [&](std::int64_t row_begin, std::int64_t row_end, std::int64_t chunk) {
        std::int64_t samples = 0;
        for (std::int64_t row = row_begin; row < row_end; ++row) {
          const int py = out.rect.y0 + int(row);
          std::size_t i = std::size_t(row) * width;
          for (int px = out.rect.x0; px < out.rect.x1; ++px, ++i) {
            const Ray ray = camera.ray(px, py);
            const auto vol_hit = intersect(ray, vol);
            if (!vol_hit) continue;
            double reg_enter = vol_hit->t_enter;
            double reg_exit = vol_hit->t_exit;
            if (!region_is_volume) {
              const auto reg_hit = intersect(ray, region);
              if (!reg_hit) continue;
              reg_enter = reg_hit->t_enter;
              reg_exit = reg_hit->t_exit;
            }
            const double t0 = vol_hit->t_enter;
            std::int64_t k = std::max<std::int64_t>(
                0, std::int64_t(std::floor((reg_enter - t0) / dt)) - 1);
            const std::int64_t k_end =
                std::int64_t(std::ceil((reg_exit - t0) / dt)) + 1;
            Rgba acc = kTransparent;
            for (; k <= k_end; ++k) {
              const double t = t0 + double(k) * dt;
              if (t > vol_hit->t_exit) break;
              const Vec3d p = ray.at(t);
              if (p.x < region.lo.x || p.x >= region.hi.x ||
                  p.y < region.lo.y || p.y >= region.hi.y ||
                  p.z < region.lo.z || p.z >= region.hi.z) {
                continue;
              }
              const float cv =
                  sample_world(color_brick, p) * value_scale_ + value_bias_;
              const float ov =
                  sample_world(opacity_brick, p) * value_scale_ + value_bias_;
              acc.blend_under(tf.sample(cv, ov, step));
              ++samples;
              if (acc.a >= float(config_.early_termination)) break;
            }
            out.pixels[i] = acc;
          }
        }
        chunk_samples[std::size_t(chunk)] = samples;
      });
  out.samples = merge_samples(chunk_samples);
  return out;
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
  render_rect(brick, world_box(dims_), /*region_is_volume=*/true, camera, tf,
              pool, &sub);
  Image img(camera.width(), camera.height());
  std::copy(sub.pixels.begin(), sub.pixels.end(), img.pixels().begin());
  if (samples != nullptr) *samples = sub.samples;
  return img;
}

}  // namespace pvr::render
