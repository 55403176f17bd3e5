// Front-to-back ray-casting volume renderer (paper §III-B.2). Each rank
// renders only its own block; samples lie on a *global* ray lattice
// (t = t_enter(volume) + k * dt), and a sample belongs to exactly the block
// whose half-open voxel box contains its position — so compositing the
// per-block subimages in visibility order reproduces the serial rendering
// bit-for-bit up to floating-point blending order. Univariate and bivariate
// (colour from one variable, opacity from another) renders march the same
// packet kernel over the same lattice.
#pragma once

#include <cstdint>
#include <vector>

#include "par/thread_pool.hpp"
#include "render/camera.hpp"
#include "render/transfer_function.hpp"
#include "util/brick.hpp"
#include "util/color.hpp"
#include "util/image.hpp"

namespace pvr::render {

struct RenderConfig {
  /// Sampling step in voxel units along the ray.
  double step_voxels = 1.0;
  /// Terminate a ray once accumulated alpha reaches this value; >= 1
  /// disables early termination (required when comparing parallel and
  /// serial renderings exactly, since a block cannot see upstream opacity).
  double early_termination = 1.0;
  /// Values mapped to [0,1] for the transfer function: (v - lo) / (hi - lo).
  float value_lo = 0.0f;
  float value_hi = 1.0f;
};

/// Rows [begin, end) of a block's screen footprint, counted from its top
/// edge: the unit of render-stage work stealing.
struct RowBand {
  std::int64_t begin = 0, end = 0;
};

/// A rendered block subimage: packed pixels over a screen rectangle plus the
/// block's visibility depth.
struct SubImage {
  Rect rect;                 ///< screen footprint (possibly empty)
  std::vector<Rgba> pixels;  ///< rect.pixel_count() premultiplied pixels
  double depth = 0.0;        ///< view depth of the block center
  std::int64_t samples = 0;  ///< ray samples taken (render cost metric)
};

class Raycaster {
 public:
  /// `volume_dims` defines the world box and the global sample lattice.
  /// The packet kernel indexes the lattice in int32 lanes, so a step under
  /// 2^-30 of the world box's diagonal throws pvr::Error.
  Raycaster(const Vec3i& volume_dims, RenderConfig config);

  const RenderConfig& config() const { return config_; }
  double step_world() const { return step_world_; }

  /// Renders the given owned region (`owned` voxel box, half-open) from
  /// `brick`, which must cover owned plus a one-voxel ghost layer (clipped
  /// to the volume). Only pixels inside the block's screen footprint are
  /// produced. Rays march in 8-ray packets (src/render/simd/), which index
  /// the brick in int32 lanes: a brick of 2^31 or more voxels throws
  /// pvr::Error. `pool`, if non-null and multi-threaded, renders scanline
  /// chunks in parallel; pixels and sample counts are bit-identical for any
  /// thread count (rays are independent; per-chunk sample tallies merge in
  /// chunk order — DESIGN.md §8).
  SubImage render_block(const Brick& brick, const Box3i& owned,
                        const Camera& camera, const TransferFunction& tf,
                        par::ThreadPool* pool = nullptr) const;

  /// Renders only rows [row_begin, row_end) of the block's screen footprint
  /// (rows counted from the footprint's top edge). Returns a band SubImage
  /// whose rect is the footprint clipped to that row range. Samples lie on
  /// the global ray lattice and rays are independent, so stitching disjoint
  /// bands back together in row order reproduces render_block's pixels and
  /// total sample count bit-for-bit — the basis of render-stage work
  /// stealing, where thief ranks render bands of a victim's block.
  SubImage render_block_rows(const Brick& brick, const Box3i& owned,
                             const Camera& camera, const TransferFunction& tf,
                             std::int64_t row_begin, std::int64_t row_end,
                             par::ThreadPool* pool = nullptr) const;

  /// Bivariate render_block and render_block_rows: r, g, b from
  /// `color_brick` through tf.color_tf(), opacity from `opacity_brick`
  /// through tf.opacity_tf() (BivariateTransferFunction::sample). The two
  /// bricks must share one box, which covers owned plus the ghost layer;
  /// unequal boxes throw pvr::Error. Same packet kernel, lattice and
  /// bitwise guarantees as the univariate renders.
  SubImage render_block(const Brick& color_brick, const Brick& opacity_brick,
                        const Box3i& owned, const Camera& camera,
                        const BivariateTransferFunction& tf,
                        par::ThreadPool* pool = nullptr) const;
  SubImage render_block_rows(const Brick& color_brick,
                             const Brick& opacity_brick, const Box3i& owned,
                             const Camera& camera,
                             const BivariateTransferFunction& tf,
                             std::int64_t row_begin, std::int64_t row_end,
                             par::ThreadPool* pool = nullptr) const;

  /// Serial reference: renders the whole volume from a single brick
  /// covering it, into a full image. `samples`, if non-null, receives the
  /// real per-ray sample tally (equal to the sum of per-block samples of
  /// any decomposition of the same volume — the lattice partitions).
  Image render_full(const Brick& brick, const Camera& camera,
                    const TransferFunction& tf, par::ThreadPool* pool = nullptr,
                    std::int64_t* samples = nullptr) const;

 private:
  /// What a render samples: one brick through one transfer function, or
  /// (bivariate) colour and opacity bricks through their own.
  struct Source {
    const Brick* brick = nullptr;
    const TransferFunction* tf = nullptr;
    const Brick* opacity_brick = nullptr;
    const TransferFunction* opacity_tf = nullptr;
  };

  /// The four render_block* entry points: renders `owned` from `src`, over
  /// its whole screen footprint or only the rows of `band` if non-null.
  SubImage render_owned(const Source& src, const Box3i& owned,
                        const Camera& camera, const RowBand* band,
                        par::ThreadPool* pool) const;
  /// Fills `out->pixels` for the preset `out->rect` (full footprint or a row
  /// band of it) with the packet kernel (src/render/simd/), in scanline
  /// chunks; shared by every render entry point. `region_is_volume` lets
  /// the kernel skip the second (redundant) box intersection when the
  /// region is the whole volume box.
  void render_rect(const Source& src, const Box3d& region,
                   bool region_is_volume, const Camera& camera,
                   par::ThreadPool* pool, SubImage* out) const;

  Vec3i dims_;
  RenderConfig config_;
  double step_world_ = 0.0;
  double h_ = 0.0;      ///< voxel size in world units
  double inv_h_ = 0.0;  ///< 1 / h_, hoisted out of the per-sample divide
  /// Hoisted value normalization: v = raw * value_scale_ + value_bias_
  /// (one multiply-add per sample instead of subtract + multiply).
  float value_scale_ = 1.0f;
  float value_bias_ = 0.0f;
};

}  // namespace pvr::render
