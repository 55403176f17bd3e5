// Ray-packet raycasting kernel: 8-wide lockstep march over the global
// sample lattice, cache-blocked into pixel tiles. It is the renderer's only
// kernel, univariate and bivariate (Raycaster::render_rect calls it).
// Per-lane arithmetic is the per-ray reference march written expression by
// expression, and tests/simd_test.cpp keeps that march as the oracle whose
// pixels and sample counts the kernel must match bitwise (DESIGN.md §8.1).
#pragma once

#include <cstdint>

#include "render/camera.hpp"
#include "render/simd/tf_lut.hpp"
#include "util/brick.hpp"
#include "util/color.hpp"
#include "util/image.hpp"

namespace pvr::render::simd {

/// Everything the packet kernel needs, hoisted once per render_rect call.
struct KernelParams {
  const Brick* brick = nullptr;
  const Camera* camera = nullptr;
  const TfLut* lut = nullptr;
  /// Bivariate renders only: opacity is sampled from `opacity_brick`
  /// through `opacity_lut`, colour from `brick` through `lut`. Both set or
  /// both null; the two bricks must share one box.
  const Brick* opacity_brick = nullptr;
  const TfLut* opacity_lut = nullptr;
  Box3d region;   ///< half-open sample-ownership box (world space)
  Box3d vol;      ///< whole-volume world box (lattice origin)
  bool region_is_volume = false;
  double dt = 0.0;           ///< step_world: lattice spacing along the ray
  double inv_h = 0.0;        ///< 1 / voxel size
  float value_scale = 1.0f;  ///< hoisted normalization: v = raw*scale + bias
  float value_bias = 0.0f;
  float early_termination = 1.0f;
};

/// Renders rows [row_begin, row_end) of `rect` (rows counted from rect.y0)
/// into `out`, the packed pixel buffer of the whole rect (row-major, width
/// = rect.width(); pixel (x, row) lives at out[row * width + (x - rect.x0)]).
/// Rows outside the band are not touched. Returns the number of lattice
/// samples taken. Lanes index the brick in int32, so the brick must hold
/// fewer than 2^31 - 1 voxels; a larger one throws pvr::Error, as does an
/// opacity brick whose box differs from the colour brick's.
std::int64_t render_rows(const KernelParams& kp, const Rect& rect,
                         std::int64_t row_begin, std::int64_t row_end,
                         Rgba* out);

}  // namespace pvr::render::simd
