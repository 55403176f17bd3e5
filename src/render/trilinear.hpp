// The renderer's one scalar trilinear sample. The per-ray test oracle calls
// it, and the packet kernel's vector march replays it expression by
// expression, so kernel and oracle interpolate with the same IEEE
// operations.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "util/brick.hpp"
#include "util/vec.hpp"

namespace pvr::render {

/// Trilinear sample of `brick` at world position `world`, with `inv_h` the
/// reciprocal voxel size h (voxel-center convention: voxel i's value sits
/// at (i + 0.5) * h). The 2-sample stencil is edge-clamped into the brick.
/// Force-inlined: the oracle calls it once per sample.
[[gnu::always_inline]] inline float sample_trilinear(const Brick& brick,
                                                   double inv_h,
                                                   const Vec3d& world) {
  const Box3i& b = brick.box();
  std::int64_t i0[3];
  double frac[3];
  for (int a = 0; a < 3; ++a) {
    const double v = world[a] * inv_h - 0.5;
    const double fl = std::floor(v);
    std::int64_t i = std::int64_t(fl);
    double f = v - fl;
    const std::int64_t lo = b.lo[a];
    const std::int64_t hi_minus2 = b.hi[a] - 2;
    if (i < lo) {
      i = lo;
      f = 0.0;
    } else if (i > hi_minus2) {
      i = std::max(lo, hi_minus2);
      f = (b.hi[a] - b.lo[a]) > 1 ? 1.0 : 0.0;
    }
    i0[a] = i;
    frac[a] = f;
  }
  const std::int64_t x1 = std::min(i0[0] + 1, b.hi.x - 1);
  const std::int64_t y1 = std::min(i0[1] + 1, b.hi.y - 1);
  const std::int64_t z1 = std::min(i0[2] + 1, b.hi.z - 1);
  const float c000 = brick.at(i0[0], i0[1], i0[2]);
  const float c100 = brick.at(x1, i0[1], i0[2]);
  const float c010 = brick.at(i0[0], y1, i0[2]);
  const float c110 = brick.at(x1, y1, i0[2]);
  const float c001 = brick.at(i0[0], i0[1], z1);
  const float c101 = brick.at(x1, i0[1], z1);
  const float c011 = brick.at(i0[0], y1, z1);
  const float c111 = brick.at(x1, y1, z1);
  const float fx = float(frac[0]), fy = float(frac[1]), fz = float(frac[2]);
  const float c00 = c000 + fx * (c100 - c000);
  const float c10 = c010 + fx * (c110 - c010);
  const float c01 = c001 + fx * (c101 - c001);
  const float c11 = c011 + fx * (c111 - c011);
  const float c0 = c00 + fy * (c10 - c00);
  const float c1 = c01 + fy * (c11 - c01);
  return c0 + fz * (c1 - c0);
}

}  // namespace pvr::render
