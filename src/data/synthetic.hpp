// Synthetic core-collapse supernova time step. The paper's dataset (Blondin
// et al.'s VH-1 run) is not redistributable, so we generate a field with the
// same gross structure — a turbulent spherical shock shell around a dense
// core, five scalar variables (pressure, density, vx, vy, vz) — that
// exercises the identical rendering and I/O code paths. The field is an
// analytic function of position and seed: any voxel of any resolution can be
// evaluated independently, which is what lets tests, examples, and the
// writers generate consistent data at any grid size without storing it.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "util/brick.hpp"
#include "util/vec.hpp"

namespace pvr::data {

/// Variable indices in the canonical VH-1 order.
enum class Variable : int {
  kPressure = 0,
  kDensity = 1,
  kVx = 2,
  kVy = 3,
  kVz = 4,
};

Variable variable_from_name(const std::string& name);

class SupernovaField {
 public:
  explicit SupernovaField(std::uint64_t seed = 1530);  // paper's time step

  /// Field value in [0, 1] at a normalized position p in [0, 1]^3.
  float value(Variable var, const Vec3d& p) const;

  /// Value at voxel (x, y, z) of an n_x*n_y*n_z grid (voxel-center
  /// convention: position (i + 0.5) / n).
  float at_voxel(Variable var, const Vec3i& voxel, const Vec3i& dims) const;

  /// Voxels [x_lo, x_hi) of row (y, z) of a `dims` grid, for every variable
  /// in `vars` (any order, repeats allowed): out[k][x - x_lo] receives
  /// at_voxel(vars[k], {x, y, z}, dims) bit for bit. Each voxel computes the
  /// terms its variables share once, and each noise octave reuses its
  /// lattice corners while consecutive voxels stay in one cell.
  void fill_row(std::span<const Variable> vars, std::int64_t y,
                std::int64_t z, std::int64_t x_lo, std::int64_t x_hi,
                const Vec3i& dims, std::span<float* const> out) const;

  /// Fills a brick (its box interpreted on a grid of `dims`), row by row.
  void fill_brick(Variable var, const Vec3i& dims, Brick* brick) const;

 private:
  std::uint64_t seed_;
};

}  // namespace pvr::data
