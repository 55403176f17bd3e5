#include "data/synthetic.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace pvr::data {

Variable variable_from_name(const std::string& name) {
  if (name == "pressure") return Variable::kPressure;
  if (name == "density") return Variable::kDensity;
  if (name == "vx") return Variable::kVx;
  if (name == "vy") return Variable::kVy;
  if (name == "vz") return Variable::kVz;
  throw Error("unknown variable name: " + name);
}

SupernovaField::SupernovaField(std::uint64_t seed) : seed_(seed) {}

namespace {

constexpr int kNumVariables = 5;

double smoothstep(double t) { return t * t * (3.0 - 2.0 * t); }

double lattice(std::uint64_t seed, std::uint64_t salt, std::int64_t x,
               std::int64_t y, std::int64_t z) {
  const std::uint64_t h = pvr::hash_mix(seed ^ salt, std::uint64_t(x) * 73856093ULL ^
                                                         std::uint64_t(y) * 19349663ULL,
                                        std::uint64_t(z) * 83492791ULL);
  return double(h >> 11) * 0x1.0p-53 * 2.0 - 1.0;  // [-1, 1)
}

/// One octave's lattice cell and its 8 corner values, kept while
/// consecutive samples stay in the cell. lattice() is a pure function of
/// (seed, salt, corner), so a kept corner is exactly the value a fresh hash
/// would return.
class Cell {
 public:
  void move_to(std::uint64_t seed, std::uint64_t salt, std::int64_t x0,
               std::int64_t y0, std::int64_t z0) {
    if (valid_ && x0 == x0_ && y0 == y0_ && z0 == z0_) return;
    // A step to the next cell along x keeps the 4 corners both share.
    const bool next_x = valid_ && x0 == x0_ + 1 && y0 == y0_ && z0 == z0_;
    for (int dz = 0; dz < 2; ++dz) {
      for (int dy = 0; dy < 2; ++dy) {
        lo_[dz][dy] = next_x ? hi_[dz][dy]
                             : lattice(seed, salt, x0, y0 + dy, z0 + dz);
        hi_[dz][dy] = lattice(seed, salt, x0 + 1, y0 + dy, z0 + dz);
        span_[dz][dy] = hi_[dz][dy] - lo_[dz][dy];
      }
    }
    valid_ = true;
    x0_ = x0;
    y0_ = y0;
    z0_ = z0;
  }

  /// Trilinear blend of the corners at smoothed offsets (fx, fy, fz): x
  /// first, then y, then z. Each lerp is a + t * (b - a); an x lerp's
  /// b - a is a corner pair's, computed once per cell.
  double blend(double fx, double fy, double fz) const {
    auto lerp = [](double a, double b, double t) { return a + t * (b - a); };
    const double c00 = lo_[0][0] + fx * span_[0][0];
    const double c01 = lo_[0][1] + fx * span_[0][1];
    const double c10 = lo_[1][0] + fx * span_[1][0];
    const double c11 = lo_[1][1] + fx * span_[1][1];
    const double c0 = lerp(c00, c01, fy);
    const double c1 = lerp(c10, c11, fy);
    return lerp(c0, c1, fz);
  }

 private:
  bool valid_ = false;
  std::int64_t x0_ = 0, y0_ = 0, z0_ = 0;
  double lo_[2][2] = {};    ///< corners at x0, [dz][dy]
  double hi_[2][2] = {};    ///< corners at x0 + 1
  double span_[2][2] = {};  ///< hi_ - lo_
};

/// Smooth value noise in [-1, 1] at frequency `freq`, anywhere.
class Octave {
 public:
  explicit Octave(double freq) : freq_(freq) {}

  double noise(std::uint64_t seed, std::uint64_t salt, const Vec3d& p) {
    const Vec3d q = p * freq_;
    const double x0 = std::floor(q.x);
    const double y0 = std::floor(q.y);
    const double z0 = std::floor(q.z);
    cell_.move_to(seed, salt, std::int64_t(x0), std::int64_t(y0),
                  std::int64_t(z0));
    return cell_.blend(smoothstep(q.x - x0), smoothstep(q.y - y0),
                       smoothstep(q.z - z0));
  }

 private:
  double freq_;
  Cell cell_;
};

/// The same noise along one row, where p.y and p.z are fixed: their lattice
/// coordinates and smoothed offsets are computed once, at construction.
class RowOctave {
 public:
  RowOctave(double freq, double py, double pz) : freq_(freq) {
    const double qy = py * freq;
    const double qz = pz * freq;
    y0_ = std::int64_t(std::floor(qy));
    z0_ = std::int64_t(std::floor(qz));
    fy_ = smoothstep(qy - std::floor(qy));
    fz_ = smoothstep(qz - std::floor(qz));
  }

  double noise(std::uint64_t seed, std::uint64_t salt, double px) {
    const double qx = px * freq_;
    const double x0 = std::floor(qx);
    cell_.move_to(seed, salt, std::int64_t(x0), y0_, z0_);
    return cell_.blend(smoothstep(qx - x0), fy_, fz_);
  }

 private:
  double freq_;
  std::int64_t y0_, z0_;
  double fy_, fz_;
  Cell cell_;
};

/// Three-octave fractal noise in [-1, 1], at 1, 2.17 and 4.61 times the
/// base frequency, over either kind of octave (`row` is empty or p.y, p.z).
template <typename Oct>
class Fbm {
 public:
  template <typename... Row>
  Fbm(double base_freq, std::uint64_t salt, Row... row)
      : salt_(salt),
        octaves_{Oct(base_freq, row...), Oct(base_freq * 2.17, row...),
                 Oct(base_freq * 4.61, row...)} {}

  template <typename P>
  double at(std::uint64_t seed, const P& p) {
    return 0.60 * octaves_[0].noise(seed, salt_, p) +
           0.28 * octaves_[1].noise(seed, salt_ + 1, p) +
           0.12 * octaves_[2].noise(seed, salt_ + 2, p);
  }

 private:
  std::uint64_t salt_;
  Oct octaves_[3];
};

/// The terms a set of variables needs beyond the ones every variable uses
/// (r, dir, the shell radius and its fbm, shell, interior).
struct Needs {
  bool scalars = false;                  ///< pressure or density: core, turb
  bool axis[3] = {false, false, false};  ///< vx, vy, vz: that axis's fbm
};

Needs needs_of(std::span<const Variable> vars) {
  Needs needs;
  for (const Variable var : vars) {
    const int v = int(var);
    PVR_REQUIRE(v >= 0 && v < kNumVariables, "unknown variable");
    if (v < int(Variable::kVx)) {
      needs.scalars = true;
    } else {
      needs.axis[v - int(Variable::kVx)] = true;
    }
  }
  return needs;
}

/// The field along one row (p.y and p.z fixed), sample by sample. These are
/// the field's only formulas: value, fill_row and fill_brick all evaluate
/// through here, a single point being a row of one.
class RowEvaluator {
 public:
  RowEvaluator(std::uint64_t seed, const Needs& needs, double py, double pz)
      : seed_(seed),
        needs_(needs),
        py_(py),
        pz_(pz),
        turb_(9.0, 23, py, pz),
        velocity_{{13.0, 31, py, pz},
                  {13.0, 32, py, pz},
                  {13.0, 33, py, pz}} {}

  /// Writes out[int(var)] at (px, py, pz) for every variable `needs`
  /// selects.
  void at(double px, float out[kNumVariables]) {
    const Vec3d p{px, py_, pz_};
    const Vec3d c{0.5, 0.5, 0.5};
    const Vec3d rel = p - c;
    const double r = rel.length();
    const Vec3d dir = r > 1e-9 ? rel / r : Vec3d{0, 0, 1};
    const auto unit = [](double v) { return float(std::clamp(v, 0.0, 1.0)); };

    // Shock shell radius perturbed by low-frequency turbulence (the
    // standing accretion shock instability gives the shell its lumpy
    // shape).
    const double shell_r = 0.33 + 0.05 * shell_r_.at(seed_, dir * 0.5 + c);
    const double shell = std::exp(-std::pow((r - shell_r) / 0.045, 2.0));
    const double interior = r < shell_r ? 0.35 * (1.0 - r / shell_r) : 0.0;

    if (needs_.scalars) {
      const double core = std::exp(-std::pow(r / 0.09, 2.0));
      const double turb = turb_.at(seed_, px);
      out[int(Variable::kPressure)] =
          unit(0.08 + 0.62 * shell * (0.75 + 0.35 * turb) + 0.85 * core +
               0.5 * interior);
      out[int(Variable::kDensity)] =
          unit(0.05 + 0.55 * shell * (0.70 + 0.45 * turb) + 0.95 * core +
               0.6 * interior);
    }
    // Radial outflow at the shell, infall inside it, plus turbulence.
    const double radial = shell - 0.7 * interior;
    const double comp[3] = {dir.x, dir.y, dir.z};
    for (int axis = 0; axis < 3; ++axis) {
      if (!needs_.axis[axis]) continue;
      out[int(Variable::kVx) + axis] =
          unit(0.5 + 0.38 * radial * comp[axis] +
               0.10 * velocity_[axis].at(seed_, px));
    }
  }

 private:
  std::uint64_t seed_;
  Needs needs_;
  double py_, pz_;
  Fbm<Octave> shell_r_{4.0, 11};
  Fbm<RowOctave> turb_;
  Fbm<RowOctave> velocity_[3];
};

}  // namespace

float SupernovaField::value(Variable var, const Vec3d& p) const {
  const Variable vars[] = {var};
  RowEvaluator row(seed_, needs_of(vars), p.y, p.z);
  float out[kNumVariables];
  row.at(p.x, out);
  return out[int(var)];
}

float SupernovaField::at_voxel(Variable var, const Vec3i& voxel,
                               const Vec3i& dims) const {
  PVR_ASSERT(dims.x > 0 && dims.y > 0 && dims.z > 0);
  const Vec3d p{(double(voxel.x) + 0.5) / double(dims.x),
                (double(voxel.y) + 0.5) / double(dims.y),
                (double(voxel.z) + 0.5) / double(dims.z)};
  return value(var, p);
}

void SupernovaField::fill_row(std::span<const Variable> vars, std::int64_t y,
                              std::int64_t z, std::int64_t x_lo,
                              std::int64_t x_hi, const Vec3i& dims,
                              std::span<float* const> out) const {
  PVR_ASSERT(dims.x > 0 && dims.y > 0 && dims.z > 0);
  PVR_REQUIRE(out.size() == vars.size(), "one output row per variable");
  RowEvaluator row(seed_, needs_of(vars), (double(y) + 0.5) / double(dims.y),
                   (double(z) + 0.5) / double(dims.z));
  float values[kNumVariables];
  for (std::int64_t x = x_lo; x < x_hi; ++x) {
    row.at((double(x) + 0.5) / double(dims.x), values);
    for (std::size_t k = 0; k < vars.size(); ++k) {
      out[k][x - x_lo] = values[int(vars[k])];
    }
  }
}

void SupernovaField::fill_brick(Variable var, const Vec3i& dims,
                                Brick* brick) const {
  PVR_REQUIRE(brick != nullptr, "null brick");
  if (brick->empty()) return;
  const Box3i& b = brick->box();
  const Variable vars[] = {var};
  for (std::int64_t z = b.lo.z; z < b.hi.z; ++z) {
    for (std::int64_t y = b.lo.y; y < b.hi.y; ++y) {
      float* const row[] = {brick->data().data() + brick->row_index(y, z)};
      fill_row(vars, y, z, b.lo.x, b.hi.x, dims, row);
    }
  }
}

}  // namespace pvr::data
