// Tests for the ray-packet kernel (src/render/simd/), the renderer's only
// kernel for univariate and bivariate renders: bitwise image and
// sample-count equality with the per-ray oracle below, packet remainder and
// early-exit handling, row-band stitching, the vec8 wrapper's exactness
// guarantees, and the hoisted value normalization.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <vector>

#include "data/synthetic.hpp"
#include "par/thread_pool.hpp"
#include "render/camera.hpp"
#include "render/decomposition.hpp"
#include "render/raycaster.hpp"
#include "render/simd/packet_kernel.hpp"
#include "render/simd/tf_lut.hpp"
#include "render/simd/vec8.hpp"
#include "render/transfer_function.hpp"
#include "render/trilinear.hpp"

namespace pvr::render {
namespace {

// ---------------- the per-ray oracle ----------------
//
// One ray at a time over the global sample lattice, through
// sample_trilinear and TransferFunction::sample (or, bivariate,
// BivariateTransferFunction::sample): the reference march that the packet
// kernel's lanes replay. The kernel must match its pixels and sample
// counts bitwise.

/// What the oracle samples: `brick` through `tf`, or colour from `brick`
/// and opacity from `opacity` through the bivariate `bi`.
struct Source {
  Source(const Brick& b, const TransferFunction& t) : brick(&b), tf(&t) {}
  Source(const Brick& color, const Brick& o,
         const BivariateTransferFunction& t)
      : brick(&color), opacity(&o), bi(&t) {}

  /// The premultiplied sample at world position p, with raw voxel values
  /// normalized as raw * scale + bias.
  Rgba sample(double inv_h, const Vec3d& p, float scale, float bias,
              float step) const {
    const float v = sample_trilinear(*brick, inv_h, p) * scale + bias;
    if (bi == nullptr) return tf->sample(v, step);
    const float ov = sample_trilinear(*opacity, inv_h, p) * scale + bias;
    return bi->sample(v, ov, step);
  }

  const Brick* brick;
  const TransferFunction* tf = nullptr;
  const Brick* opacity = nullptr;
  const BivariateTransferFunction* bi = nullptr;
};

/// Marches one ray through the half-open `region` (world space) of a
/// volume of `dims`; returns its premultiplied color and adds the samples
/// it took to `*samples`.
Rgba oracle_ray(const Raycaster& rc, const Vec3i& dims, const Source& src,
                const Box3d& region, const Ray& ray, std::int64_t* samples) {
  const RenderConfig& cfg = rc.config();
  const auto vol_hit = intersect(ray, world_box(dims));
  if (!vol_hit) return kTransparent;
  const auto reg_hit = intersect(ray, region);
  if (!reg_hit) return kTransparent;

  // Global lattice: t_k = t0 + k * dt with t0 the volume entry point, so
  // every block of the same volume samples identical positions.
  const double t0 = vol_hit->t_enter;
  const double dt = rc.step_world();
  std::int64_t k = std::max<std::int64_t>(
      0, std::int64_t(std::floor((reg_hit->t_enter - t0) / dt)) - 1);
  const std::int64_t k_end =
      std::int64_t(std::ceil((reg_hit->t_exit - t0) / dt)) + 1;

  const double inv_h = 1.0 / voxel_size(dims);
  const float step = float(cfg.step_voxels);
  const float scale = 1.0f / (cfg.value_hi - cfg.value_lo);
  const float bias = -cfg.value_lo * scale;
  Rgba acc = kTransparent;
  for (; k <= k_end; ++k) {
    const double t = t0 + double(k) * dt;
    if (t > vol_hit->t_exit) break;
    const Vec3d p = ray.at(t);
    // Half-open membership: exactly one block owns each lattice sample.
    if (p.x < region.lo.x || p.x >= region.hi.x || p.y < region.lo.y ||
        p.y >= region.hi.y || p.z < region.lo.z || p.z >= region.hi.z) {
      continue;
    }
    acc.blend_under(src.sample(inv_h, p, scale, bias, step));
    ++*samples;
    if (acc.a >= float(cfg.early_termination)) break;
  }
  return acc;
}

/// The oracle's image of `rect` for the rays through `region`.
SubImage oracle_rect(const Raycaster& rc, const Vec3i& dims,
                     const Source& src, const Box3d& region,
                     const Camera& cam, const Rect& rect) {
  SubImage out;
  out.rect = rect;
  for (int py = rect.y0; py < rect.y1; ++py) {
    for (int px = rect.x0; px < rect.x1; ++px) {
      out.pixels.push_back(
          oracle_ray(rc, dims, src, region, cam.ray(px, py), &out.samples));
    }
  }
  return out;
}

/// The oracle's render_block: the block's whole screen footprint.
SubImage oracle_block(const Raycaster& rc, const Vec3i& dims,
                      const Source& src, const Box3i& owned,
                      const Camera& cam) {
  const Box3d region = world_box_of(owned, dims);
  return oracle_rect(rc, dims, src, region, cam, cam.footprint(region));
}

RenderConfig base_config() {
  RenderConfig cfg;
  cfg.step_voxels = 1.0;
  cfg.early_termination = 1.0;
  return cfg;
}

Brick whole_brick(const Vec3i& dims, std::uint64_t seed) {
  Brick whole(Box3i{{0, 0, 0}, dims});
  data::SupernovaField(seed).fill_brick(data::Variable::kDensity, dims,
                                        &whole);
  return whole;
}

void expect_identical(const SubImage& a, const SubImage& b) {
  ASSERT_EQ(a.rect, b.rect);
  ASSERT_EQ(a.pixels.size(), b.pixels.size());
  EXPECT_EQ(a.samples, b.samples);
  EXPECT_EQ(std::memcmp(a.pixels.data(), b.pixels.data(),
                        a.pixels.size() * sizeof(Rgba)),
            0);
}

// ---------------- vec8 wrapper ----------------

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }
std::uint32_t bits(float x) { return std::bit_cast<std::uint32_t>(x); }

/// Signed zeros, halves on both sides of zero, the 2^52 boundary where
/// every double is integral, a denormal and infinities.
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kTiny = std::numeric_limits<double>::denorm_min();
constexpr double kRoundingCases[] = {
    -0.0,    0.0,    0.5,          -0.5,         1.5,
    -1.5,    -2.5,   2.5,          -1.0000001,   0.4999,
    17.75,   -17.75, 1e9 + 0.5,    0x1p52,       -0x1p52,
    0x1p53,  kTiny,  0x1p52 + 1.0, 0x1p52 - 0.5, -0x1p52 + 0.5,
    -1e-300, 1e300,  kInf,         -kInf};

/// Checks `vec(x)` lane by lane against `scalar` on every rounding case
/// (those `domain` accepts), bitwise, sign of zero included.
template <typename Vec, typename Scalar, typename Domain>
void expect_lanes_match(Vec vec, Scalar scalar, Domain domain) {
  constexpr int n = int(std::size(kRoundingCases));
  for (int base = 0; base < n; base += simd::kLanes) {
    simd::Double8 v = simd::Double8::broadcast(0.25);
    for (int i = 0; i < simd::kLanes; ++i) {
      v.set_lane(i, kRoundingCases[(base + i) % n]);
    }
    const simd::Double8 got = vec(v);
    for (int i = 0; i < simd::kLanes; ++i) {
      const double x = v.lane(i);
      if (domain(x)) {
        EXPECT_EQ(bits(got.lane(i)), bits(scalar(x))) << "x=" << x;
      }
    }
  }
}

TEST(Vec8Test, FloorMatchesStdFloorBitwise) {
  const auto all = [](double) { return true; };
  expect_lanes_match([](const simd::Double8& v) { return simd::floor(v); },
                     [](double x) { return std::floor(x); }, all);
  expect_lanes_match([](const simd::Double8& v) { return simd::ceil(v); },
                     [](double x) { return std::ceil(x); }, all);
  EXPECT_TRUE(std::isnan(
      simd::floor(simd::Double8::broadcast(std::nan(""))).lane(3)));
}

TEST(Vec8Test, SqrtMatchesStdSqrtBitwise) {
  expect_lanes_match([](const simd::Double8& v) { return simd::sqrt(v); },
                     [](double x) { return std::sqrt(x); },
                     [](double x) { return x >= 0.0; });
  // Square roots of sums of squares, as the ray setup normalizes.
  simd::Double8 s = simd::Double8::broadcast(0.0);
  for (int i = 0; i < simd::kLanes; ++i) {
    s.set_lane(i, 0.1 * i * i + 1.0 / (i + 3));
  }
  const simd::Double8 r = simd::sqrt(s);
  for (int i = 0; i < simd::kLanes; ++i) {
    EXPECT_EQ(bits(r.lane(i)), bits(std::sqrt(s.lane(i))));
  }
}

TEST(Vec8Test, SelectPicksExactLaneValues) {
  simd::Int8 m = simd::Int8::broadcast(0);
  simd::Float8 a = simd::Float8::broadcast(1.5f);
  simd::Float8 b = simd::Float8::broadcast(-3.25f);
  for (int i = 0; i < simd::kLanes; i += 2) m.set_lane(i, -1);
  const simd::Float8 r = simd::select(m, a, b);
  for (int i = 0; i < simd::kLanes; ++i) {
    EXPECT_EQ(r.lane(i), i % 2 == 0 ? 1.5f : -3.25f);
  }
  EXPECT_EQ(simd::popcount(m), 4);
  EXPECT_TRUE(simd::any(m));
  EXPECT_FALSE(simd::any(simd::Int8::broadcast(0)));
}

TEST(Vec8Test, Mask64SelectAndLogicMatchScalar) {
  // Double lanes select on their own mask width: the scalar `m ? a : b`
  // per lane, with -0.0 and NaN passed through untouched.
  simd::Double8 x = simd::Double8::broadcast(0.0);
  simd::Double8 a = simd::Double8::broadcast(0.0);
  simd::Double8 b = simd::Double8::broadcast(0.0);
  const double xs[] = {-1.0, 0.0, 0.5, 1.0, 2.0, -0.0, 3.0, 1.0};
  for (int i = 0; i < simd::kLanes; ++i) {
    x.set_lane(i, xs[i]);
    a.set_lane(i, i == 2 ? -0.0 : 10.0 + i);
    b.set_lane(i, i == 5 ? std::nan("") : -20.0 - i);
  }
  const simd::Double8 lo = simd::Double8::broadcast(0.0);
  const simd::Double8 hi = simd::Double8::broadcast(1.0);
  const simd::Mask64 in = simd::mask_ge(x, lo) & simd::mask_lt(x, hi);
  const simd::Mask64 out = simd::mask_lt(x, lo) | ~simd::mask_ge(hi, x);
  const simd::Mask64 gt = simd::mask_gt(x, hi);
  const simd::Double8 r = simd::select(in, a, b);
  const simd::Int8 narrowed = simd::narrow(in);
  for (int i = 0; i < simd::kLanes; ++i) {
    const double v = xs[i];
    const bool want_in = v >= 0.0 && v < 1.0;
    const bool want_out = v < 0.0 || !(1.0 >= v);
    EXPECT_EQ(bits(r.lane(i)), bits(want_in ? a.lane(i) : b.lane(i)))
        << "lane " << i;
    EXPECT_EQ(narrowed.lane(i), want_in ? -1 : 0) << "lane " << i;
    EXPECT_EQ(simd::narrow(out).lane(i), want_out ? -1 : 0) << "lane " << i;
    EXPECT_EQ(simd::narrow(gt).lane(i), v > 1.0 ? -1 : 0) << "lane " << i;
  }
}

TEST(Vec8Test, ComparisonsProduceFullLaneMasks) {
  simd::Float8 a = simd::Float8::broadcast(1.0f);
  simd::Float8 b = simd::Float8::broadcast(2.0f);
  b.set_lane(3, 0.5f);
  const simd::Int8 lt = a < b;
  for (int i = 0; i < simd::kLanes; ++i) {
    EXPECT_EQ(lt.lane(i), i == 3 ? 0 : -1);
  }
  simd::Int8 x = simd::Int8::broadcast(7);
  simd::Int8 y = simd::Int8::broadcast(7);
  y.set_lane(5, 9);
  y.set_lane(1, -4);
  const simd::Int8 gt = y > x;
  const simd::Int8 ls = y < x;
  for (int i = 0; i < simd::kLanes; ++i) {
    EXPECT_EQ(gt.lane(i), i == 5 ? -1 : 0);
    EXPECT_EQ(ls.lane(i), i == 1 ? -1 : 0);
  }
}

TEST(Vec8Test, PermuteReadsTableLanes) {
  simd::Float8 table = simd::Float8::broadcast(0.0f);
  for (int i = 0; i < simd::kLanes; ++i) {
    table.set_lane(i, i == 4 ? -0.0f : 0.125f * float(i) - 0.3f);
  }
  // Every index pattern of a small LCG, repeats and identity included.
  std::uint32_t state = 12345;
  for (int trial = 0; trial < 64; ++trial) {
    simd::Int8 idx = simd::Int8::broadcast(0);
    for (int i = 0; i < simd::kLanes; ++i) {
      state = state * 1664525u + 1013904223u;
      idx.set_lane(i, trial == 0 ? i : std::int32_t(state >> 29));
    }
    const simd::Float8 got = simd::permute(table, idx);
    for (int i = 0; i < simd::kLanes; ++i) {
      EXPECT_EQ(bits(got.lane(i)), bits(table.lane(idx.lane(i))));
    }
  }
}

TEST(Vec8Test, GatherPairsReadAdjacentFloats) {
  // Each lane reads base[i] and base[i + 1]: odd and even indices,
  // repeats, and the array's last pair, from an aligned and an unaligned
  // base.
  std::vector<float> data(37);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = 0.5f * float(i) - 3.0f;
  }
  data[4] = -0.0f;
  const std::int32_t lanes[simd::kLanes] = {0, 35, 1, 17, 4, 3, 35, 8};
  simd::Int8 idx = simd::Int8::broadcast(0);
  for (int i = 0; i < simd::kLanes; ++i) idx.set_lane(i, lanes[i]);
  for (const std::size_t offset : {std::size_t{0}, std::size_t{1}}) {
    const float* base = data.data() + offset;
    // From the unaligned base the last pair starts at 34.
    simd::Int8 at = idx;
    for (int i = 0; i < simd::kLanes; ++i) {
      at.set_lane(i, std::min(lanes[i], std::int32_t(35 - offset)));
    }
    simd::Float8 lo, hi;
    simd::gather_pairs(base, at, &lo, &hi);
    const simd::Float8 one = simd::gather(base, at);
    for (int i = 0; i < simd::kLanes; ++i) {
      const std::int32_t j = at.lane(i);
      EXPECT_EQ(bits(lo.lane(i)), bits(base[j])) << "lane " << i;
      EXPECT_EQ(bits(hi.lane(i)), bits(base[j + 1])) << "lane " << i;
      EXPECT_EQ(bits(one.lane(i)), bits(base[j])) << "lane " << i;
    }
  }
}

TEST(Vec8Test, ConversionsAreExactOnIntegralLanes) {
  simd::Double8 x = simd::Double8::broadcast(0.0);
  const double xs[] = {-0.0, 1.0, -1.0, 2147483647.0, -2147483648.0,
                       1234567.0, 2.75, -2.75};
  for (int i = 0; i < simd::kLanes; ++i) x.set_lane(i, xs[i]);
  const simd::Int8 xi = simd::to_int(x);
  const simd::Float8 xf = simd::to_float(x);
  for (int i = 0; i < simd::kLanes; ++i) {
    EXPECT_EQ(xi.lane(i), std::int32_t(xs[i]));
    EXPECT_EQ(bits(xf.lane(i)), bits(float(xs[i])));
  }
}

// ---------------- transfer-function LUT ----------------

/// The LUT's one sampler, lookup8 of all four channels then finish8, with
/// `value` in every lane. Every lane must come back bitwise equal to lane 0,
/// which is returned.
Rgba sample_every_lane(const simd::TfLut& lut, float value) {
  simd::Float8 ch[4], r, g, b, a;
  lut.lookup8(simd::Float8::broadcast(value), 0, 4, ch);
  lut.finish8(ch, &r, &g, &b, &a);
  for (int i = 1; i < simd::kLanes; ++i) {
    EXPECT_EQ(bits(r.lane(i)), bits(r.lane(0))) << "lane " << i;
    EXPECT_EQ(bits(g.lane(i)), bits(g.lane(0))) << "lane " << i;
    EXPECT_EQ(bits(b.lane(i)), bits(b.lane(0))) << "lane " << i;
    EXPECT_EQ(bits(a.lane(i)), bits(a.lane(0))) << "lane " << i;
  }
  return Rgba{r.lane(0), g.lane(0), b.lane(0), a.lane(0)};
}

TEST(TfLutTest, MatchesTransferFunctionSampleBitwise) {
  for (const TransferFunction& tf :
       {TransferFunction::supernova(), TransferFunction::grayscale_ramp(0.2f),
        TransferFunction::transparent()}) {
    for (const float step : {1.0f, 0.5f, 2.0f}) {
      const simd::TfLut lut(tf, step);
      for (int i = -64; i <= 1088; ++i) {
        const float v = float(i) / 1024.0f;  // sweeps below 0 and above 1
        const Rgba want = tf.sample(v, step);
        const Rgba got = sample_every_lane(lut, v);
        EXPECT_EQ(want.r, got.r) << "v=" << v << " step=" << step;
        EXPECT_EQ(want.g, got.g) << "v=" << v << " step=" << step;
        EXPECT_EQ(want.b, got.b) << "v=" << v << " step=" << step;
        EXPECT_EQ(want.a, got.a) << "v=" << v << " step=" << step;
      }
    }
  }
}

/// A seeded transfer function of `n` points: control values inside
/// (0, 1) so both endpoint returns occur, some repeated (zero-length
/// segments), colors in [0, 1] and opacities in [-0.1, 1.1] so the clamp
/// engages.
TransferFunction seeded_tf(int n, std::uint32_t seed) {
  std::uint32_t state = seed * 2654435761u + 1u;
  const auto next = [&] {
    state = state * 1664525u + 1013904223u;
    return float(state >> 8) / float(1u << 24);
  };
  std::vector<TransferFunction::ControlPoint> pts(static_cast<std::size_t>(n));
  for (auto& p : pts) {
    p.value = 0.05f + 0.9f * next();
    p.r = next();
    p.g = next();
    p.b = next();
    p.opacity = 1.2f * next() - 0.1f;
  }
  std::sort(pts.begin(), pts.end(), [](const auto& a, const auto& b) {
    return a.value < b.value;
  });
  for (std::size_t j = 1; j < pts.size(); ++j) {
    if (j % 3 == 2) pts[j].value = pts[j - 1].value;  // duplicate value
  }
  return TransferFunction(std::move(pts));
}

/// Values a file may legally hold that the [0, 1] sweeps miss: NaN of
/// both signs, infinities, and denormals of both signs.
constexpr float kNonFiniteAndDenormal[] = {
    std::numeric_limits<float>::quiet_NaN(),
    -std::numeric_limits<float>::quiet_NaN(),
    std::numeric_limits<float>::infinity(),
    -std::numeric_limits<float>::infinity(),
    std::numeric_limits<float>::denorm_min(),
    -std::numeric_limits<float>::denorm_min(),
    0x1.fffffcp-127f};

TEST(TfLutTest, NanTakesTheFirstControlPoint) {
  // The LUT's below-front test !(front < v) is true for NaN, and
  // TransferFunction::lookup makes the same test, so the oracle and the
  // kernel agree on a NaN voxel: it samples as the first control point.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const TransferFunction& tf :
       {TransferFunction::supernova(), seeded_tf(5, 2), seeded_tf(12, 3)}) {
    const TransferFunction::ControlPoint front = tf.points().front();
    for (const float step : {1.0f, 0.5f}) {
      SCOPED_TRACE(testing::Message() << "step " << step);
      const Rgba want = tf.sample(nan, step);
      const Rgba got = sample_every_lane(simd::TfLut(tf, step), nan);
      EXPECT_EQ(bits(got.r), bits(want.r));
      EXPECT_EQ(bits(got.g), bits(want.g));
      EXPECT_EQ(bits(got.b), bits(want.b));
      EXPECT_EQ(bits(got.a), bits(want.a));
      EXPECT_EQ(bits(want.a), bits(tf.sample(front.value, step).a));
    }
    EXPECT_EQ(bits(tf.lookup(nan).r), bits(front.r));
    EXPECT_EQ(bits(tf.lookup(nan).opacity), bits(front.opacity));
  }
}

TEST(TfLutTest, Sample8SweepMatchesTransferFunctionBitwise) {
  // 1 to 12 points: the permute path up to 8 segments, the gather path
  // beyond. Values sweep past both ends and hit every control value and
  // its float neighbors. The univariate sample (lookup8 of all four
  // channels, then finish8) is swept against TransferFunction on every
  // lane. The bivariate split (lookup8 of colour and opacity, then finish8)
  // is swept against BivariateTransferFunction on every lane, with an
  // opacity function of 13 - n points, so each table path meets the other.
  for (int n = 1; n <= 12; ++n) {
    for (std::uint32_t seed = 1; seed <= 3; ++seed) {
      const TransferFunction tf = seeded_tf(n, seed);
      const TransferFunction opacity_tf = seeded_tf(13 - n, seed + 7);
      const BivariateTransferFunction bi(tf, opacity_tf);
      std::vector<float> values;
      for (int i = -40; i <= 1064; ++i) values.push_back(float(i) / 1024.0f);
      for (const auto& p : tf.points()) {
        values.push_back(p.value);
        values.push_back(std::nextafter(p.value, 0.0f));
        values.push_back(std::nextafter(p.value, 1.0f));
      }
      values.insert(values.end(), std::begin(kNonFiniteAndDenormal),
                    std::end(kNonFiniteAndDenormal));
      for (const float step : {1.0f, 0.5f, 1.7f}) {
        const simd::TfLut lut(tf, step);
        const simd::TfLut opacity_lut(opacity_tf, step);
        for (std::size_t base = 0; base < values.size(); base += 8) {
          simd::Float8 v = simd::Float8::broadcast(0.5f);
          simd::Float8 ov = simd::Float8::broadcast(0.5f);
          for (int i = 0; i < simd::kLanes; ++i) {
            const std::size_t k = (base + std::size_t(i)) % values.size();
            v.set_lane(i, values[k]);
            ov.set_lane(i, values[values.size() - 1 - k]);
          }
          simd::Float8 uch[4], r, g, b, a;
          lut.lookup8(v, 0, 4, uch);
          lut.finish8(uch, &r, &g, &b, &a);
          simd::Float8 ch[4], br, bg, bb, ba;
          lut.lookup8(v, 0, 3, ch);
          opacity_lut.lookup8(ov, 3, 4, ch);
          lut.finish8(ch, &br, &bg, &bb, &ba);
          for (int i = 0; i < simd::kLanes; ++i) {
            SCOPED_TRACE(testing::Message() << "points " << n << " seed "
                                            << seed << " step " << step
                                            << " v " << v.lane(i) << " ov "
                                            << ov.lane(i));
            const Rgba bwant = bi.sample(v.lane(i), ov.lane(i), step);
            EXPECT_EQ(bits(br.lane(i)), bits(bwant.r));
            EXPECT_EQ(bits(bg.lane(i)), bits(bwant.g));
            EXPECT_EQ(bits(bb.lane(i)), bits(bwant.b));
            EXPECT_EQ(bits(ba.lane(i)), bits(bwant.a));
            const Rgba want = tf.sample(v.lane(i), step);
            EXPECT_EQ(bits(r.lane(i)), bits(want.r));
            EXPECT_EQ(bits(g.lane(i)), bits(want.g));
            EXPECT_EQ(bits(b.lane(i)), bits(want.b));
            EXPECT_EQ(bits(a.lane(i)), bits(want.a));
          }
        }
      }
    }
  }
}

TEST(TfLutTest, UnitStepUsesPowIdentity) {
  EXPECT_TRUE(simd::TfLut(TransferFunction::supernova(), 1.0f).unit_step());
  EXPECT_FALSE(simd::TfLut(TransferFunction::supernova(), 0.5f).unit_step());
}

// ---------------- hoisted value normalization ----------------

TEST(NormalizationHoistTest, ScaleBiasIsBitwiseExactForZeroLo) {
  // The hoist rewrites (raw - lo) * inv_range as raw * scale + bias. For
  // lo == 0 (every shipped scene) bias is -0.0f and x + -0.0f == x, so the
  // scalar image bytes are pinned unchanged; this sweep is the regression
  // pin at the arithmetic level.
  const float lo = 0.0f, hi = 0.7f;
  const float inv_range = 1.0f / (hi - lo);
  const float scale = 1.0f / (hi - lo);
  const float bias = -lo * scale;
  for (int i = -2048; i <= 2048; ++i) {
    const float raw = float(i) / 512.0f;
    const float before = (raw - lo) * inv_range;
    const float after = raw * scale + bias;
    EXPECT_EQ(before, after) << "raw=" << raw;
  }
}

TEST(NormalizationHoistTest, NonzeroLoStaysWithinOneUlp) {
  const float lo = 0.25f, hi = 1.75f;
  const float inv_range = 1.0f / (hi - lo);
  const float scale = 1.0f / (hi - lo);
  const float bias = -lo * scale;
  for (int i = -2048; i <= 2048; ++i) {
    const float raw = float(i) / 512.0f;
    const float before = (raw - lo) * inv_range;
    const float after = raw * scale + bias;
    EXPECT_NEAR(before, after, 2.0f * std::fabs(before) *
                                   std::numeric_limits<float>::epsilon() +
                                   1e-7f)
        << "raw=" << raw;
  }
}

// ---------------- packet kernel vs per-ray oracle ----------------

class KernelEquality : public ::testing::TestWithParam<int> {};

TEST_P(KernelEquality, WholeVolumeImagesBitwiseEqual) {
  // Width 51 is not divisible by 8 and leaves partial 32x8 tiles on both
  // axes, so every scanline ends in a remainder packet; threads 1 and 4
  // exercise the chunked parallel path.
  const Vec3i dims{24, 24, 24};
  const Brick whole = whole_brick(dims, 11);
  const Camera cam = Camera::default_view(dims, 51, 38);
  const TransferFunction tf = TransferFunction::supernova();
  par::ThreadPool pool(GetParam());

  const Raycaster rc(dims, base_config());
  const Box3i owned{{0, 0, 0}, dims};
  const SubImage got = rc.render_block(whole, owned, cam, tf, &pool);
  expect_identical(oracle_block(rc, dims, {whole, tf}, owned, cam), got);
  EXPECT_GT(got.samples, 0);
}

TEST_P(KernelEquality, BlockDecompositionImagesBitwiseEqual) {
  // The fig5-style scene: a decomposed volume, per-block renders with ghost
  // bricks. Every block's subimage must match the oracle bitwise, at unit
  // and non-unit steps (TfLut's per-lane std::pow opacity correction), with
  // a nonzero value_lo (a nonzero normalization bias) and with early
  // termination.
  const Vec3i dims{24, 24, 24};
  const Camera cam = Camera::default_view(dims, 48, 48);
  const TransferFunction tf = TransferFunction::supernova();
  const Decomposition d(dims, 8);
  par::ThreadPool pool(GetParam());

  std::vector<Brick> bricks;
  for (std::int64_t b = 0; b < d.num_blocks(); ++b) {
    bricks.emplace_back(d.ghost_box(b, 1));
    data::SupernovaField(11).fill_brick(data::Variable::kDensity, dims,
                                        &bricks.back());
  }
  for (const double step : {1.0, 0.5, 1.7}) {
    for (const auto& [lo, hi] : {std::pair{0.0f, 1.0f}, {0.1f, 0.9f}}) {
      std::int64_t samples_by_termination[2] = {0, 0};
      for (const double early : {1.0, 0.3}) {
        RenderConfig cfg = base_config();
        cfg.step_voxels = step;
        cfg.value_lo = lo;
        cfg.value_hi = hi;
        cfg.early_termination = early;
        const Raycaster rc(dims, cfg);
        for (std::int64_t b = 0; b < d.num_blocks(); ++b) {
          SCOPED_TRACE(testing::Message()
                       << "step " << step << " range [" << lo << ", " << hi
                       << "] early " << early << " block " << b);
          const Box3i owned = d.block_box(b);
          const Brick& brick = bricks[std::size_t(b)];
          const SubImage got = rc.render_block(brick, owned, cam, tf, &pool);
          expect_identical(oracle_block(rc, dims, {brick, tf}, owned, cam),
                           got);
          samples_by_termination[early < 1.0 ? 1 : 0] += got.samples;
        }
      }
      // Early termination must actually cut rays short in this scene.
      EXPECT_LT(samples_by_termination[1], samples_by_termination[0]);
    }
  }
}

/// Colour (pressure) and opacity (density) bricks of one box, from the
/// synthetic field of `seed`.
struct BivariateBricks {
  BivariateBricks(const Box3i& box, const Vec3i& dims, std::uint64_t seed)
      : color(box), opacity(box) {
    const data::SupernovaField field(seed);
    field.fill_brick(data::Variable::kPressure, dims, &color);
    field.fill_brick(data::Variable::kDensity, dims, &opacity);
  }
  Brick color, opacity;
};

/// The bivariate scenes' transfer function: colours from a 12-point
/// function (the LUT's gather path) and opacity from the supernova one
/// (its permute path).
BivariateTransferFunction test_bivariate_tf() {
  return BivariateTransferFunction(seeded_tf(12, 4),
                                   TransferFunction::supernova());
}

/// Renders the whole volume and every block of a `blocks`-way decomposition
/// of `dims` through `cam` and checks each image and tally against the
/// oracle: univariate at a unit step, and bivariate at steps 1 and 0.6,
/// each with early termination off and at 0.3. Returns the univariate
/// blocks' total samples; `bivariate_samples`, if non-null, receives the
/// bivariate blocks' totals with early termination off and on.
std::int64_t expect_blocks_match_oracle(
    const Vec3i& dims, std::int64_t blocks, const Camera& cam,
    par::ThreadPool* pool, std::int64_t* bivariate_samples = nullptr) {
  const TransferFunction tf = TransferFunction::supernova();
  const Raycaster rc(dims, base_config());
  const Brick whole = whole_brick(dims, 17);
  const Box3i all{{0, 0, 0}, dims};
  expect_identical(oracle_block(rc, dims, {whole, tf}, all, cam),
                   rc.render_block(whole, all, cam, tf, pool));
  const Decomposition d(dims, blocks);
  std::int64_t samples = 0;
  for (std::int64_t b = 0; b < d.num_blocks(); ++b) {
    SCOPED_TRACE(testing::Message() << "block " << b);
    Brick brick(d.ghost_box(b, 1));
    data::SupernovaField(17).fill_brick(data::Variable::kDensity, dims,
                                        &brick);
    const SubImage got = rc.render_block(brick, d.block_box(b), cam, tf, pool);
    expect_identical(oracle_block(rc, dims, {brick, tf}, d.block_box(b), cam),
                     got);
    samples += got.samples;
  }

  // Bivariate: the whole volume (block -1), then every block.
  const BivariateTransferFunction bi = test_bivariate_tf();
  std::vector<BivariateBricks> bricks;
  bricks.emplace_back(all, dims, 17);
  for (std::int64_t b = 0; b < d.num_blocks(); ++b) {
    bricks.emplace_back(d.ghost_box(b, 1), dims, 17);
  }
  for (const double step : {1.0, 0.6}) {
    for (const double early : {1.0, 0.3}) {
      RenderConfig cfg = base_config();
      cfg.step_voxels = step;
      cfg.early_termination = early;
      const Raycaster brc(dims, cfg);
      for (std::int64_t b = -1; b < d.num_blocks(); ++b) {
        SCOPED_TRACE(testing::Message() << "bivariate step " << step
                                        << " early " << early << " block "
                                        << b);
        const Box3i owned = b < 0 ? all : d.block_box(b);
        const BivariateBricks& bb = bricks[std::size_t(b + 1)];
        const SubImage got =
            brc.render_block(bb.color, bb.opacity, owned, cam, bi, pool);
        expect_identical(
            oracle_block(brc, dims, {bb.color, bb.opacity, bi}, owned, cam),
            got);
        if (bivariate_samples != nullptr && b >= 0) {
          bivariate_samples[early < 1.0 ? 1 : 0] += got.samples;
        }
      }
    }
  }
  return samples;
}

Vec3d world_center(const Vec3i& dims) {
  const Box3d wb = world_box(dims);
  return {wb.center().x, wb.center().y, wb.center().z};
}

TEST_P(KernelEquality, OrthographicCamerasBitwiseEqual) {
  // Orthographic rays share one direction and differ in origin. The
  // axis-aligned view's directions are exactly 0 on two axes, so every ray
  // takes intersect's parallel-slab branch there.
  const Vec3i dims{20, 16, 24};
  const Vec3d c = world_center(dims);
  par::ThreadPool pool(GetParam());
  const Camera oblique =
      Camera::ortho_look_at(c + Vec3d{0.9, 0.6, -1.3}, c, {0, 1, 0}, 1.4, 45,
                            37);
  EXPECT_GT(expect_blocks_match_oracle(dims, 8, oblique, &pool), 0);
  const Camera axis =
      Camera::ortho_look_at(c + Vec3d{0, 0, 2}, c, {0, 1, 0}, 1.1, 33, 29);
  ASSERT_EQ(axis.ray(3, 4).dir.x, 0.0);
  ASSERT_EQ(axis.ray(3, 4).dir.y, 0.0);
  EXPECT_GT(expect_blocks_match_oracle(dims, 8, axis, &pool), 0);
}

TEST_P(KernelEquality, AxisAlignedOddImageTakesTheFlatBranch) {
  // With the eye on the z axis through the volume's center and an odd
  // image, the center column's rays have direction x exactly 0 and the
  // center row's have y exactly 0: the |d| < 1e-300 branch of intersect.
  const Vec3i dims{24, 24, 24};
  const Vec3d c = world_center(dims);
  par::ThreadPool pool(GetParam());
  const Camera cam =
      Camera::look_at(c + Vec3d{0, 0, 2}, c, {0, 1, 0}, 45.0, 33, 27);
  ASSERT_EQ(cam.ray(16, 3).dir.x, 0.0);
  ASSERT_EQ(cam.ray(5, 13).dir.y, 0.0);
  ASSERT_TRUE(intersect(cam.ray(16, 13), world_box(dims)).has_value());
  EXPECT_GT(expect_blocks_match_oracle(dims, 8, cam, &pool), 0);
}

TEST_P(KernelEquality, EyeInsideTheVolumeEntersAtZero) {
  // An eye inside the volume box: intersect clamps t_enter to 0, so the
  // lattice starts at the eye, and the wide view leaves rays missing
  // blocks behind the eye.
  const Vec3i dims{24, 24, 24};
  const Vec3d c = world_center(dims);
  par::ThreadPool pool(GetParam());
  const Camera cam = Camera::look_at(c + Vec3d{0.11, -0.07, 0.19},
                                     c + Vec3d{0.3, 0.1, -0.4}, {0, 1, 0},
                                     100.0, 41, 31);
  const auto hit = intersect(cam.ray(20, 15), world_box(dims));
  ASSERT_TRUE(hit.has_value());
  ASSERT_EQ(hit->t_enter, 0.0);
  EXPECT_GT(expect_blocks_match_oracle(dims, 8, cam, &pool), 0);
}

TEST_P(KernelEquality, FootprintCornersMissingTheirBlock) {
  // A block's footprint is the bounding rectangle of its projected
  // corners, so rays near its corners hit the volume but miss the block:
  // those lanes must stay transparent and take no samples.
  const Vec3i dims{24, 24, 24};
  const Camera cam = Camera::default_view(dims, 56, 48);
  par::ThreadPool pool(GetParam());
  const Decomposition d(dims, 27);
  std::int64_t missing = 0;
  for (std::int64_t b = 0; b < d.num_blocks(); ++b) {
    const Box3d region = world_box_of(d.block_box(b), dims);
    const Rect fp = cam.footprint(region);
    for (int py = fp.y0; py < fp.y1; ++py) {
      for (int px = fp.x0; px < fp.x1; ++px) {
        const Ray ray = cam.ray(px, py);
        missing += intersect(ray, world_box(dims)).has_value() &&
                           !intersect(ray, region).has_value()
                       ? 1
                       : 0;
      }
    }
  }
  ASSERT_GT(missing, 0);
  EXPECT_GT(expect_blocks_match_oracle(dims, 27, cam, &pool), 0);
}

TEST_P(KernelEquality, OneVoxelThickVolumes) {
  // A brick one voxel thick on an axis clamps both trilinear neighbors to
  // the same voxel (upper-clamp fraction 0).
  par::ThreadPool pool(GetParam());
  for (const Vec3i dims : {Vec3i{1, 16, 12}, Vec3i{14, 1, 16},
                           Vec3i{16, 12, 1}}) {
    SCOPED_TRACE(testing::Message()
                 << dims.x << "x" << dims.y << "x" << dims.z);
    const Camera cam = Camera::default_view(dims, 35, 29);
    expect_blocks_match_oracle(dims, 4, cam, &pool);
  }
}

TEST_P(KernelEquality, NonFiniteAndDenormalVoxelsBitwiseEqual) {
  // NaN, infinite and denormal voxels, which a file may legally hold, in
  // an otherwise smooth field. Trilinear blends spread them into NaN and
  // infinite samples; the transfer function's first control point is
  // opaque, so a NaN sample shows in the image, and kernel and oracle must
  // still agree bitwise, at unit and non-unit steps.
  const Vec3i dims{20, 20, 20};
  Brick whole = whole_brick(dims, 23);
  const Vec3i planted[] = {{10, 10, 10}, {4, 12, 7},  {15, 5, 9},
                           {8, 8, 16},   {12, 14, 3}, {6, 3, 12},
                           {17, 16, 11}};
  ASSERT_EQ(std::size(planted), std::size(kNonFiniteAndDenormal));
  for (std::size_t i = 0; i < std::size(planted); ++i) {
    whole.at(planted[i].x, planted[i].y, planted[i].z) =
        kNonFiniteAndDenormal[i];
  }
  const TransferFunction tf({{0.1f, 0.8f, 0.2f, 0.1f, 0.3f},
                             {0.5f, 0.1f, 0.6f, 0.9f, 0.05f},
                             {0.9f, 1.0f, 1.0f, 0.8f, 0.4f}});
  const Camera cam = Camera::default_view(dims, 43, 37);
  const Box3i all{{0, 0, 0}, dims};
  par::ThreadPool pool(GetParam());
  for (const double step : {1.0, 0.6}) {
    SCOPED_TRACE(testing::Message() << "step " << step);
    RenderConfig cfg = base_config();
    cfg.step_voxels = step;
    const Raycaster rc(dims, cfg);
    const SubImage got = rc.render_block(whole, all, cam, tf, &pool);
    expect_identical(oracle_block(rc, dims, {whole, tf}, all, cam), got);
    EXPECT_GT(got.samples, 0);
  }
}

TEST_P(KernelEquality, BivariateBlockDecompositionBitwiseEqual) {
  // The bivariate fig5-style scene: colour and opacity bricks per block,
  // at steps 1 and 0.6 with early termination off and at 0.3, which must
  // actually cut rays short here.
  const Vec3i dims{24, 24, 24};
  const Camera cam = Camera::default_view(dims, 48, 48);
  par::ThreadPool pool(GetParam());
  std::int64_t bivariate_samples[2] = {0, 0};
  EXPECT_GT(expect_blocks_match_oracle(dims, 8, cam, &pool, bivariate_samples),
            0);
  EXPECT_GT(bivariate_samples[1], 0);
  EXPECT_LT(bivariate_samples[1], bivariate_samples[0]);
}

TEST_P(KernelEquality, BivariateNonFiniteAndDenormalVoxelsBitwiseEqual) {
  // NaN, infinite and denormal voxels planted in the colour brick, then in
  // the opacity brick: the colour and opacity lookups each take the first
  // control point on a NaN, in kernel and oracle alike.
  const Vec3i dims{20, 20, 20};
  const Vec3i planted[] = {{10, 10, 10}, {4, 12, 7},  {15, 5, 9},
                           {8, 8, 16},   {12, 14, 3}, {6, 3, 12},
                           {17, 16, 11}};
  ASSERT_EQ(std::size(planted), std::size(kNonFiniteAndDenormal));
  const BivariateTransferFunction bi(
      TransferFunction({{0.1f, 0.8f, 0.2f, 0.1f, 0.3f},
                        {0.5f, 0.1f, 0.6f, 0.9f, 0.05f},
                        {0.9f, 1.0f, 1.0f, 0.8f, 0.4f}}),
      TransferFunction({{0.1f, 0.0f, 0.0f, 0.0f, 0.35f},
                        {0.6f, 0.0f, 0.0f, 0.0f, 0.02f},
                        {0.9f, 0.0f, 0.0f, 0.0f, 0.3f}}));
  const Camera cam = Camera::default_view(dims, 43, 37);
  const Box3i all{{0, 0, 0}, dims};
  par::ThreadPool pool(GetParam());
  for (const bool in_opacity : {false, true}) {
    BivariateBricks bb(all, dims, 23);
    Brick& target = in_opacity ? bb.opacity : bb.color;
    for (std::size_t i = 0; i < std::size(planted); ++i) {
      target.at(planted[i].x, planted[i].y, planted[i].z) =
          kNonFiniteAndDenormal[i];
    }
    for (const double step : {1.0, 0.6}) {
      SCOPED_TRACE(testing::Message() << "in opacity " << in_opacity
                                      << " step " << step);
      RenderConfig cfg = base_config();
      cfg.step_voxels = step;
      const Raycaster rc(dims, cfg);
      const SubImage got =
          rc.render_block(bb.color, bb.opacity, all, cam, bi, &pool);
      expect_identical(oracle_block(rc, dims, {bb.color, bb.opacity, bi}, all,
                                    cam),
                       got);
      EXPECT_GT(got.samples, 0);
    }
  }
}

TEST_P(KernelEquality, BivariateRowBandsStitchBitwiseEqual) {
  // Steal-mode contract for bivariate blocks: disjoint render_block_rows
  // bands stitched in row order reproduce render_block bit-for-bit, and
  // both match the oracle.
  const Vec3i dims{24, 24, 24};
  const Camera cam = Camera::default_view(dims, 64, 64);
  const BivariateTransferFunction bi = test_bivariate_tf();
  const Decomposition d(dims, 8);
  par::ThreadPool pool(GetParam());
  for (const std::int64_t block : {std::int64_t{3}, std::int64_t{6}}) {
    SCOPED_TRACE(testing::Message() << "block " << block);
    const Box3i owned = d.block_box(block);
    const BivariateBricks bb(d.ghost_box(block, 1), dims, 13);
    const Raycaster rc(dims, base_config());
    const SubImage whole =
        rc.render_block(bb.color, bb.opacity, owned, cam, bi, &pool);
    expect_identical(
        oracle_block(rc, dims, {bb.color, bb.opacity, bi}, owned, cam), whole);

    const std::int64_t rows = std::max(0, whole.rect.height());
    ASSERT_GT(rows, 2);
    SubImage stitched;
    stitched.rect = whole.rect;
    stitched.pixels.assign(whole.pixels.size(), kTransparent);
    const std::size_t width = std::size_t(whole.rect.width());
    for (const auto& [r0, r1] : {std::pair{std::int64_t{0}, rows / 3},
                                 {rows / 3, 2 * rows / 3},
                                 {2 * rows / 3, rows}}) {
      const SubImage band = rc.render_block_rows(bb.color, bb.opacity, owned,
                                                 cam, bi, r0, r1, &pool);
      std::copy(band.pixels.begin(), band.pixels.end(),
                stitched.pixels.begin() +
                    std::ptrdiff_t(std::size_t(r0) * width));
      stitched.samples += band.samples;
    }
    expect_identical(whole, stitched);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, KernelEquality, ::testing::Values(1, 4));

TEST(SimdKernelTest, BivariateBricksMustShareOneBox) {
  // The kernel reads the opacity brick at the colour brick's indices, so
  // bricks of different boxes are refused, even when each covers the
  // block and its ghost layer.
  const Vec3i dims{16, 16, 16};
  const Camera cam = Camera::default_view(dims, 24, 24);
  const BivariateTransferFunction bi = test_bivariate_tf();
  const Decomposition d(dims, 8);
  const Box3i owned = d.block_box(0);
  const Raycaster rc(dims, base_config());
  const BivariateBricks ghosted(d.ghost_box(0, 1), dims, 3);
  const BivariateBricks wider(d.ghost_box(0, 2), dims, 3);
  ASSERT_FALSE(cam.footprint(world_box_of(owned, dims)).empty());
  EXPECT_THROW(
      rc.render_block(ghosted.color, wider.opacity, owned, cam, bi), Error);
  EXPECT_THROW(rc.render_block_rows(wider.color, ghosted.opacity, owned, cam,
                                    bi, 0, 1),
               Error);
  // Equal boxes render, whichever covering box they share.
  EXPECT_GT(
      rc.render_block(wider.color, wider.opacity, owned, cam, bi).samples, 0);
}

TEST(SimdKernelTest, EarlyTerminationSaturatesWholePackets) {
  // A low termination threshold plus an opaque ramp makes whole packets die
  // at the same depth, exercising the all-dead early exit; the sample
  // counts must still match the oracle's break-after-sample semantics.
  const Vec3i dims{24, 24, 24};
  const Brick whole = whole_brick(dims, 5);
  const Camera cam = Camera::default_view(dims, 40, 40);
  const TransferFunction tf = TransferFunction::grayscale_ramp(0.9f);
  RenderConfig cfg = base_config();
  cfg.early_termination = 0.25;

  const Raycaster rc(dims, cfg);
  const Box3i owned{{0, 0, 0}, dims};
  const SubImage got = rc.render_block(whole, owned, cam, tf);
  expect_identical(oracle_block(rc, dims, {whole, tf}, owned, cam), got);
  // Early termination must actually have cut samples vs the full march.
  const Raycaster full(dims, base_config());
  EXPECT_LT(got.samples, full.render_block(whole, owned, cam, tf).samples);
}

TEST(SimdKernelTest, LatticeBeyondInt32Throws) {
  // The kernel carries lattice indices in int32 lanes, so a step that puts
  // more than 2^30 steps along the world box's diagonal is refused up
  // front; ordinary steps still render and match the oracle.
  const Vec3i dims{8, 8, 8};
  RenderConfig tiny = base_config();
  tiny.step_voxels = 1e-9;
  EXPECT_THROW(Raycaster(dims, tiny), Error);
  const Brick whole = whole_brick(dims, 3);
  const Camera cam = Camera::default_view(dims, 4, 4);
  const TransferFunction tf = TransferFunction::supernova();
  const Box3i owned{{0, 0, 0}, dims};
  for (const double step : {0.5, 1.7}) {
    RenderConfig cfg = base_config();
    cfg.step_voxels = step;
    const Raycaster rc(dims, cfg);
    const SubImage got = rc.render_block(whole, owned, cam, tf);
    EXPECT_GT(got.samples, 0);
    expect_identical(oracle_block(rc, dims, {whole, tf}, owned, cam), got);
  }
}

TEST(SimdKernelTest, NarrowRectRemainderPackets) {
  // A 5-pixel-wide footprint band: every packet is a remainder packet.
  const Vec3i dims{24, 24, 24};
  const Brick whole = whole_brick(dims, 7);
  const Camera cam = Camera::default_view(dims, 5, 64);
  const TransferFunction tf = TransferFunction::supernova();
  const Raycaster rc(dims, base_config());
  const Box3i owned{{0, 0, 0}, dims};
  expect_identical(oracle_block(rc, dims, {whole, tf}, owned, cam),
                   rc.render_block(whole, owned, cam, tf));
}

TEST(SimdKernelTest, RowBandStitchingUnderSimd) {
  // Steal-mode contract: disjoint render_block_rows bands stitched in row
  // order reproduce render_block bit-for-bit, and both match the oracle.
  const Vec3i dims{24, 24, 24};
  const Camera cam = Camera::default_view(dims, 64, 64);
  const TransferFunction tf = TransferFunction::supernova();
  const Decomposition d(dims, 8);
  const std::int64_t block = 3;
  const Box3i owned = d.block_box(block);
  Brick brick(d.ghost_box(block, 1));
  data::SupernovaField(13).fill_brick(data::Variable::kDensity, dims, &brick);

  const Raycaster rc(dims, base_config());
  const SubImage whole = rc.render_block(brick, owned, cam, tf);
  expect_identical(oracle_block(rc, dims, {brick, tf}, owned, cam), whole);

  const std::int64_t rows = std::max(0, whole.rect.height());
  const std::int64_t cut1 = rows / 3, cut2 = 2 * rows / 3;
  SubImage stitched;
  stitched.rect = whole.rect;
  stitched.pixels.assign(whole.pixels.size(), kTransparent);
  const std::size_t width = std::size_t(whole.rect.width());
  for (const auto& [r0, r1] :
       {std::pair{std::int64_t{0}, cut1}, {cut1, cut2}, {cut2, rows}}) {
    if (r0 >= r1) continue;
    const SubImage band = rc.render_block_rows(brick, owned, cam, tf, r0, r1);
    std::copy(band.pixels.begin(), band.pixels.end(),
              stitched.pixels.begin() + std::ptrdiff_t(std::size_t(r0) * width));
    stitched.samples += band.samples;
  }
  expect_identical(whole, stitched);
}

TEST(SimdKernelTest, RenderFullMatchesScalarAndReportsSamples) {
  // render_full against the per-ray oracle over the whole image.
  const Vec3i dims{24, 24, 24};
  const Brick whole = whole_brick(dims, 9);
  const Camera cam = Camera::default_view(dims, 48, 48);
  const TransferFunction tf = TransferFunction::grayscale_ramp(0.2f);
  const Raycaster rc(dims, base_config());
  std::int64_t samples = 0;
  const Image got = rc.render_full(whole, cam, tf, nullptr, &samples);
  const SubImage want =
      oracle_rect(rc, dims, {whole, tf}, world_box(dims), cam,
                  Rect{0, 0, cam.width(), cam.height()});
  EXPECT_EQ(samples, want.samples);
  EXPECT_GT(samples, 0);
  ASSERT_EQ(got.pixels().size(), want.pixels.size());
  EXPECT_EQ(std::memcmp(got.pixels().data(), want.pixels.data(),
                        want.pixels.size() * sizeof(Rgba)),
            0);
}

}  // namespace
}  // namespace pvr::render
