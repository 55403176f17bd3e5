// Tests for the ray-packet kernel (src/render/simd/), the renderer's only
// univariate kernel: bitwise image and sample-count equality with the
// per-ray oracle below, packet remainder and early-exit handling, row-band
// stitching, the vec8 wrapper's exactness guarantees, and the hoisted value
// normalization.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "data/synthetic.hpp"
#include "par/thread_pool.hpp"
#include "render/camera.hpp"
#include "render/decomposition.hpp"
#include "render/raycaster.hpp"
#include "render/simd/packet_kernel.hpp"
#include "render/simd/tf_lut.hpp"
#include "render/simd/vec8.hpp"
#include "render/transfer_function.hpp"

namespace pvr::render {
namespace {

// ---------------- the per-ray oracle ----------------
//
// One ray at a time over the global sample lattice, through
// Raycaster::sample_world and TransferFunction::sample: the reference march
// that the packet kernel's lanes replay. The kernel must match its pixels
// and sample counts bitwise.

/// Marches one ray through the half-open `region` (world space) of a
/// volume of `dims`; returns its premultiplied color and adds the samples
/// it took to `*samples`.
Rgba oracle_ray(const Raycaster& rc, const Vec3i& dims, const Brick& brick,
                const Box3d& region, const Ray& ray,
                const TransferFunction& tf, std::int64_t* samples) {
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
    const float v = rc.sample_world(brick, p) * scale + bias;
    acc.blend_under(tf.sample(v, step));
    ++*samples;
    if (acc.a >= float(cfg.early_termination)) break;
  }
  return acc;
}

/// The oracle's image of `rect` for the rays through `region`.
SubImage oracle_rect(const Raycaster& rc, const Vec3i& dims,
                     const Brick& brick, const Box3d& region,
                     const Camera& cam, const TransferFunction& tf,
                     const Rect& rect) {
  SubImage out;
  out.rect = rect;
  for (int py = rect.y0; py < rect.y1; ++py) {
    for (int px = rect.x0; px < rect.x1; ++px) {
      out.pixels.push_back(oracle_ray(rc, dims, brick, region,
                                      cam.ray(px, py), tf, &out.samples));
    }
  }
  return out;
}

/// The oracle's render_block: the block's whole screen footprint.
SubImage oracle_block(const Raycaster& rc, const Vec3i& dims,
                      const Brick& brick, const Box3i& owned,
                      const Camera& cam, const TransferFunction& tf) {
  const Box3d region = world_box_of(owned, dims);
  return oracle_rect(rc, dims, brick, region, cam, tf,
                     cam.footprint(region));
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

TEST(Vec8Test, FloorMatchesStdFloorBitwise) {
  const double cases[] = {-2.5,  -2.0, -1.0000001, -0.5, -0.0, 0.0,
                          0.4999, 1.0,  1.5,        2.0,  17.75, 1e9 + 0.5};
  for (double x : cases) {
    simd::Double8 v = simd::Double8::broadcast(x);
    const simd::Double8 f = simd::floor(v);
    for (int i = 0; i < simd::kLanes; ++i) {
      EXPECT_EQ(f.lane(i), std::floor(x)) << "x=" << x;
    }
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

TEST(Vec8Test, ComparisonsProduceFullLaneMasks) {
  simd::Float8 a = simd::Float8::broadcast(1.0f);
  simd::Float8 b = simd::Float8::broadcast(2.0f);
  b.set_lane(3, 0.5f);
  const simd::Int8 lt = a < b;
  for (int i = 0; i < simd::kLanes; ++i) {
    EXPECT_EQ(lt.lane(i), i == 3 ? 0 : -1);
  }
  simd::Long8 x = simd::Long8::broadcast(7);
  simd::Long8 y = simd::Long8::broadcast(7);
  y.set_lane(5, 9);
  const simd::Int8 gt = y > x;
  for (int i = 0; i < simd::kLanes; ++i) {
    EXPECT_EQ(gt.lane(i), i == 5 ? -1 : 0);
  }
  EXPECT_EQ(simd::min(x, y).lane(5), 7);
  EXPECT_EQ(simd::max(x, y).lane(5), 9);
}

// ---------------- transfer-function LUT ----------------

TEST(TfLutTest, MatchesTransferFunctionSampleBitwise) {
  for (const TransferFunction& tf :
       {TransferFunction::supernova(), TransferFunction::grayscale_ramp(0.2f),
        TransferFunction::transparent()}) {
    for (const float step : {1.0f, 0.5f, 2.0f}) {
      const simd::TfLut lut(tf, step);
      for (int i = -64; i <= 1088; ++i) {
        const float v = float(i) / 1024.0f;  // sweeps below 0 and above 1
        const Rgba want = tf.sample(v, step);
        const Rgba got = lut.sample1(v);
        EXPECT_EQ(want.r, got.r) << "v=" << v << " step=" << step;
        EXPECT_EQ(want.g, got.g) << "v=" << v << " step=" << step;
        EXPECT_EQ(want.b, got.b) << "v=" << v << " step=" << step;
        EXPECT_EQ(want.a, got.a) << "v=" << v << " step=" << step;
      }
    }
  }
}

TEST(TfLutTest, MaskedLanesComeBackZero) {
  const simd::TfLut lut(TransferFunction::supernova(), 1.0f);
  simd::Int8 mask = simd::Int8::broadcast(-1);
  mask.set_lane(2, 0);
  mask.set_lane(6, 0);
  simd::Float8 v = simd::Float8::broadcast(0.6f);
  simd::Float8 r, g, b, a;
  lut.sample8(v, mask, &r, &g, &b, &a);
  const Rgba want = TransferFunction::supernova().sample(0.6f, 1.0f);
  for (int i = 0; i < simd::kLanes; ++i) {
    if (i == 2 || i == 6) {
      EXPECT_EQ(r.lane(i), 0.0f);
      EXPECT_EQ(a.lane(i), 0.0f);
    } else {
      EXPECT_EQ(r.lane(i), want.r);
      EXPECT_EQ(a.lane(i), want.a);
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
  expect_identical(oracle_block(rc, dims, whole, owned, cam, tf), got);
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
          expect_identical(oracle_block(rc, dims, brick, owned, cam, tf), got);
          samples_by_termination[early < 1.0 ? 1 : 0] += got.samples;
        }
      }
      // Early termination must actually cut rays short in this scene.
      EXPECT_LT(samples_by_termination[1], samples_by_termination[0]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, KernelEquality, ::testing::Values(1, 4));

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
  expect_identical(oracle_block(rc, dims, whole, owned, cam, tf), got);
  // Early termination must actually have cut samples vs the full march.
  const Raycaster full(dims, base_config());
  EXPECT_LT(got.samples, full.render_block(whole, owned, cam, tf).samples);
}

TEST(SimdKernelTest, NarrowRectRemainderPackets) {
  // A 5-pixel-wide footprint band: every packet is a remainder packet.
  const Vec3i dims{24, 24, 24};
  const Brick whole = whole_brick(dims, 7);
  const Camera cam = Camera::default_view(dims, 5, 64);
  const TransferFunction tf = TransferFunction::supernova();
  const Raycaster rc(dims, base_config());
  const Box3i owned{{0, 0, 0}, dims};
  expect_identical(oracle_block(rc, dims, whole, owned, cam, tf),
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
  expect_identical(oracle_block(rc, dims, brick, owned, cam, tf), whole);

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
      oracle_rect(rc, dims, whole, world_box(dims), cam, tf,
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
