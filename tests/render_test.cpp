// Tests for pvr::render — decomposition, camera, transfer functions, ray
// caster (including parallel-vs-serial sample ownership).
#include <gtest/gtest.h>

#include <set>

#include "data/synthetic.hpp"
#include "render/camera.hpp"
#include "render/decomposition.hpp"
#include "render/raycaster.hpp"
#include "render/render_model.hpp"
#include "render/transfer_function.hpp"
#include "render/trilinear.hpp"

namespace pvr::render {
namespace {

// ---------------- Decomposition ----------------

class DecompositionProperty
    : public ::testing::TestWithParam<std::tuple<std::int64_t, std::int64_t>> {
};

TEST_P(DecompositionProperty, BlocksPartitionTheVolume) {
  const auto [n, nblocks] = GetParam();
  const Vec3i dims{n, n, n};
  const Decomposition d(dims, nblocks);
  EXPECT_EQ(d.num_blocks(), nblocks);
  // Volumes sum to the whole, and every spot-checked voxel lies in exactly
  // one block box.
  std::int64_t total = 0;
  for (std::int64_t b = 0; b < d.num_blocks(); ++b) {
    const Box3i box = d.block_box(b);
    EXPECT_FALSE(box.empty());
    total += box.volume();
  }
  EXPECT_EQ(total, dims.volume());
  // Spot-check voxel ownership.
  for (std::int64_t z = 0; z < n; z += std::max<std::int64_t>(1, n / 5)) {
    for (std::int64_t x = 0; x < n; x += std::max<std::int64_t>(1, n / 7)) {
      const Vec3i v{x, (x + z) % n, z};
      int owners = 0;
      for (std::int64_t b = 0; b < d.num_blocks(); ++b) {
        if (d.block_box(b).contains(v)) ++owners;
      }
      EXPECT_EQ(owners, 1);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DecompositionProperty,
    ::testing::Values(std::make_tuple(16, 1), std::make_tuple(16, 8),
                      std::make_tuple(17, 8), std::make_tuple(32, 27),
                      std::make_tuple(30, 12), std::make_tuple(64, 64),
                      std::make_tuple(33, 100)));

TEST(DecompositionTest, GhostBoxesClipToVolume) {
  const Decomposition d({16, 16, 16}, 8);
  const Box3i g0 = d.ghost_box(0, 1);
  EXPECT_EQ(g0.lo, (Vec3i{0, 0, 0}));  // clipped at the volume boundary
  EXPECT_EQ(g0.hi, (Vec3i{9, 9, 9}));  // one ghost layer beyond the 8^3 box
  const Box3i own = d.block_box(0);
  EXPECT_EQ(d.ghost_box(0, 0), own);
}

TEST(DecompositionTest, AnisotropicVolumeGetsMatchingGrid) {
  // Larger axes get more blocks.
  const Decomposition d({64, 16, 16}, 16);
  EXPECT_GE(d.block_grid().x, d.block_grid().y);
  EXPECT_EQ(d.block_grid().volume(), 16);
}

TEST(DecompositionTest, RoundRobinAssignment) {
  EXPECT_EQ(Decomposition::rank_of_block(0, 4), 0);
  EXPECT_EQ(Decomposition::rank_of_block(5, 4), 1);
}

TEST(DecompositionTest, InvalidArgsThrow) {
  EXPECT_THROW(Decomposition({8, 8, 8}, 0), Error);
  EXPECT_THROW(Decomposition({2, 2, 2}, 9), Error);
  EXPECT_THROW(Decomposition({0, 8, 8}, 1), Error);
}

// ---------------- Camera ----------------

TEST(RayBoxTest, HitAndMiss) {
  const Box3d box{{0, 0, 0}, {1, 1, 1}};
  const Ray hit{{-1, 0.5, 0.5}, {1, 0, 0}};
  const auto h = intersect(hit, box);
  ASSERT_TRUE(h.has_value());
  EXPECT_NEAR(h->t_enter, 1.0, 1e-12);
  EXPECT_NEAR(h->t_exit, 2.0, 1e-12);
  const Ray miss{{-1, 2.5, 0.5}, {1, 0, 0}};
  EXPECT_FALSE(intersect(miss, box).has_value());
}

TEST(RayBoxTest, OriginInsideBox) {
  const Box3d box{{0, 0, 0}, {1, 1, 1}};
  const Ray r{{0.5, 0.5, 0.5}, {0, 0, 1}};
  const auto h = intersect(r, box);
  ASSERT_TRUE(h.has_value());
  EXPECT_DOUBLE_EQ(h->t_enter, 0.0);
  EXPECT_NEAR(h->t_exit, 0.5, 1e-12);
}

TEST(CameraTest, ProjectInvertsRay) {
  const Camera cam = Camera::look_at({2, 1.5, 3}, {0.5, 0.5, 0.5},
                                     {0, 1, 0}, 40.0, 320, 240);
  for (int px = 10; px < 320; px += 75) {
    for (int py = 5; py < 240; py += 60) {
      const Ray r = cam.ray(px, py);
      const Vec3d p = r.at(2.5);
      const auto proj = cam.project(p);
      ASSERT_TRUE(proj.has_value());
      EXPECT_NEAR(proj->x, double(px), 1e-6);
      EXPECT_NEAR(proj->y, double(py), 1e-6);
      EXPECT_GT(proj->z, 0.0);
    }
  }
}

TEST(CameraTest, OrthographicProjectInvertsRay) {
  const Camera cam = Camera::ortho_look_at({2, 1, 3}, {0.5, 0.5, 0.5},
                                           {0, 1, 0}, 2.0, 128, 128);
  const Ray r = cam.ray(37, 91);
  const auto proj = cam.project(r.at(1.7));
  ASSERT_TRUE(proj.has_value());
  EXPECT_NEAR(proj->x, 37.0, 1e-9);
  EXPECT_NEAR(proj->y, 91.0, 1e-9);
}

TEST(CameraTest, FootprintContainsProjectedCorners) {
  const Camera cam = Camera::default_view({32, 32, 32}, 200, 200);
  const Box3d box{{0.2, 0.2, 0.2}, {0.5, 0.6, 0.4}};
  const Rect fp = cam.footprint(box);
  EXPECT_FALSE(fp.empty());
  for (int corner = 0; corner < 8; ++corner) {
    const Vec3d p{(corner & 1) ? box.hi.x : box.lo.x,
                  (corner & 2) ? box.hi.y : box.lo.y,
                  (corner & 4) ? box.hi.z : box.lo.z};
    const auto proj = cam.project(p);
    ASSERT_TRUE(proj.has_value());
    // Projected corners land inside the (clipped) footprint when on-screen.
    if (proj->x >= 0 && proj->x < 200 && proj->y >= 0 && proj->y < 200) {
      EXPECT_TRUE(fp.contains(int(proj->x), int(proj->y)));
    }
  }
}

TEST(CameraTest, DegenerateArgsThrow) {
  EXPECT_THROW(Camera::look_at({0, 0, 0}, {0, 0, 0}, {0, 1, 0}, 40, 64, 64),
               Error);
  EXPECT_THROW(Camera::look_at({0, 0, 1}, {0, 0, 0}, {0, 0, 1}, 40, 64, 64),
               Error);
  EXPECT_THROW(Camera::look_at({0, 0, 1}, {0, 0, 0}, {0, 1, 0}, 0, 64, 64),
               Error);
}

TEST(WorldBoxTest, UnitScale) {
  const Box3d wb = world_box({100, 50, 25});
  EXPECT_DOUBLE_EQ(wb.hi.x, 1.0);
  EXPECT_DOUBLE_EQ(wb.hi.y, 0.5);
  EXPECT_DOUBLE_EQ(wb.hi.z, 0.25);
  EXPECT_DOUBLE_EQ(voxel_size({100, 50, 25}), 0.01);
}

// ---------------- Transfer function ----------------

TEST(TransferFunctionTest, PiecewiseLinearLookup) {
  const TransferFunction tf = TransferFunction::grayscale_ramp(0.5f);
  const Rgba lo = tf.sample(0.0f);
  const Rgba hi = tf.sample(1.0f);
  EXPECT_FLOAT_EQ(lo.a, 0.0f);
  EXPECT_FLOAT_EQ(hi.a, 0.5f);
  const Rgba mid = tf.sample(0.5f);
  EXPECT_NEAR(mid.a, 0.25f, 1e-6f);
  // Premultiplied: color channels <= alpha for a gray ramp.
  EXPECT_LE(mid.r, mid.a + 1e-6f);
}

TEST(TransferFunctionTest, ClampsOutOfRange) {
  const TransferFunction tf = TransferFunction::grayscale_ramp(0.5f);
  EXPECT_EQ(tf.sample(-1.0f), tf.sample(0.0f));
  EXPECT_EQ(tf.sample(2.0f), tf.sample(1.0f));
}

TEST(TransferFunctionTest, OpacityCorrectionConverges) {
  // Two half-steps accumulate to (almost exactly) one full step.
  const TransferFunction tf = TransferFunction::grayscale_ramp(0.4f);
  const Rgba full = tf.sample(1.0f, 1.0f);
  Rgba acc = tf.sample(1.0f, 0.5f);
  acc.blend_under(tf.sample(1.0f, 0.5f));
  EXPECT_NEAR(acc.a, full.a, 1e-5f);
}

TEST(TransferFunctionTest, UnsortedPointsRejected) {
  EXPECT_THROW(TransferFunction({{0.5f, 0, 0, 0, 0}, {0.2f, 0, 0, 0, 0}}),
               Error);
  EXPECT_THROW(TransferFunction({}), Error);
}

TEST(TransferFunctionTest, TransparentIsIdentity) {
  const TransferFunction tf = TransferFunction::transparent();
  EXPECT_EQ(tf.sample(0.7f), kTransparent);
}

// ---------------- Raycaster ----------------

RenderConfig exact_config() {
  RenderConfig cfg;
  cfg.step_voxels = 1.0;
  cfg.early_termination = 1.0;  // disabled for exact comparisons
  return cfg;
}

TEST(RaycasterTest, TransparentTfRendersNothing) {
  const Vec3i dims{16, 16, 16};
  Brick whole(Box3i{{0, 0, 0}, dims});
  data::SupernovaField(3).fill_brick(data::Variable::kPressure, dims,
                                     &whole);
  const Raycaster rc(dims, exact_config());
  const Camera cam = Camera::default_view(dims, 64, 64);
  const Image img =
      rc.render_full(whole, cam, TransferFunction::transparent());
  Image empty(64, 64);
  EXPECT_FLOAT_EQ(img.max_difference(empty), 0.0f);
}

TEST(RaycasterTest, ConstantFieldRendersUniformCore) {
  const Vec3i dims{32, 32, 32};
  Brick whole(Box3i{{0, 0, 0}, dims});
  std::fill(whole.data().begin(), whole.data().end(), 0.8f);
  const Raycaster rc(dims, exact_config());
  const Camera cam = Camera::default_view(dims, 96, 96);
  const Image img =
      rc.render_full(whole, cam, TransferFunction::grayscale_ramp(0.3f));
  // The image center looks straight at the volume: substantial opacity.
  EXPECT_GT(img.at(48, 48).a, 0.5f);
  // Corners look past it: fully transparent.
  EXPECT_FLOAT_EQ(img.at(0, 0).a, 0.0f);
}

TEST(RaycasterTest, SampleWorldInterpolates) {
  const Vec3i dims{4, 4, 4};
  Brick b(Box3i{{0, 0, 0}, dims});
  for (std::int64_t z = 0; z < 4; ++z) {
    for (std::int64_t y = 0; y < 4; ++y) {
      for (std::int64_t x = 0; x < 4; ++x) {
        b.at(x, y, z) = float(x);  // linear in x
      }
    }
  }
  const double h = voxel_size(dims);
  // World x = (1.5 + 0.5) * h samples exactly between voxels 1 and 2.
  const float v = sample_trilinear(b, 1.0 / h, {2.0 * h, 2.0 * h, 2.0 * h});
  EXPECT_NEAR(v, 1.5f, 1e-6f);
}

TEST(RaycasterTest, BlockGhostRequirementEnforced) {
  const Vec3i dims{16, 16, 16};
  const Decomposition d(dims, 8);
  const Box3i owned = d.block_box(7);  // interior-adjacent block
  Brick too_small(owned);              // missing the ghost layer
  const Raycaster rc(dims, exact_config());
  const Camera cam = Camera::default_view(dims, 32, 32);
  EXPECT_THROW((void)rc.render_block(too_small, owned, cam,
                                     TransferFunction::grayscale_ramp()),
               Error);
}

TEST(RaycasterTest, LatticeSamplesPartitionAcrossBlocks) {
  // Core invariant: serial sample count == sum of per-block sample counts
  // for the same camera/step (every lattice sample owned exactly once).
  const Vec3i dims{24, 24, 24};
  Brick whole(Box3i{{0, 0, 0}, dims});
  data::SupernovaField(9).fill_brick(data::Variable::kDensity, dims, &whole);
  const Raycaster rc(dims, exact_config());
  const Camera cam = Camera::default_view(dims, 48, 48);
  const TransferFunction tf = TransferFunction::grayscale_ramp(0.2f);

  // Serial: count samples via a single block covering everything.
  const SubImage serial =
      rc.render_block(whole, Box3i{{0, 0, 0}, dims}, cam, tf);

  const Decomposition d(dims, 8);
  std::int64_t parallel_samples = 0;
  for (std::int64_t b = 0; b < 8; ++b) {
    const Box3i owned = d.block_box(b);
    Brick brick(d.ghost_box(b, 1));
    data::SupernovaField(9).fill_brick(data::Variable::kDensity, dims,
                                       &brick);
    parallel_samples += rc.render_block(brick, owned, cam, tf).samples;
  }
  EXPECT_EQ(parallel_samples, serial.samples);
}

TEST(RaycasterTest, RenderFullReportsRealSampleTally) {
  // render_full reports the same lattice sample count as a whole-volume
  // render_block and as the sum over a block decomposition (the dead
  // "does not report samples" tally is gone).
  const Vec3i dims{24, 24, 24};
  Brick whole(Box3i{{0, 0, 0}, dims});
  data::SupernovaField(9).fill_brick(data::Variable::kDensity, dims, &whole);
  const Raycaster rc(dims, exact_config());
  const Camera cam = Camera::default_view(dims, 48, 48);
  const TransferFunction tf = TransferFunction::grayscale_ramp(0.2f);

  std::int64_t full_samples = 0;
  (void)rc.render_full(whole, cam, tf, nullptr, &full_samples);
  const SubImage serial =
      rc.render_block(whole, Box3i{{0, 0, 0}, dims}, cam, tf);
  EXPECT_GT(full_samples, 0);
  EXPECT_EQ(full_samples, serial.samples);

  const Decomposition d(dims, 8);
  std::int64_t block_samples = 0;
  for (std::int64_t b = 0; b < 8; ++b) {
    const Box3i owned = d.block_box(b);
    Brick brick(d.ghost_box(b, 1));
    data::SupernovaField(9).fill_brick(data::Variable::kDensity, dims,
                                       &brick);
    block_samples += rc.render_block(brick, owned, cam, tf).samples;
  }
  EXPECT_EQ(full_samples, block_samples);
}

TEST(RenderModelTest, SampleEstimateMatchesActualWithinFactor) {
  const Vec3i dims{32, 32, 32};
  Brick whole(Box3i{{0, 0, 0}, dims});
  data::SupernovaField(4).fill_brick(data::Variable::kPressure, dims,
                                     &whole);
  RenderConfig cfg = exact_config();
  const Raycaster rc(dims, cfg);
  const Camera cam = Camera::default_view(dims, 64, 64);
  const SubImage actual = rc.render_block(
      whole, Box3i{{0, 0, 0}, dims}, cam,
      TransferFunction::grayscale_ramp(0.2f));

  const machine::MachineConfig mcfg;
  const RenderModel model(mcfg);
  const std::int64_t est =
      model.block_samples(world_box(dims), cam, rc.step_world());
  EXPECT_GT(est, actual.samples / 2);
  EXPECT_LT(est, actual.samples * 2);
}

TEST(RenderModelTest, EstimateScalesInverselyWithRanks) {
  const machine::MachineConfig cfg;
  const RenderModel model(cfg);
  const Decomposition d({64, 64, 64}, 64);
  const Camera cam = Camera::default_view({64, 64, 64}, 128, 128);
  RenderConfig rcfg;
  const RenderEstimate e1 = model.estimate(d, 1, cam, rcfg);
  const RenderEstimate e64 = model.estimate(d, 64, cam, rcfg);
  EXPECT_EQ(e1.total_samples, e64.total_samples);
  EXPECT_GT(e1.seconds, 30.0 * e64.seconds);  // near-perfect scaling
}

}  // namespace
}  // namespace pvr::render
