// Tests for pvr::compose — image partitions, direct-send schedules and
// execution, compositor policies, binary swap (radix-k at radix 2); the
// headline correctness property is parallel composite == serial reference
// rendering. Radix-k has its own suite in radix_k_test.cpp.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "compose/direct_send.hpp"
#include "compose/image_partition.hpp"
#include "compose/policy.hpp"
#include "compose/radix_k.hpp"
#include "compose/schedule.hpp"
#include "data/synthetic.hpp"
#include "render/decomposition.hpp"
#include "render/raycaster.hpp"

namespace pvr::compose {
namespace {

// ---------------- Policy ----------------

TEST(PolicyTest, PaperSchedule) {
  using enum CompositorPolicy;
  EXPECT_EQ(compositor_count(kOriginal, 32768), 32768);
  EXPECT_EQ(compositor_count(kImproved, 64), 64);
  EXPECT_EQ(compositor_count(kImproved, 1024), 1024);
  EXPECT_EQ(compositor_count(kImproved, 2048), 1024);
  EXPECT_EQ(compositor_count(kImproved, 4096), 1024);
  EXPECT_EQ(compositor_count(kImproved, 8192), 2048);
  EXPECT_EQ(compositor_count(kImproved, 32768), 2048);
  EXPECT_EQ(compositor_count(kFixed, 100, 7), 7);
  EXPECT_EQ(compositor_count(kFixed, 4, 7), 4);    // clamped to n
  EXPECT_EQ(compositor_count(kFixed, 4, 0), 1);    // floor of 1
}

// ---------------- Image partition ----------------

class PartitionProperty : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(PartitionProperty, TilesPartitionEveryPixel) {
  const std::int64_t m = GetParam();
  const ImagePartition part(61, 47, m);
  EXPECT_EQ(part.num_tiles(), m);
  std::int64_t covered = 0;
  for (std::int64_t t = 0; t < m; ++t) {
    const Rect r = part.tile(t);
    covered += r.pixel_count();
    // Every pixel of the tile maps back to it.
    EXPECT_EQ(part.tile_of(r.x0, r.y0), t);
    EXPECT_EQ(part.tile_of(r.x1 - 1, r.y1 - 1), t);
  }
  EXPECT_EQ(covered, 61 * 47);
}

INSTANTIATE_TEST_SUITE_P(Counts, PartitionProperty,
                         ::testing::Values(1, 2, 3, 4, 6, 12, 16, 47, 61));

TEST(ImagePartitionTest, TileRangeCoversRect) {
  const ImagePartition part(64, 64, 16);
  const Rect query{10, 20, 40, 50};
  std::int64_t tx0, tx1, ty0, ty1;
  part.tile_range(query, &tx0, &tx1, &ty0, &ty1);
  // The union of tiles in range contains the query rect.
  Rect hull{1 << 30, 1 << 30, -(1 << 30), -(1 << 30)};
  for (std::int64_t ty = ty0; ty < ty1; ++ty) {
    for (std::int64_t tx = tx0; tx < tx1; ++tx) {
      const Rect t = part.tile(part.tile_index(tx, ty));
      hull.x0 = std::min(hull.x0, t.x0);
      hull.y0 = std::min(hull.y0, t.y0);
      hull.x1 = std::max(hull.x1, t.x1);
      hull.y1 = std::max(hull.y1, t.y1);
    }
  }
  EXPECT_EQ(hull.intersect(query), query);
}

TEST(ImagePartitionTest, InvalidArgsThrow) {
  EXPECT_THROW(ImagePartition(0, 10, 1), Error);
  EXPECT_THROW(ImagePartition(10, 10, 0), Error);
  EXPECT_THROW(ImagePartition(2, 2, 5), Error);
}

// ---------------- Schedule ----------------

TEST(ScheduleTest, EveryFootprintPixelExactlyOnce) {
  const ImagePartition part(40, 40, 8);
  std::vector<BlockScreenInfo> blocks = {
      {0, Rect{0, 0, 25, 25}, 1.0},
      {1, Rect{10, 10, 40, 40}, 2.0},
      {2, Rect{}, 0.5},  // empty footprint: no messages
  };
  const auto schedule = build_direct_send_schedule(blocks, part);
  // Per block: scheduled pixels == footprint pixels, with disjoint rects.
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    std::int64_t pixels = 0;
    std::set<std::pair<int, int>> seen;
    for (const auto& msg : schedule) {
      if (msg.block_index != std::int32_t(b)) continue;
      pixels += msg.pixels();
      for (int y = msg.rect.y0; y < msg.rect.y1; ++y) {
        for (int x = msg.rect.x0; x < msg.rect.x1; ++x) {
          EXPECT_TRUE(seen.insert({x, y}).second)
              << "pixel scheduled twice: " << x << "," << y;
          // And the pixel belongs to the tile of its destination.
          EXPECT_EQ(part.tile_of(x, y), msg.dst_rank);
        }
      }
    }
    EXPECT_EQ(pixels, blocks[b].footprint.pixel_count());
  }
}

TEST(ScheduleTest, MessageCountGrowsSublinearlyWithCompositors) {
  // The direct-send message count is O(m * n^(1/3))-ish: fewer compositors
  // must mean fewer messages for the same footprints.
  std::vector<BlockScreenInfo> blocks;
  for (int i = 0; i < 64; ++i) {
    const int x = (i % 4) * 25, y = ((i / 4) % 4) * 25;
    blocks.push_back({i, Rect{x, y, x + 30, y + 30}.intersect(
                             Rect{0, 0, 100, 100}),
                      double(i)});
  }
  const ImagePartition many(100, 100, 64);
  const ImagePartition few(100, 100, 4);
  const auto s_many = build_direct_send_schedule(blocks, many);
  const auto s_few = build_direct_send_schedule(blocks, few);
  EXPECT_GT(s_many.size(), s_few.size());
  // Every footprint pixel is scheduled exactly once either way.
  const auto pixels = [](const std::vector<ScheduledMessage>& schedule) {
    std::int64_t total = 0;
    for (const ScheduledMessage& m : schedule) total += m.pixels();
    return total;
  };
  EXPECT_EQ(pixels(s_many), pixels(s_few));
}

// ---------------- Execute-mode correctness ----------------

struct Scene {
  Vec3i dims{24, 24, 24};
  render::RenderConfig cfg;
  render::TransferFunction tf = render::TransferFunction::supernova();
  int width = 56, height = 56;

  Scene() {
    cfg.step_voxels = 1.0;
    cfg.early_termination = 1.0;  // exact comparisons need no early-out
  }

  Image serial_reference(const render::Camera& cam) const {
    Brick whole(Box3i{{0, 0, 0}, dims});
    data::SupernovaField(9).fill_brick(data::Variable::kPressure, dims,
                                       &whole);
    const render::Raycaster rc(dims, cfg);
    return rc.render_full(whole, cam, tf);
  }

  /// Renders per-block subimages for `ranks` blocks.
  void render_blocks(std::int64_t ranks, const render::Camera& cam,
                     std::vector<BlockScreenInfo>* infos,
                     std::vector<render::SubImage>* subs) const {
    const render::Decomposition d(dims, ranks);
    const render::Raycaster rc(dims, cfg);
    const data::SupernovaField field(9);
    for (std::int64_t b = 0; b < d.num_blocks(); ++b) {
      const Box3i owned = d.block_box(b);
      Brick brick(d.ghost_box(b, 1));
      field.fill_brick(data::Variable::kPressure, dims, &brick);
      render::SubImage sub = rc.render_block(brick, owned, cam, tf);
      const Box3d wb = render::world_box_of(owned, dims);
      infos->push_back(BlockScreenInfo{
          b, sub.rect,
          cam.depth_of({wb.center().x, wb.center().y, wb.center().z})});
      subs->push_back(std::move(sub));
    }
  }
};

class DirectSendRanks : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(DirectSendRanks, MatchesSerialReference) {
  const std::int64_t ranks = GetParam();
  Scene scene;
  const render::Camera cam =
      render::Camera::default_view(scene.dims, scene.width, scene.height);
  const Image reference = scene.serial_reference(cam);

  std::vector<BlockScreenInfo> infos;
  std::vector<render::SubImage> subs;
  scene.render_blocks(ranks, cam, &infos, &subs);

  machine::Partition part(machine::MachineConfig{}, ranks);
  runtime::Runtime rt(part, runtime::Mode::kExecute);
  CompositeConfig cc;
  cc.policy = CompositorPolicy::kOriginal;
  DirectSendCompositor compositor(rt, cc);
  Image out;
  const CompositeStats stats =
      compositor.execute(infos, subs, scene.width, scene.height, &out);
  EXPECT_GT(stats.messages, 0);
  // Blending order differs from serial ray order only in float rounding.
  EXPECT_LT(out.max_difference(reference), 2e-3f);
}

INSTANTIATE_TEST_SUITE_P(Ranks, DirectSendRanks,
                         ::testing::Values(1, 2, 4, 8, 27, 64));

TEST(DirectSendTest, LimitedCompositorsProduceSameImage) {
  Scene scene;
  const render::Camera cam =
      render::Camera::default_view(scene.dims, scene.width, scene.height);
  std::vector<BlockScreenInfo> infos;
  std::vector<render::SubImage> subs;
  scene.render_blocks(64, cam, &infos, &subs);

  machine::Partition part(machine::MachineConfig{}, 64);
  runtime::Runtime rt(part, runtime::Mode::kExecute);

  Image full, limited;
  CompositeConfig all;
  all.policy = CompositorPolicy::kOriginal;
  DirectSendCompositor c_all(rt, all);
  c_all.execute(infos, subs, scene.width, scene.height, &full);

  CompositeConfig few;
  few.policy = CompositorPolicy::kFixed;
  few.fixed_compositors = 5;
  DirectSendCompositor c_few(rt, few);
  const CompositeStats s_few =
      c_few.execute(infos, subs, scene.width, scene.height, &limited);
  EXPECT_EQ(s_few.num_compositors, 5);
  EXPECT_LT(limited.max_difference(full), 1e-5f);
}

// Binary swap (Ma et al. 1994) is radix-k with radix 2.
TEST(BinarySwapTest, MatchesDirectSend) {
  Scene scene;
  const render::Camera cam =
      render::Camera::default_view(scene.dims, scene.width, scene.height);
  std::vector<BlockScreenInfo> infos;
  std::vector<render::SubImage> subs;
  scene.render_blocks(8, cam, &infos, &subs);

  machine::Partition part(machine::MachineConfig{}, 8);
  runtime::Runtime rt(part, runtime::Mode::kExecute);

  Image ds, bs;
  CompositeConfig cc;
  cc.policy = CompositorPolicy::kOriginal;
  DirectSendCompositor direct(rt, cc);
  direct.execute(infos, subs, scene.width, scene.height, &ds);
  RadixKCompositor swap(rt, cc, RadixKCompositor::factor(8, 2));
  const CompositeStats stats =
      swap.execute(infos, subs, scene.width, scene.height, &bs);
  EXPECT_EQ(stats.messages, 8 * 3);  // n * log2(n)
  EXPECT_LT(bs.max_difference(ds), 1e-3f);
}

// ---------------- Model-mode behaviour ----------------

std::vector<BlockScreenInfo> synthetic_blocks(std::int64_t n, int width,
                                              int height) {
  // Block footprints arranged like a volume decomposition: an f x f x f
  // grid of blocks projected onto overlapping tiles.
  std::vector<BlockScreenInfo> blocks;
  const auto f = std::int64_t(std::llround(std::cbrt(double(n))));
  const std::int64_t side = std::max<std::int64_t>(1, f);
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t bx = i % side, by = (i / side) % side,
                       bz = i / (side * side);
    const int w = int(width / side) + 2, h = int(height / side) + 2;
    const int x = int(bx * width / side), y = int(by * height / side);
    blocks.push_back(
        {i, Rect{x, y, std::min(width, x + w), std::min(height, y + h)},
         double(bz)});
  }
  return blocks;
}

TEST(DirectSendModelTest, ImprovedBeatsOriginalAtScale) {
  // The paper's Fig 3 claim, reproduced in the model: at 32K renderers the
  // limited-compositor schedule is an order of magnitude faster.
  const std::int64_t n = 32768;
  machine::Partition part(machine::MachineConfig{}, n);
  runtime::Runtime rt(part, runtime::Mode::kModel);
  const auto blocks = synthetic_blocks(n, 1600, 1600);

  CompositeConfig original;
  original.policy = CompositorPolicy::kOriginal;
  CompositeConfig improved;
  improved.policy = CompositorPolicy::kImproved;
  const CompositeStats so =
      DirectSendCompositor(rt, original).model(blocks, 1600, 1600);
  const CompositeStats si =
      DirectSendCompositor(rt, improved).model(blocks, 1600, 1600);
  EXPECT_EQ(si.num_compositors, 2048);
  EXPECT_GT(so.seconds, 8.0 * si.seconds);
  EXPECT_GT(so.messages, si.messages);
  // Wire bytes are identical: every footprint pixel ships exactly once.
  EXPECT_EQ(so.bytes, si.bytes);
}

TEST(DirectSendModelTest, MessageSizeShrinksWithScale) {
  // Fig 4's x-axis: mean message size ~ image_bytes / n.
  machine::MachineConfig mcfg;
  for (const std::int64_t n : {std::int64_t(256), std::int64_t(4096)}) {
    machine::Partition part(mcfg, n);
    runtime::Runtime rt(part, runtime::Mode::kModel);
    CompositeConfig cc;
    cc.policy = CompositorPolicy::kOriginal;
    const CompositeStats s = DirectSendCompositor(rt, cc).model(
        synthetic_blocks(n, 1600, 1600), 1600, 1600);
    const double expected = 4.0 * 1600.0 * 1600.0 / double(n);
    EXPECT_GT(s.mean_message_bytes(), expected / 4.0);
    EXPECT_LT(s.mean_message_bytes(), expected * 4.0);
  }
}

}  // namespace
}  // namespace pvr::compose
