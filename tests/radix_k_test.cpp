// Tests for radix-k compositing: factorization, equivalence with the serial
// reference / direct-send, degeneration to binary swap (radix 2, pinned to
// the prices of the retired stand-alone binary-swap compositor) and
// direct-send, and model-mode behaviour.
#include <gtest/gtest.h>

#include "compose/direct_send.hpp"
#include "compose/radix_k.hpp"
#include "data/synthetic.hpp"
#include "fault/fault_plan.hpp"
#include "par/thread_pool.hpp"
#include "render/decomposition.hpp"
#include "render/raycaster.hpp"

namespace pvr::compose {
namespace {

TEST(RadixFactorTest, FactorsCorrectly) {
  EXPECT_EQ(RadixKCompositor::factor(32768, 8),
            (std::vector<int>{8, 8, 8, 8, 8}));
  EXPECT_EQ(RadixKCompositor::factor(8, 2), (std::vector<int>{2, 2, 2}));
  EXPECT_EQ(RadixKCompositor::factor(48, 4), (std::vector<int>{4, 4, 3}));
  EXPECT_EQ(RadixKCompositor::factor(9, 4), (std::vector<int>{3, 3}));
  EXPECT_EQ(RadixKCompositor::factor(1, 2), (std::vector<int>{1}));
  // Prime remainder larger than k becomes one big round.
  EXPECT_EQ(RadixKCompositor::factor(14, 4), (std::vector<int>{2, 7}));
}

TEST(RadixFactorTest, ProductAlwaysN) {
  for (std::int64_t n : {std::int64_t(6), std::int64_t(64),
                         std::int64_t(100), std::int64_t(4096)}) {
    for (int k : {2, 3, 4, 8, 16}) {
      std::int64_t product = 1;
      for (const int f : RadixKCompositor::factor(n, k)) product *= f;
      EXPECT_EQ(product, n) << "n=" << n << " k=" << k;
    }
  }
}

TEST(RadixKTest, InvalidRadicesRejected) {
  machine::Partition part(machine::MachineConfig{}, 8);
  runtime::Runtime rt(part, runtime::Mode::kModel);
  EXPECT_THROW(RadixKCompositor(rt, CompositeConfig{}, {2, 2}), Error);
  EXPECT_THROW(RadixKCompositor(rt, CompositeConfig{}, {}), Error);
  EXPECT_THROW(RadixKCompositor(rt, CompositeConfig{}, {8, 0}), Error);
}

// ---- Execute-mode equivalence ----

struct Scene {
  Vec3i dims{24, 24, 24};
  render::RenderConfig cfg;
  render::TransferFunction tf = render::TransferFunction::supernova();
  int width = 48, height = 48;

  Scene() {
    cfg.step_voxels = 1.0;
    cfg.early_termination = 1.0;
  }

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

class RadixEquivalence
    : public ::testing::TestWithParam<std::pair<std::int64_t, int>> {};

TEST_P(RadixEquivalence, MatchesDirectSend) {
  const auto [ranks, radix] = GetParam();
  Scene scene;
  const render::Camera cam =
      render::Camera::default_view(scene.dims, scene.width, scene.height);
  std::vector<BlockScreenInfo> infos;
  std::vector<render::SubImage> subs;
  scene.render_blocks(ranks, cam, &infos, &subs);

  machine::Partition part(machine::MachineConfig{}, ranks);
  runtime::Runtime rt(part, runtime::Mode::kExecute);
  // With PVR_THREADS > 1, rank inboxes drain in parallel.
  const int threads = par::resolve_threads(0);
  par::ThreadPool pool(threads);
  rt.set_pool(threads > 1 ? &pool : nullptr);

  Image reference;
  CompositeConfig cc;
  cc.policy = CompositorPolicy::kOriginal;
  DirectSendCompositor(rt, cc).execute(infos, subs, scene.width,
                                       scene.height, &reference);

  Image img;
  RadixKCompositor radixk(rt, cc, RadixKCompositor::factor(ranks, radix));
  const CompositeStats stats =
      radixk.execute(infos, subs, scene.width, scene.height, &img);
  EXPECT_GT(stats.messages, 0);
  if (radix == 2) {
    EXPECT_EQ(stats.messages, ranks * ilog2(ranks));  // binary swap: n log2 n
  }
  EXPECT_LT(img.max_difference(reference), 1e-3f)
      << "ranks=" << ranks << " radix=" << radix;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RadixEquivalence,
    ::testing::Values(std::make_pair(std::int64_t(8), 2),
                      std::make_pair(std::int64_t(8), 4),
                      std::make_pair(std::int64_t(8), 8),
                      std::make_pair(std::int64_t(27), 3),
                      std::make_pair(std::int64_t(12), 4),
                      std::make_pair(std::int64_t(16), 4),
                      std::make_pair(std::int64_t(64), 8)));

/// Model prices of binary swap (Ma et al. 1994) as the stand-alone
/// binary-swap compositor computed them before radix-k with radix 2
/// replaced it.
struct BinarySwapPrice {
  std::int64_t ranks = 0;
  bool faulty = false;
  std::int64_t messages = 0, bytes = 0, compositors = 0;
  double exchange_seconds = 0.0, retry_seconds = 0.0, blend_seconds = 0.0;
  std::int64_t substituted = 0, proxied = 0, retries = 0, rerouted = 0,
               rerouted_hops = 0;
  double coverage = 1.0;
};

TEST(RadixKTest, Radix2MatchesBinarySwapMessageStructure) {
  // Radix-k with all-2 rounds is binary swap: the same messages, bytes,
  // compositors, exchange and retry seconds, and fault recovery, healthy
  // and under a seeded plan of dead nodes and links. Only the blend term
  // differs, by exactly 2x: each round radix-k prices k x kept pixels (every
  // piece it blends, its own included), where binary swap priced only the
  // received half.
  const BinarySwapPrice pinned[] = {
      {64, false, 384, 16515072, 64, 0x1.b1358ab3a0984p-1, 0.0,
       0x1.523a8a6a7ca0ap-9, 0, 0, 0, 0, 0, 1.0},
      {64, true, 366, 14417920, 56, 0x1.11dea94271f4p+0, 0x1.c6a7ef9db22dp-3,
       0x1.523a8a6a7ca0ap-7, 8, 64, 111, 45, 133, 0x1.cp-1},
      {1024, false, 10240, 268173312, 1024, 0x1.9c1ad0af19092p+0, 0.0,
       0x1.574307e780017p-9, 0, 0, 0, 0, 0, 1.0},
      {1024, true, 9916, 228982784, 868, 0x1.3b8200a573199p+3,
       0x1.079db22d0e56p+3, 0x1.574307e780017p-7, 156, 2560, 4119, 5372,
       32041, 0x1.b2p-1},
  };
  for (const BinarySwapPrice& want : pinned) {
    const std::int64_t n = want.ranks;
    machine::Partition part(machine::MachineConfig{}, n);
    runtime::Runtime rt(part, runtime::Mode::kModel);
    fault::FaultSpec spec;
    spec.seed = 2009;
    spec.node_fail_rate = 0.2;
    spec.link_fail_rate = 0.02;
    const fault::FaultPlan plan =
        fault::FaultPlan::generate(part, machine::StorageConfig{}, spec);
    fault::FaultStats fstats = plan.census();
    if (want.faulty) rt.set_faults(&plan, &fstats);
    // Overlapping footprints spread over the image, depth ties broken by
    // rank.
    std::vector<BlockScreenInfo> blocks;
    for (std::int64_t i = 0; i < n; ++i) {
      const int x = int((i * 61) % 192);
      const int y = int((i * 127) % 192);
      blocks.push_back(BlockScreenInfo{i, Rect{x, y, x + 64, y + 64},
                                       double(i % 37)});
    }
    const CompositeStats got =
        RadixKCompositor(rt, CompositeConfig{}, RadixKCompositor::factor(n, 2))
            .model(blocks, 256, 256);
    SCOPED_TRACE("ranks=" + std::to_string(n) +
                 (want.faulty ? " faulty" : " healthy"));
    EXPECT_EQ(got.messages, want.messages);
    EXPECT_EQ(got.bytes, want.bytes);
    EXPECT_EQ(got.num_compositors, want.compositors);
    EXPECT_EQ(got.exchange.seconds, want.exchange_seconds);
    EXPECT_EQ(got.exchange.retry_seconds, want.retry_seconds);
    EXPECT_EQ(got.blend_seconds, 2.0 * want.blend_seconds);
    EXPECT_EQ(got.seconds, got.exchange.seconds + got.blend_seconds);
    EXPECT_EQ(fstats.substituted_partners, want.substituted);
    EXPECT_EQ(fstats.proxied_messages, want.proxied);
    EXPECT_EQ(fstats.retries, want.retries);
    EXPECT_EQ(fstats.rerouted_messages, want.rerouted);
    EXPECT_EQ(fstats.rerouted_hops, want.rerouted_hops);
    EXPECT_EQ(fstats.coverage, want.coverage);
  }
}

TEST(RadixKTest, SingleRoundHasDirectSendMessageCount) {
  // One round of radix n: every rank sends n-1 pieces (all-to-all within
  // one group) — the direct-send communication structure.
  const std::int64_t n = 64;
  machine::Partition part(machine::MachineConfig{}, n);
  runtime::Runtime rt(part, runtime::Mode::kModel);
  std::vector<BlockScreenInfo> blocks(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    blocks[std::size_t(i)] = BlockScreenInfo{i, Rect{0, 0, 64, 64},
                                             double(i)};
  }
  const auto rk =
      RadixKCompositor(rt, CompositeConfig{}, {int(n)}).model(blocks, 64, 64);
  EXPECT_EQ(rk.messages, n * (n - 1));
}

TEST(RadixKTest, IntermediateRadixBeatsExtremesAtScale) {
  // The radix-k result: at large scale some k between 2 (binary swap) and n
  // (direct-send-like) minimizes compositing time.
  const std::int64_t n = 16384;
  machine::Partition part(machine::MachineConfig{}, n);
  runtime::Runtime rt(part, runtime::Mode::kModel);
  std::vector<BlockScreenInfo> blocks(static_cast<std::size_t>(n));
  // Direct-send-like footprints: small rects spread over the image.
  const std::int64_t side = 1600;
  for (std::int64_t i = 0; i < n; ++i) {
    const int x = int((i * 61) % (side - 80));
    const int y = int((i * 127) % (side - 80));
    blocks[std::size_t(i)] =
        BlockScreenInfo{i, Rect{x, y, x + 64, y + 64}, double(i % 101)};
  }
  CompositeConfig cc;
  const auto time_for = [&](int k) {
    return RadixKCompositor(rt, cc, RadixKCompositor::factor(n, k))
        .model(blocks, int(side), int(side))
        .seconds;
  };
  const double t2 = time_for(2);
  const double t8 = time_for(8);
  EXPECT_LT(t8, t2);  // fewer rounds beat binary swap
}

}  // namespace
}  // namespace pvr::compose
