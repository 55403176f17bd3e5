// Fault-tolerant compositing across direct-send and radix-k (binary swap is
// radix-k with radix 2): partner substitution (deterministic proxy choice,
// proxy-chain widening, all-dead failure), coverage agreement with
// direct-send at a fixed FaultSpec seed, distinct-live-owner reporting,
// empty-piece message suppression, and healthy-plan byte-identity of stats,
// trace JSON, and image bytes at several host thread counts.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "compose/direct_send.hpp"
#include "compose/radix_k.hpp"
#include "core/pipeline.hpp"
#include "data/synthetic.hpp"
#include "fault/fault_plan.hpp"
#include "obs/export.hpp"
#include "par/thread_pool.hpp"
#include "render/decomposition.hpp"
#include "render/raycaster.hpp"

namespace pvr::compose {
namespace {

/// One tiny block per rank, rank-ordered, distinct depths (so the
/// visibility order is the identity) and a one-pixel footprint per rank —
/// coverage arithmetic stays exact by hand.
std::vector<BlockScreenInfo> synthetic_blocks(std::int64_t n, int width,
                                              int height) {
  std::vector<BlockScreenInfo> blocks;
  blocks.reserve(std::size_t(n));
  for (std::int64_t r = 0; r < n; ++r) {
    const int x = int(r % width);
    const int y = int((r / width) % height);
    blocks.push_back(BlockScreenInfo{r, Rect{x, y, x + 1, y + 1}, double(r)});
  }
  return blocks;
}

core::ExperimentConfig fault_config(CompositeAlgorithm alg, int radix = 4,
                                    int host_threads = 1) {
  core::ExperimentConfig cfg;
  cfg.num_ranks = 64;
  cfg.dataset = format::supernova_desc(format::FileFormat::kRaw, 24);
  cfg.variable = cfg.dataset.variables.front();
  cfg.image_width = 48;
  cfg.image_height = 48;
  cfg.render.step_voxels = 1.0;
  cfg.render.early_termination = 1.0;
  cfg.composite.policy = CompositorPolicy::kOriginal;
  cfg.composite.algorithm = alg;
  cfg.composite.radix = radix;
  cfg.host_threads = host_threads;
  return cfg;
}

fault::FaultPlan seeded_plan(const machine::Partition& part) {
  fault::FaultSpec spec;
  spec.seed = 1234;
  spec.node_fail_rate = 0.15;
  return fault::FaultPlan::generate(part, machine::StorageConfig{}, spec);
}

void expect_same_frame(const core::FrameStats& a, const core::FrameStats& b) {
  EXPECT_EQ(a.io_seconds, b.io_seconds);
  EXPECT_EQ(a.render_seconds, b.render_seconds);
  EXPECT_EQ(a.composite_seconds, b.composite_seconds);
  EXPECT_EQ(a.composite.messages, b.composite.messages);
  EXPECT_EQ(a.composite.bytes, b.composite.bytes);
  EXPECT_EQ(a.composite.num_compositors, b.composite.num_compositors);
  EXPECT_EQ(a.composite.blend_seconds, b.composite.blend_seconds);
  EXPECT_EQ(a.composite.exchange.seconds, b.composite.exchange.seconds);
  EXPECT_EQ(a.composite.exchange.retry_seconds,
            b.composite.exchange.retry_seconds);
  EXPECT_EQ(a.faults.retries, b.faults.retries);
  EXPECT_EQ(a.faults.substituted_partners, b.faults.substituted_partners);
  EXPECT_EQ(a.faults.proxied_messages, b.faults.proxied_messages);
  EXPECT_EQ(a.faults.dropped_blocks, b.faults.dropped_blocks);
  EXPECT_EQ(a.faults.coverage, b.faults.coverage);
}

// ---- empty-piece suppression (message-count regression pins) ----

TEST(EmptyPieceTest, BinarySwapPinsMessageCountAt64RanksOn4x4Image) {
  machine::Partition part(machine::MachineConfig{}, 64);
  runtime::Runtime rt(part, runtime::Mode::kModel);
  const auto blocks = synthetic_blocks(64, 4, 4);
  RadixKCompositor bs(rt, CompositeConfig{}, {2, 2, 2, 2, 2, 2});
  const CompositeStats stats = bs.model(blocks, 4, 4);
  // Binary swap is radix-k with every round radix 2. Rounds 0-3 halve
  // 4x4 -> 2x4 -> 2x2 -> 1x2 -> 1x1: everyone ships a non-empty half
  // (4 * 64). Splitting a 1x1 region yields one empty half,
  // so round 4 ships 32 messages (keep-first positions only) and round 5
  // ships 16; without the empty-piece skip this would be 6 * 64 = 384.
  EXPECT_EQ(stats.messages, 4 * 64 + 32 + 16);
  EXPECT_EQ(stats.exchange.messages, stats.messages);
}

TEST(EmptyPieceTest, RadixKPinsMessageCountAt64RanksOn4x4Image) {
  machine::Partition part(machine::MachineConfig{}, 64);
  runtime::Runtime rt(part, runtime::Mode::kModel);
  const auto blocks = synthetic_blocks(64, 4, 4);
  RadixKCompositor rk(rt, CompositeConfig{}, {4, 4, 4});
  const CompositeStats stats = rk.model(blocks, 4, 4);
  // Rounds 1-2 split 4x4 -> 1x4 -> 1x1 with all pieces non-empty
  // (2 * 64 * 3). Splitting 1x1 four ways leaves only the last piece
  // non-empty, so in round 3 each of the 48 ranks whose digit is not 3
  // ships exactly one message; without the skip this would be 576.
  EXPECT_EQ(stats.messages, 192 + 192 + 48);
  EXPECT_EQ(stats.exchange.messages, stats.messages);
}

// ---- partner substitution ----

TEST(ComposeFaultTest, ProxySearchWidensPastDeadExchangeGroups) {
  machine::Partition part(machine::MachineConfig{}, 16);
  runtime::Runtime rt(part, runtime::Mode::kModel);
  fault::FaultPlan plan;
  plan.fail_node(0);  // ranks 0..3: position 0's pair partner (1) and its
                      // whole 4-group (1,2,3) are dead too, so the proxy
                      // must come from the 8-group (rank 4).
  fault::FaultStats fstats = plan.census();
  rt.set_faults(&plan, &fstats);
  const auto blocks = synthetic_blocks(16, 16, 16);

  RadixKCompositor bs(rt, CompositeConfig{}, {2, 2, 2, 2});  // binary swap
  const CompositeStats stats = bs.model(blocks, 16, 16);
  EXPECT_EQ(fstats.substituted_partners, 4);
  EXPECT_GT(fstats.proxied_messages, 0);
  EXPECT_GT(fstats.retries, 0);
  EXPECT_GT(stats.exchange.retry_seconds, 0.0);
  EXPECT_EQ(stats.num_compositors, 12);  // 16 ranks, 4 dead
  // One-pixel footprints: 4 dropped contributions out of 16.
  EXPECT_EQ(fstats.coverage, 12.0 / 16.0);
  rt.set_faults(nullptr, nullptr);
}

TEST(ComposeFaultTest, RadixKSubstitutesWithinItsGroups) {
  machine::Partition part(machine::MachineConfig{}, 16);
  runtime::Runtime rt(part, runtime::Mode::kModel);
  fault::FaultPlan plan;
  plan.fail_node(0);
  fault::FaultStats fstats = plan.census();
  rt.set_faults(&plan, &fstats);
  const auto blocks = synthetic_blocks(16, 16, 16);

  RadixKCompositor rk(rt, CompositeConfig{}, {4, 4});
  const CompositeStats stats = rk.model(blocks, 16, 16);
  // Dead positions 1..3 find no live member in their first 4-group and
  // widen to the full communicator; all land on rank 4.
  EXPECT_EQ(fstats.substituted_partners, 4);
  EXPECT_GT(fstats.proxied_messages, 0);
  EXPECT_EQ(stats.num_compositors, 12);
  EXPECT_EQ(fstats.coverage, 12.0 / 16.0);
  rt.set_faults(nullptr, nullptr);
}

TEST(ComposeFaultTest, AllRanksDeadThrows) {
  machine::Partition part(machine::MachineConfig{}, 8);
  runtime::Runtime rt(part, runtime::Mode::kModel);
  fault::FaultPlan plan;
  for (std::int64_t node = 0; node < part.num_nodes(); ++node) {
    plan.fail_node(node);
  }
  fault::FaultStats fstats = plan.census();
  rt.set_faults(&plan, &fstats);
  const auto blocks = synthetic_blocks(8, 16, 16);
  RadixKCompositor rk(rt, CompositeConfig{}, {2, 2, 2});
  EXPECT_THROW(rk.model(blocks, 16, 16), Error);
  rt.set_faults(nullptr, nullptr);
}

TEST(ComposeFaultTest, DirectSendReportsDistinctLiveOwners) {
  machine::Partition part(machine::MachineConfig{}, 16);
  runtime::Runtime rt(part, runtime::Mode::kModel);
  fault::FaultPlan plan;
  plan.fail_node(0);  // tiles 0..3 all reassign to rank 4
  fault::FaultStats fstats = plan.census();
  rt.set_faults(&plan, &fstats);
  const auto blocks = synthetic_blocks(16, 16, 16);
  CompositeConfig cc;
  cc.policy = CompositorPolicy::kOriginal;
  DirectSendCompositor ds(rt, cc);
  const CompositeStats stats = ds.model(blocks, 16, 16);
  EXPECT_EQ(fstats.reassigned_partitions, 4);
  // 16 tiles collapse onto 12 distinct live ranks.
  EXPECT_EQ(stats.num_compositors, 12);
  rt.set_faults(nullptr, nullptr);
}

// ---- pipeline-level: every compositor under one seeded plan ----

/// The compositors the pipeline dispatches to: direct-send, and radix-k
/// at radix 2 (binary swap) and radix 4.
struct Compositor {
  CompositeAlgorithm algorithm;
  int radix;
};
constexpr Compositor kCompositors[] = {{CompositeAlgorithm::kDirectSend, 4},
                                       {CompositeAlgorithm::kRadixK, 2},
                                       {CompositeAlgorithm::kRadixK, 4}};

TEST(ComposeFaultTest, AllCompositorsAgreeOnCoverageAtFixedSeed) {
  std::vector<double> coverages;
  for (const auto [alg, radix] : kCompositors) {
    core::ParallelVolumeRenderer pvr(fault_config(alg, radix));
    const fault::FaultPlan plan = seeded_plan(pvr.partition());
    ASSERT_GT(plan.census().failed_nodes, 0) << "seed must kill something";
    const core::FrameStats a = pvr.model_frame_with_faults(plan);
    const core::FrameStats b = pvr.model_frame_with_faults(plan);
    expect_same_frame(a, b);  // same plan, same frame: deterministic
    EXPECT_GT(a.faults.dropped_blocks, 0);
    EXPECT_LT(a.faults.coverage, 1.0);
    EXPECT_GT(a.faults.coverage, 0.0);
    if (alg == CompositeAlgorithm::kDirectSend) {
      EXPECT_EQ(a.faults.substituted_partners, 0);
    } else {
      EXPECT_GT(a.faults.substituted_partners, 0);
      EXPECT_GT(a.faults.proxied_messages, 0);
    }
    coverages.push_back(a.faults.coverage);
  }
  // The dropped-renderer pixel fraction is a property of the plan, not of
  // the exchange pattern: every compositor must agree exactly.
  EXPECT_EQ(coverages[0], coverages[1]);
  EXPECT_EQ(coverages[0], coverages[2]);
}

TEST(ComposeFaultTest, FaultyRecursiveFramesMatchAcrossThreadCounts) {
  for (const int radix : {2, 4}) {
    core::FrameStats reference;
    std::string reference_trace;
    for (const int threads : {1, 4}) {
      obs::Tracer tracer;
      core::ParallelVolumeRenderer pvr(
          fault_config(CompositeAlgorithm::kRadixK, radix, threads));
      pvr.set_tracer(&tracer);
      const fault::FaultPlan plan = seeded_plan(pvr.partition());
      const core::FrameStats stats = pvr.model_frame_with_faults(plan);
      const std::string trace = obs::to_chrome_trace_json(tracer);
      if (threads == 1) {
        reference = stats;
        reference_trace = trace;
      } else {
        expect_same_frame(reference, stats);
        EXPECT_EQ(reference_trace, trace);
      }
    }
  }
}

// ---- healthy-plan byte-identity ----

TEST(ComposeFaultTest, EmptyPlanIsByteIdenticalToHealthyFrame) {
  for (const auto [alg, radix] : kCompositors) {
    core::FrameStats reference;
    std::string reference_trace;
    for (const int threads : {1, 4}) {
      obs::Tracer healthy_tracer;
      core::ParallelVolumeRenderer healthy(
          fault_config(alg, radix, threads));
      healthy.set_tracer(&healthy_tracer);
      const core::FrameStats base = healthy.model_frame();
      const std::string base_trace = obs::to_chrome_trace_json(healthy_tracer);

      obs::Tracer faultless_tracer;
      core::ParallelVolumeRenderer faultless(
          fault_config(alg, radix, threads));
      faultless.set_tracer(&faultless_tracer);
      const core::FrameStats same =
          faultless.model_frame_with_faults(fault::FaultPlan{});
      const std::string same_trace =
          obs::to_chrome_trace_json(faultless_tracer);

      expect_same_frame(base, same);
      EXPECT_EQ(base_trace, same_trace);
      EXPECT_EQ(same.faults.coverage, 1.0);
      EXPECT_EQ(same.faults.substituted_partners, 0);
      if (threads == 1) {
        reference = base;
        reference_trace = base_trace;
      } else {
        expect_same_frame(reference, base);
        EXPECT_EQ(reference_trace, base_trace);
      }
    }
  }
}

TEST(ComposeFaultTest, HealthyExecuteImagesMatchAcrossThreadCounts) {
  // Real pixels through radix-k at radix 2 (binary swap) and a mixed
  // {4, 2} schedule, serial vs 4 host threads:
  // the empty-piece skip and fault plumbing must not move a single bit on
  // the healthy execute path.
  const Vec3i dims{24, 24, 24};
  const int width = 48, height = 48;
  const std::int64_t ranks = 8;
  render::RenderConfig rcfg;
  rcfg.step_voxels = 1.0;
  rcfg.early_termination = 1.0;
  const render::Camera cam = render::Camera::default_view(dims, width, height);
  const render::Decomposition d(dims, ranks);
  const render::Raycaster rc(dims, rcfg);
  const render::TransferFunction tf = render::TransferFunction::supernova();
  const data::SupernovaField field(9);
  std::vector<BlockScreenInfo> infos;
  std::vector<render::SubImage> subs;
  for (std::int64_t b = 0; b < d.num_blocks(); ++b) {
    const Box3i owned = d.block_box(b);
    Brick brick(d.ghost_box(b, 1));
    field.fill_brick(data::Variable::kPressure, dims, &brick);
    render::SubImage sub = rc.render_block(brick, owned, cam, tf);
    const Box3d wb = render::world_box_of(owned, dims);
    infos.push_back(BlockScreenInfo{
        b, sub.rect,
        cam.depth_of({wb.center().x, wb.center().y, wb.center().z})});
    subs.push_back(std::move(sub));
  }

  for (const std::vector<int>& radices :
       {std::vector<int>{2, 2, 2}, std::vector<int>{4, 2}}) {
    Image reference;
    for (const int threads : {1, 4}) {
      machine::Partition part(machine::MachineConfig{}, ranks);
      runtime::Runtime rt(part, runtime::Mode::kExecute);
      par::ThreadPool pool(threads);
      rt.set_pool(threads > 1 ? &pool : nullptr);
      Image out;
      RadixKCompositor(rt, CompositeConfig{}, radices)
          .execute(infos, subs, width, height, &out);
      if (threads == 1) {
        reference = out;
      } else {
        ASSERT_EQ(out.width(), reference.width());
        ASSERT_EQ(out.height(), reference.height());
        EXPECT_EQ(std::memcmp(out.pixels().data(), reference.pixels().data(),
                              out.pixels().size_bytes()),
                  0);
      }
    }
  }
}

}  // namespace
}  // namespace pvr::compose
