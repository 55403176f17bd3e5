// Render-stage work stealing: planner determinism and invariants, the
// policy-off byte-identity of every frame path, straggler collapse under
// degraded nodes, replication pricing, thread-count identity, and the
// execute-mode guarantee that stolen row bands stitch back into the exact
// baseline image.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/pipeline.hpp"
#include "data/synthetic.hpp"
#include "fault/fault_plan.hpp"
#include "obs/trace.hpp"
#include "render/raycaster.hpp"
#include "steal/steal.hpp"

namespace pvr {
namespace {

core::ExperimentConfig small_config(std::int64_t ranks = 64) {
  core::ExperimentConfig cfg;
  cfg.num_ranks = ranks;
  cfg.dataset = format::supernova_desc(format::FileFormat::kRaw, 64);
  cfg.variable = cfg.dataset.variables.front();
  cfg.image_width = cfg.image_height = 128;
  return cfg;
}

/// Degrades rank 0's hosting node by `factor` (all other ranks healthy).
fault::FaultPlan degrade_rank0(const machine::Partition& part,
                               double factor) {
  fault::FaultPlan plan;
  plan.degrade_node(part.node_of_rank(0), factor);
  return plan;
}

void expect_same_schedule(const steal::StealSchedule& a,
                          const steal::StealSchedule& b) {
  ASSERT_EQ(a.claims.size(), b.claims.size());
  for (std::size_t i = 0; i < a.claims.size(); ++i) {
    EXPECT_EQ(a.claims[i].block, b.claims[i].block);
    EXPECT_EQ(a.claims[i].victim, b.claims[i].victim);
    EXPECT_EQ(a.claims[i].thief, b.claims[i].thief);
    EXPECT_EQ(a.claims[i].row_begin, b.claims[i].row_begin);
    EXPECT_EQ(a.claims[i].row_end, b.claims[i].row_end);
    EXPECT_EQ(a.claims[i].samples, b.claims[i].samples);
  }
  EXPECT_EQ(a.chunks_stolen, b.chunks_stolen);
  EXPECT_EQ(a.bytes_replicated, b.bytes_replicated);
  EXPECT_EQ(a.straggler_before, b.straggler_before);
  EXPECT_EQ(a.straggler_after, b.straggler_after);
  EXPECT_EQ(a.worst_before_seconds, b.worst_before_seconds);
  EXPECT_EQ(a.worst_after_seconds, b.worst_after_seconds);
  EXPECT_EQ(a.max_rank_samples_after, b.max_rank_samples_after);
}

/// A small hand-built work set: 4 ranks, one block each, equal samples.
std::vector<steal::BlockWork> uniform_work(std::int64_t ranks,
                                           std::int64_t samples = 8000,
                                           std::int64_t rows = 32) {
  std::vector<steal::BlockWork> work;
  for (std::int64_t r = 0; r < ranks; ++r) {
    work.push_back(steal::BlockWork{r, r, samples, rows, 1 << 20});
  }
  return work;
}

TEST(StealConfigTest, ValidateRejectsBadFields) {
  steal::StealConfig bad;
  bad.chunks_per_block = 0;
  EXPECT_THROW(steal::validate(bad), Error);
  bad = steal::StealConfig{};
  bad.claim_bytes = -1;
  EXPECT_THROW(steal::validate(bad), Error);
  EXPECT_NO_THROW(steal::validate(steal::StealConfig{}));
}

TEST(StealPlannerTest, BalancedLoadPlansNothing) {
  const machine::MachineConfig machine;
  steal::StealConfig cfg;
  cfg.policy = steal::StealPolicy::kScanlineChunks;
  const steal::StealPlanner planner(machine, cfg);
  const auto sched = planner.plan(uniform_work(4), 4, nullptr);
  EXPECT_TRUE(sched.empty());
  EXPECT_EQ(sched.chunks_stolen, 0);
  EXPECT_EQ(sched.straggler_before, sched.straggler_after);
}

TEST(StealPlannerTest, PlanIsDeterministic) {
  const machine::MachineConfig machine;
  steal::StealConfig cfg;
  cfg.policy = steal::StealPolicy::kReplicateBlocks;
  const steal::StealPlanner planner(machine, cfg);
  const auto slowdown = [](std::int64_t rank) {
    return rank == 1 ? 4.0 : 1.0;
  };
  const auto a = planner.plan(uniform_work(8), 8, slowdown);
  const auto b = planner.plan(uniform_work(8), 8, slowdown);
  EXPECT_FALSE(a.empty());
  expect_same_schedule(a, b);
}

TEST(StealPlannerTest, StealingNeverRaisesTheStraggler) {
  const machine::MachineConfig machine;
  steal::StealConfig cfg;
  cfg.policy = steal::StealPolicy::kScanlineChunks;
  const steal::StealPlanner planner(machine, cfg);
  // A spread of degrade patterns; every schedule must satisfy the invariant.
  for (std::int64_t victim = 0; victim < 6; ++victim) {
    for (const double factor : {1.5, 2.0, 4.0, 16.0}) {
      const auto sched = planner.plan(
          uniform_work(6), 6, [&](std::int64_t rank) {
            return rank == victim ? factor : 1.0;
          });
      EXPECT_LE(sched.straggler_after, sched.straggler_before);
      EXPECT_LE(sched.worst_after_seconds, sched.worst_before_seconds);
      EXPECT_GE(sched.straggler_after, 1.0);
    }
  }
}

TEST(StealPlannerTest, DeadRanksAreNeitherVictimsNorThieves) {
  const machine::MachineConfig machine;
  steal::StealConfig cfg;
  cfg.policy = steal::StealPolicy::kScanlineChunks;
  const steal::StealPlanner planner(machine, cfg);
  // Rank 0 dead, rank 1 degraded: claims may only move work from rank 1 to
  // ranks 2..3; rank 0 appears nowhere.
  const auto sched = planner.plan(
      uniform_work(4), 4, [](std::int64_t rank) {
        if (rank == 0) return 0.0;
        return rank == 1 ? 8.0 : 1.0;
      });
  EXPECT_FALSE(sched.empty());
  for (const auto& c : sched.claims) {
    EXPECT_NE(c.victim, 0);
    EXPECT_NE(c.thief, 0);
    EXPECT_EQ(c.victim, 1);
  }
}

TEST(StealPlannerTest, ClaimsAreDisjointAscendingRowBands) {
  const machine::MachineConfig machine;
  steal::StealConfig cfg;
  cfg.policy = steal::StealPolicy::kScanlineChunks;
  cfg.chunks_per_block = 8;
  const steal::StealPlanner planner(machine, cfg);
  const auto sched = planner.plan(
      uniform_work(4), 4,
      [](std::int64_t rank) { return rank == 2 ? 6.0 : 1.0; });
  ASSERT_FALSE(sched.empty());
  for (std::size_t i = 0; i < sched.claims.size(); ++i) {
    const auto& c = sched.claims[i];
    EXPECT_LT(c.row_begin, c.row_end);
    EXPECT_GT(c.samples, 0);
    if (i > 0 && sched.claims[i - 1].block == c.block) {
      EXPECT_LE(sched.claims[i - 1].row_end, c.row_begin);
    }
  }
}

TEST(StealPlannerTest, ReplicationPricesEachBlockThiefPairOnce) {
  const machine::MachineConfig machine;
  steal::StealConfig scan;
  scan.policy = steal::StealPolicy::kScanlineChunks;
  steal::StealConfig repl;
  repl.policy = steal::StealPolicy::kReplicateBlocks;
  const auto slowdown = [](std::int64_t rank) {
    return rank == 0 ? 8.0 : 1.0;
  };
  const auto work = uniform_work(4);
  const auto a = steal::StealPlanner(machine, scan).plan(work, 4, slowdown);
  const auto b = steal::StealPlanner(machine, repl).plan(work, 4, slowdown);
  // Both policies share the schedule; only the pricing differs.
  ASSERT_EQ(a.claims.size(), b.claims.size());
  EXPECT_EQ(a.bytes_replicated, 0);
  EXPECT_GT(b.bytes_replicated, 0);
  // Distinct (block, thief) pairs bound the replicated bytes.
  std::vector<std::pair<std::int64_t, std::int64_t>> pairs;
  for (const auto& c : b.claims) {
    const auto p = std::make_pair(c.block, c.thief);
    bool seen = false;
    for (const auto& q : pairs) seen = seen || q == p;
    if (!seen) pairs.push_back(p);
  }
  EXPECT_EQ(b.bytes_replicated,
            std::int64_t(pairs.size()) * work.front().bytes);
  // The schedule carries them as its replicas: one per distinct pair in
  // claim order, from the victim of the pair's first claim, summing to
  // bytes_replicated.
  EXPECT_TRUE(a.replicas.empty());
  ASSERT_EQ(b.replicas.size(), pairs.size());
  std::int64_t sum = 0;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const steal::StealReplica& r = b.replicas[i];
    EXPECT_EQ(std::make_pair(r.block, r.thief), pairs[i]);
    const auto first = std::find_if(
        b.claims.begin(), b.claims.end(), [&](const steal::StealClaim& c) {
          return c.block == r.block && c.thief == r.thief;
        });
    ASSERT_NE(first, b.claims.end());
    EXPECT_EQ(r.victim, first->victim);
    sum += r.bytes;
  }
  EXPECT_EQ(sum, b.bytes_replicated);
}

// --- pipeline integration -------------------------------------------------

TEST(StealFrameTest, OffPolicyLeavesFrameStatsAndTraceUntouched) {
  auto cfg = small_config();
  cfg.steal.policy = steal::StealPolicy::kOff;
  core::ParallelVolumeRenderer pvr(cfg);
  obs::Tracer tracer;
  pvr.set_tracer(&tracer);
  const core::FrameStats stats = pvr.model_frame();
  // No steal stage ran: defaults only, and no kSteal span on the timeline.
  EXPECT_EQ(stats.steal.policy, steal::StealPolicy::kOff);
  EXPECT_EQ(stats.steal.chunks_stolen, 0);
  EXPECT_EQ(stats.steal.steal_seconds, 0.0);
  EXPECT_EQ(stats.steal.straggler_before, 1.0);
  EXPECT_EQ(stats.steal.straggler_after, 1.0);
  EXPECT_EQ(stats.render_seconds, stats.render.seconds);
  for (const auto& span : tracer.spans()) {
    EXPECT_NE(span.cat, obs::Category::kSteal);
  }
  // The stage-sum invariant: traced stage seconds equal FrameStats.
  EXPECT_DOUBLE_EQ(stats.trace.render_seconds, stats.render_seconds);
}

TEST(StealFrameTest, StragglerCollapsesUnderADegradedNode) {
  auto cfg = small_config();
  core::ParallelVolumeRenderer baseline(cfg);
  const auto plan = degrade_rank0(baseline.partition(), 4.0);
  const core::FrameStats before = baseline.model_frame_with_faults(plan);

  cfg.steal.policy = steal::StealPolicy::kScanlineChunks;
  core::ParallelVolumeRenderer stealing(cfg);
  const core::FrameStats after = stealing.model_frame_with_faults(plan);

  EXPECT_GT(after.steal.chunks_stolen, 0);
  EXPECT_LT(after.steal.straggler_after, after.steal.straggler_before);
  // The whole render stage — steal exchanges included — beats the
  // unstolen straggler, and the other stages are untouched.
  EXPECT_LT(after.render_seconds, before.render_seconds);
  EXPECT_GT(after.steal.steal_seconds, 0.0);
  EXPECT_EQ(after.io_seconds, before.io_seconds);
  EXPECT_EQ(after.composite_seconds, before.composite_seconds);
  EXPECT_EQ(after.render.total_samples, before.render.total_samples);
  EXPECT_LT(after.render.max_rank_samples, before.render.max_rank_samples);
}

TEST(StealFrameTest, ReplicateBlocksPricesTheBlockBytes) {
  auto cfg = small_config();
  cfg.steal.policy = steal::StealPolicy::kScanlineChunks;
  core::ParallelVolumeRenderer scan(cfg);
  cfg.steal.policy = steal::StealPolicy::kReplicateBlocks;
  core::ParallelVolumeRenderer repl(cfg);
  const auto plan = degrade_rank0(scan.partition(), 4.0);
  const core::FrameStats a = scan.model_frame_with_faults(plan);
  const core::FrameStats b = repl.model_frame_with_faults(plan);
  // Same schedule, so the same straggler collapse; replication only adds
  // transfer cost.
  EXPECT_EQ(a.steal.chunks_stolen, b.steal.chunks_stolen);
  EXPECT_EQ(a.steal.straggler_after, b.steal.straggler_after);
  EXPECT_EQ(a.steal.bytes_replicated, 0);
  EXPECT_GT(b.steal.bytes_replicated, 0);
  EXPECT_GT(b.steal.steal_seconds, a.steal.steal_seconds);
}

TEST(StealFrameTest, StealSpansAndMetricsAreEmitted) {
  auto cfg = small_config();
  cfg.steal.policy = steal::StealPolicy::kReplicateBlocks;
  core::ParallelVolumeRenderer pvr(cfg);
  obs::Tracer tracer;
  pvr.set_tracer(&tracer);
  const auto plan = degrade_rank0(pvr.partition(), 4.0);
  const core::FrameStats stats = pvr.model_frame_with_faults(plan);
  ASSERT_GT(stats.steal.chunks_stolen, 0);
  bool saw_claim = false, saw_transfer = false;
  for (const auto& span : tracer.spans()) {
    if (span.name == "steal.claim") saw_claim = true;
    if (span.name == "steal.transfer") saw_transfer = true;
  }
  EXPECT_TRUE(saw_claim);
  EXPECT_TRUE(saw_transfer);
  const auto& metrics = tracer.metrics();
  const auto idx = metrics.indexed_counters().find("steal.claims_by_thief");
  ASSERT_NE(idx, metrics.indexed_counters().end());
  EXPECT_GT(idx->second.total(), 0);
  // Rank 0 is the victim, never a thief of its own work.
  EXPECT_EQ(idx->second.by_index.count(0), 0u);
  // The stage-sum invariant holds with the steal exchanges inside the
  // render stage span.
  EXPECT_DOUBLE_EQ(stats.trace.render_seconds, stats.render_seconds);
}

TEST(StealFrameTest, FrameIsBitIdenticalAcrossHostThreads) {
  auto cfg = small_config();
  cfg.steal.policy = steal::StealPolicy::kReplicateBlocks;
  cfg.host_threads = 1;
  core::ParallelVolumeRenderer serial(cfg);
  cfg.host_threads = 4;
  core::ParallelVolumeRenderer threaded(cfg);
  const auto plan = degrade_rank0(serial.partition(), 4.0);
  const core::FrameStats a = serial.model_frame_with_faults(plan);
  const core::FrameStats b = threaded.model_frame_with_faults(plan);
  EXPECT_EQ(a.render_seconds, b.render_seconds);
  EXPECT_EQ(a.io_seconds, b.io_seconds);
  EXPECT_EQ(a.composite_seconds, b.composite_seconds);
  EXPECT_EQ(a.steal.chunks_stolen, b.steal.chunks_stolen);
  EXPECT_EQ(a.steal.bytes_replicated, b.steal.bytes_replicated);
  EXPECT_EQ(a.steal.steal_seconds, b.steal.steal_seconds);
  EXPECT_EQ(a.steal.straggler_before, b.steal.straggler_before);
  EXPECT_EQ(a.steal.straggler_after, b.steal.straggler_after);
  EXPECT_EQ(a.render.max_rank_samples, b.render.max_rank_samples);
}

// --- execute mode ---------------------------------------------------------

TEST(StealExecuteTest, RowBandsStitchBackToTheExactBlockRender) {
  const Vec3i dims{32, 32, 32};
  render::RenderConfig rc;
  const render::Raycaster caster(dims, rc);
  const render::TransferFunction tf = render::TransferFunction::supernova();
  const render::Camera camera =
      render::Camera::default_view(dims, 96, 96);
  Brick brick(Box3i{{0, 0, 0}, dims});
  data::SupernovaField(1530).fill_brick(data::Variable::kPressure, dims,
                                        &brick);
  const Box3i owned{{8, 8, 8}, {24, 24, 24}};
  const render::SubImage whole =
      caster.render_block(brick, owned, camera, tf);
  const std::int64_t rows = whole.rect.y1 - whole.rect.y0;
  ASSERT_GT(rows, 2);
  const std::int64_t split = rows / 3;
  const render::SubImage top =
      caster.render_block_rows(brick, owned, camera, tf, 0, split);
  const render::SubImage bottom =
      caster.render_block_rows(brick, owned, camera, tf, split, rows);
  EXPECT_EQ(top.samples + bottom.samples, whole.samples);
  EXPECT_EQ(top.rect.y0, whole.rect.y0);
  EXPECT_EQ(bottom.rect.y1, whole.rect.y1);
  ASSERT_EQ(top.pixels.size() + bottom.pixels.size(), whole.pixels.size());
  for (std::size_t i = 0; i < top.pixels.size(); ++i) {
    EXPECT_EQ(top.pixels[i].r, whole.pixels[i].r);
    EXPECT_EQ(top.pixels[i].a, whole.pixels[i].a);
  }
  for (std::size_t i = 0; i < bottom.pixels.size(); ++i) {
    const std::size_t j = top.pixels.size() + i;
    EXPECT_EQ(bottom.pixels[i].r, whole.pixels[j].r);
    EXPECT_EQ(bottom.pixels[i].a, whole.pixels[j].a);
  }
}

TEST(StealExecuteTest, StolenChunksReproduceTheBaselineImage) {
  auto cfg = small_config(8);
  const data::SupernovaField field(1530);
  core::ParallelVolumeRenderer baseline(cfg);
  Image base_img;
  const core::FrameStats base = baseline.execute_insitu_frame(field,
                                                              &base_img);

  cfg.steal.policy = steal::StealPolicy::kScanlineChunks;
  cfg.steal.chunks_per_block = 8;
  core::ParallelVolumeRenderer stealing(cfg);
  Image steal_img;
  const core::FrameStats stolen = stealing.execute_insitu_frame(field,
                                                                &steal_img);

  // Stolen row bands stitch back bit-for-bit: the image and the total
  // sample count cannot change, only the per-rank attribution can.
  EXPECT_EQ(base_img.max_difference(steal_img), 0.0f);
  EXPECT_EQ(stolen.render.total_samples, base.render.total_samples);
  EXPECT_LE(stolen.render.max_rank_samples, base.render.max_rank_samples);
}

TEST(StealExecuteTest, ExecuteImageIsBitIdenticalAcrossHostThreads) {
  auto cfg = small_config(8);
  cfg.steal.policy = steal::StealPolicy::kScanlineChunks;
  const data::SupernovaField field(1530);
  cfg.host_threads = 1;
  core::ParallelVolumeRenderer serial(cfg);
  cfg.host_threads = 4;
  core::ParallelVolumeRenderer threaded(cfg);
  Image a, b;
  const core::FrameStats sa = serial.execute_insitu_frame(field, &a);
  const core::FrameStats sb = threaded.execute_insitu_frame(field, &b);
  EXPECT_EQ(a.max_difference(b), 0.0f);
  EXPECT_EQ(sa.render.total_samples, sb.render.total_samples);
  EXPECT_EQ(sa.render.max_rank_samples, sb.render.max_rank_samples);
  EXPECT_EQ(sa.render_seconds, sb.render_seconds);
  EXPECT_EQ(sa.steal.chunks_stolen, sb.steal.chunks_stolen);
}

}  // namespace
}  // namespace pvr
