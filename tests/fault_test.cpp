// Fault injection and recovery: deterministic plan generation, failover
// helpers, the empty-plan identity of model_frame_with_faults, degraded
// frames (dead compositors/renderers), and storage failover pricing.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <functional>
#include <vector>

#include "core/pipeline.hpp"
#include "fault/fault_plan.hpp"
#include "machine/partition.hpp"
#include "runtime/runtime.hpp"
#include "storage/storage_model.hpp"

namespace pvr {
namespace {

machine::Partition make_partition(std::int64_t ranks) {
  return machine::Partition(machine::MachineConfig{}, ranks);
}

core::ExperimentConfig small_config(std::int64_t ranks = 64) {
  core::ExperimentConfig cfg;
  cfg.num_ranks = ranks;
  cfg.dataset = format::supernova_desc(format::FileFormat::kRaw, 64);
  cfg.variable = cfg.dataset.variables.front();
  cfg.image_width = cfg.image_height = 128;
  return cfg;
}

void expect_same_exchange(const net::ExchangeCost& a,
                          const net::ExchangeCost& b) {
  EXPECT_EQ(a.seconds, b.seconds);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.local_messages, b.local_messages);
  EXPECT_EQ(a.total_bytes, b.total_bytes);
  EXPECT_EQ(a.max_hops, b.max_hops);
  EXPECT_EQ(a.congestion_factor, b.congestion_factor);
  EXPECT_EQ(a.link_seconds, b.link_seconds);
  EXPECT_EQ(a.endpoint_seconds, b.endpoint_seconds);
  EXPECT_EQ(a.latency_seconds, b.latency_seconds);
  EXPECT_EQ(a.skew_seconds, b.skew_seconds);
  EXPECT_EQ(a.retry_seconds, b.retry_seconds);
}

void expect_same_frame(const core::FrameStats& a, const core::FrameStats& b) {
  EXPECT_EQ(a.io_seconds, b.io_seconds);
  EXPECT_EQ(a.render_seconds, b.render_seconds);
  EXPECT_EQ(a.composite_seconds, b.composite_seconds);
  EXPECT_EQ(a.io.seconds, b.io.seconds);
  EXPECT_EQ(a.io.open_seconds, b.io.open_seconds);
  EXPECT_EQ(a.io.useful_bytes, b.io.useful_bytes);
  EXPECT_EQ(a.io.physical_bytes, b.io.physical_bytes);
  EXPECT_EQ(a.io.accesses, b.io.accesses);
  EXPECT_EQ(a.io.storage_cost.seconds, b.io.storage_cost.seconds);
  EXPECT_EQ(a.io.storage_cost.server_seconds,
            b.io.storage_cost.server_seconds);
  EXPECT_EQ(a.io.storage_cost.ion_seconds, b.io.storage_cost.ion_seconds);
  expect_same_exchange(a.io.shuffle_cost, b.io.shuffle_cost);
  EXPECT_EQ(a.render.total_samples, b.render.total_samples);
  EXPECT_EQ(a.render.max_rank_samples, b.render.max_rank_samples);
  EXPECT_EQ(a.render.seconds, b.render.seconds);
  EXPECT_EQ(a.composite.seconds, b.composite.seconds);
  EXPECT_EQ(a.composite.blend_seconds, b.composite.blend_seconds);
  EXPECT_EQ(a.composite.num_compositors, b.composite.num_compositors);
  EXPECT_EQ(a.composite.messages, b.composite.messages);
  EXPECT_EQ(a.composite.bytes, b.composite.bytes);
  expect_same_exchange(a.composite.exchange, b.composite.exchange);
}

void expect_same_fault_stats(const fault::FaultStats& a,
                             const fault::FaultStats& b) {
  EXPECT_EQ(a.failed_nodes, b.failed_nodes);
  EXPECT_EQ(a.failed_links, b.failed_links);
  EXPECT_EQ(a.failed_ions, b.failed_ions);
  EXPECT_EQ(a.failed_servers, b.failed_servers);
  EXPECT_EQ(a.degraded_servers, b.degraded_servers);
  EXPECT_EQ(a.degraded_nodes, b.degraded_nodes);
  EXPECT_EQ(a.undeliverable_messages, b.undeliverable_messages);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.rerouted_messages, b.rerouted_messages);
  EXPECT_EQ(a.rerouted_hops, b.rerouted_hops);
  EXPECT_EQ(a.reassigned_partitions, b.reassigned_partitions);
  EXPECT_EQ(a.reassigned_aggregators, b.reassigned_aggregators);
  EXPECT_EQ(a.dropped_blocks, b.dropped_blocks);
  EXPECT_EQ(a.rerouted_clients, b.rerouted_clients);
  EXPECT_EQ(a.failover_extents, b.failover_extents);
  EXPECT_EQ(a.substituted_partners, b.substituted_partners);
  EXPECT_EQ(a.proxied_messages, b.proxied_messages);
  EXPECT_EQ(a.coverage, b.coverage);
}

TEST(FaultPlanTest, GenerateIsDeterministic) {
  const auto part = make_partition(512);
  fault::FaultSpec spec;
  spec.seed = 42;
  spec.node_fail_rate = 0.1;
  spec.link_fail_rate = 0.02;
  spec.ion_fail_rate = 0.5;
  spec.server_fail_rate = 0.05;
  spec.server_degrade_rate = 0.1;
  const machine::StorageConfig storage;
  const auto a = fault::FaultPlan::generate(part, storage, spec);
  const auto b = fault::FaultPlan::generate(part, storage, spec);
  for (std::int64_t n = 0; n < part.num_nodes(); ++n) {
    EXPECT_EQ(a.node_failed(n), b.node_failed(n));
  }
  for (int s = 0; s < storage.num_servers; ++s) {
    EXPECT_EQ(a.server_failed(s), b.server_failed(s));
    EXPECT_EQ(a.server_degrade(s), b.server_degrade(s));
  }
  expect_same_fault_stats(a.census(), b.census());
}

TEST(FaultPlanTest, ZeroRatesGenerateAnEmptyPlan) {
  const auto part = make_partition(64);
  const auto plan = fault::FaultPlan::generate(part, machine::StorageConfig{},
                                               fault::FaultSpec{});
  EXPECT_TRUE(plan.empty());
}

TEST(FaultPlanTest, DeadBeatsDegradedInExplicitInjection) {
  // fail-then-degrade: degrading a dead component is a no-op.
  fault::FaultPlan plan;
  plan.fail_node(3);
  plan.degrade_node(3, 4.0);
  EXPECT_TRUE(plan.node_failed(3));
  EXPECT_EQ(plan.node_degrade(3), 1.0);
  plan.fail_server(2);
  plan.degrade_server(2, 8.0);
  EXPECT_TRUE(plan.server_failed(2));
  EXPECT_EQ(plan.server_degrade(2), 1.0);

  // degrade-then-fail: killing the component clears its degradation.
  fault::FaultPlan other;
  other.degrade_node(5, 4.0);
  other.fail_node(5);
  EXPECT_TRUE(other.node_failed(5));
  EXPECT_EQ(other.node_degrade(5), 1.0);
  other.degrade_server(1, 8.0);
  other.fail_server(1);
  EXPECT_TRUE(other.server_failed(1));
  EXPECT_EQ(other.server_degrade(1), 1.0);

  // The census never double-counts a component as both dead and degraded.
  const fault::FaultStats census = other.census();
  EXPECT_EQ(census.failed_nodes, 1);
  EXPECT_EQ(census.degraded_nodes, 0);
  EXPECT_EQ(census.failed_servers, 1);
  EXPECT_EQ(census.degraded_servers, 0);
}

TEST(FaultPlanTest, GeneratedPlansKeepDeadAndDegradedDisjoint) {
  const auto part = make_partition(512);
  fault::FaultSpec spec;
  spec.seed = 7;
  spec.node_fail_rate = 0.3;
  spec.compute_degrade_rate = 0.5;
  spec.server_fail_rate = 0.3;
  spec.server_degrade_rate = 0.5;
  const machine::StorageConfig storage;
  const auto plan = fault::FaultPlan::generate(part, storage, spec);
  for (std::int64_t n = 0; n < part.num_nodes(); ++n) {
    if (plan.node_failed(n)) {
      EXPECT_EQ(plan.node_degrade(n), 1.0);
    }
  }
  for (int s = 0; s < storage.num_servers; ++s) {
    if (plan.server_failed(s)) {
      EXPECT_EQ(plan.server_degrade(s), 1.0);
    }
  }
}

TEST(FaultPlanTest, GenerateAlwaysLeavesSurvivors) {
  const auto part = make_partition(64);
  fault::FaultSpec spec;
  spec.node_fail_rate = 0.99;
  spec.ion_fail_rate = 0.99;
  spec.server_fail_rate = 0.99;
  const machine::StorageConfig storage;
  const auto plan = fault::FaultPlan::generate(part, storage, spec);
  bool node_alive = false, server_alive = false;
  for (std::int64_t n = 0; n < part.num_nodes(); ++n) {
    node_alive = node_alive || !plan.node_failed(n);
  }
  for (int s = 0; s < storage.num_servers; ++s) {
    server_alive = server_alive || !plan.server_failed(s);
  }
  EXPECT_TRUE(node_alive);
  EXPECT_TRUE(server_alive);
  EXPECT_FALSE(plan.ion_failed(plan.next_live_ion(0, part.num_ions())));
}

TEST(FaultPlanTest, GenerateRejectsBadSpecs) {
  const auto part = make_partition(64);
  const machine::StorageConfig storage;
  fault::FaultSpec bad_rate;
  bad_rate.node_fail_rate = 1.5;
  EXPECT_THROW(fault::FaultPlan::generate(part, storage, bad_rate), Error);
  fault::FaultSpec bad_degrade;
  bad_degrade.server_degrade_factor = 0.5;
  EXPECT_THROW(fault::FaultPlan::generate(part, storage, bad_degrade), Error);
  fault::FaultSpec bad_retries;
  bad_retries.max_retries = -1;
  EXPECT_THROW(fault::FaultPlan::generate(part, storage, bad_retries), Error);
}

TEST(FaultPlanTest, FailLinkRejectsOutOfRangeLinks) {
  // Links are keyed node*6 + dim*2 + dir, so an out-of-range dim or dir
  // would alias another node's link: (0, 3, 0) is (1, x, +).
  fault::FaultPlan plan;
  EXPECT_THROW(plan.fail_link(0, 3, 0), Error);
  EXPECT_THROW(plan.fail_link(0, -1, 0), Error);
  EXPECT_THROW(plan.fail_link(0, 0, 2), Error);
  EXPECT_THROW(plan.fail_link(1, 0, -1), Error);
  EXPECT_THROW(plan.fail_link(-1, 0, 0), Error);
  EXPECT_TRUE(plan.empty());
  EXPECT_FALSE(plan.link_failed(1, 0, 0));
  plan.fail_link(1, 2, 1);  // the last in-range link of node 1
  EXPECT_TRUE(plan.link_failed(1, 2, 1));
}

TEST(FaultPlanTest, NextLiveRankSkipsDeadNodesCyclically) {
  const auto part = make_partition(8);  // 2 nodes, ranks 0-3 and 4-7
  fault::FaultPlan plan;
  plan.fail_node(0);
  EXPECT_EQ(plan.next_live_rank(0, part), 4);
  EXPECT_EQ(plan.next_live_rank(5, part), 5);
  fault::FaultPlan wrap;
  wrap.fail_node(1);
  EXPECT_EQ(wrap.next_live_rank(6, part), 0);  // wraps past the end
  fault::FaultPlan all;
  all.fail_node(0);
  all.fail_node(1);
  EXPECT_THROW(all.next_live_rank(0, part), Error);
}

TEST(FaultFrameTest, EmptyPlanFrameIsIdenticalToHealthyFrame) {
  core::ParallelVolumeRenderer renderer(small_config());
  const core::FrameStats healthy = renderer.model_frame();
  const core::FrameStats faulty =
      renderer.model_frame_with_faults(fault::FaultPlan{});
  expect_same_frame(healthy, faulty);
  expect_same_fault_stats(faulty.faults, fault::FaultStats{});
  EXPECT_EQ(faulty.faults.coverage, 1.0);
}

TEST(FaultFrameTest, DeadNodeDropsBlocksAndReassignsTiles) {
  // 64 ranks -> 16 nodes; node 1 hosts ranks 4-7, which are both renderers
  // and compositors. Killing it must (a) drop those ranks' blocks so pixel
  // coverage < 100%, (b) reassign their tiles, and (c) force detours around
  // the dead node's six links.
  core::ParallelVolumeRenderer renderer(small_config(64));
  fault::FaultPlan plan;
  plan.fail_node(1);
  const core::FrameStats stats = renderer.model_frame_with_faults(plan);

  EXPECT_EQ(stats.faults.failed_nodes, 1);
  EXPECT_EQ(stats.faults.dropped_blocks, 4);
  EXPECT_GE(stats.faults.reassigned_partitions, 4);
  EXPECT_LT(stats.faults.coverage, 1.0);
  EXPECT_GT(stats.faults.coverage, 0.0);
  EXPECT_GT(stats.faults.rerouted_messages, 0);
  EXPECT_GT(stats.faults.rerouted_hops, 0);
  EXPECT_GT(stats.total_seconds(), 0.0);

  // The degraded frame must still be a complete frame: every stage priced.
  EXPECT_GT(stats.io_seconds, 0.0);
  EXPECT_GT(stats.render_seconds, 0.0);
  EXPECT_GT(stats.composite_seconds, 0.0);
}

TEST(FaultFrameTest, GeneratedPlanFrameIsReproducible) {
  fault::FaultSpec spec;
  spec.seed = 7;
  spec.node_fail_rate = 0.1;
  spec.link_fail_rate = 0.02;
  spec.server_fail_rate = 0.05;
  spec.server_degrade_rate = 0.1;

  core::FrameStats runs[2];
  for (auto& run : runs) {
    core::ParallelVolumeRenderer renderer(small_config(64));
    const auto plan = fault::FaultPlan::generate(
        renderer.partition(), renderer.config().storage, spec);
    run = renderer.model_frame_with_faults(plan);
  }
  expect_same_frame(runs[0], runs[1]);
  expect_same_fault_stats(runs[0].faults, runs[1].faults);
  EXPECT_GT(runs[0].faults.failed_nodes, 0);
}

TEST(FaultPlanTest, DegradedComputeNodesSampledDeterministically) {
  const auto part = make_partition(512);
  const machine::StorageConfig storage;
  fault::FaultSpec spec;
  spec.seed = 11;
  spec.node_fail_rate = 0.2;
  spec.compute_degrade_rate = 0.3;
  spec.compute_degrade_factor = 2.5;
  const auto a = fault::FaultPlan::generate(part, storage, spec);
  const auto b = fault::FaultPlan::generate(part, storage, spec);
  EXPECT_GT(a.census().degraded_nodes, 0);
  for (std::int64_t n = 0; n < part.num_nodes(); ++n) {
    EXPECT_EQ(a.node_degrade(n), b.node_degrade(n));
    // Dead beats degraded: a node is never both.
    if (a.node_failed(n)) {
      EXPECT_EQ(a.node_degrade(n), 1.0);
    }
    if (a.node_degrade(n) != 1.0) {
      EXPECT_EQ(a.node_degrade(n), 2.5);
    }
  }
  fault::FaultSpec bad;
  bad.compute_degrade_factor = 0.5;
  EXPECT_THROW(fault::FaultPlan::generate(part, storage, bad), Error);
}

TEST(FaultFrameTest, DegradedNodeStretchesTheRenderStraggler) {
  core::ParallelVolumeRenderer renderer(small_config(64));
  const core::FrameStats healthy = renderer.model_frame();

  fault::FaultPlan plan;
  plan.degrade_node(0, 4.0);  // ranks 0-3 render every sample 4x slower
  const core::FrameStats degraded = renderer.model_frame_with_faults(plan);

  // Nothing is lost — every block still renders, coverage stays 100% —
  // but the BSP render phase waits on the throttled straggler.
  EXPECT_EQ(degraded.faults.degraded_nodes, 1);
  EXPECT_EQ(degraded.faults.dropped_blocks, 0);
  EXPECT_EQ(degraded.faults.coverage, 1.0);
  EXPECT_EQ(degraded.render.total_samples, healthy.render.total_samples);
  EXPECT_EQ(degraded.render.max_rank_samples,
            healthy.render.max_rank_samples);
  EXPECT_GT(degraded.render_seconds, healthy.render_seconds);
  EXPECT_LE(degraded.render_seconds, 4.0 * healthy.render_seconds + 1e-12);

  // A degrade factor of exactly 1.0 is bit-identical to the healthy phase.
  fault::FaultPlan unity;
  unity.degrade_node(0, 1.0);
  const core::FrameStats same = renderer.model_frame_with_faults(unity);
  EXPECT_EQ(same.render.seconds, healthy.render.seconds);
  EXPECT_EQ(same.render.total_samples, healthy.render.total_samples);
}

TEST(FaultRenderTest, EstimateDegradedWithUnitSlowdownIsBitIdentical) {
  const auto cfg = small_config(64);
  core::ParallelVolumeRenderer renderer(cfg);
  const render::RenderModel model(cfg.machine);
  const render::RenderEstimate plain =
      model.estimate(renderer.decomposition(), cfg.num_ranks,
                     renderer.camera(), cfg.render);
  const render::RenderEstimate weighted = model.estimate_degraded(
      renderer.decomposition(), cfg.num_ranks, renderer.camera(), cfg.render,
      [](std::int64_t) { return 1.0; });
  EXPECT_EQ(plain.seconds, weighted.seconds);
  EXPECT_EQ(plain.total_samples, weighted.total_samples);
  EXPECT_EQ(plain.max_rank_samples, weighted.max_rank_samples);
}

TEST(FaultRenderTest, EstimateDegradedWithAllRanksDegradedScalesUniformly) {
  const auto cfg = small_config(64);
  core::ParallelVolumeRenderer renderer(cfg);
  const render::RenderModel model(cfg.machine);
  const render::RenderEstimate plain =
      model.estimate(renderer.decomposition(), cfg.num_ranks,
                     renderer.camera(), cfg.render);
  const double factor = 4.0;
  const render::RenderEstimate slow = model.estimate_degraded(
      renderer.decomposition(), cfg.num_ranks, renderer.camera(), cfg.render,
      [&](std::int64_t) { return factor; });
  // A uniform slowdown keeps every sample count and scales only the phase
  // time: no blocks are dropped and the straggler rank is unchanged.
  EXPECT_EQ(slow.total_samples, plain.total_samples);
  EXPECT_EQ(slow.max_rank_samples, plain.max_rank_samples);
  EXPECT_DOUBLE_EQ(slow.seconds, factor * plain.seconds);
}

TEST(FaultRenderTest, EstimateDegradedWithASingleLiveRank) {
  const auto cfg = small_config(64);
  core::ParallelVolumeRenderer renderer(cfg);
  const render::RenderModel model(cfg.machine);
  const render::RenderEstimate plain =
      model.estimate(renderer.decomposition(), cfg.num_ranks,
                     renderer.camera(), cfg.render);
  const render::RenderEstimate lone = model.estimate_degraded(
      renderer.decomposition(), cfg.num_ranks, renderer.camera(), cfg.render,
      [](std::int64_t rank) { return rank == 0 ? 1.0 : 0.0; });
  // Every other rank's blocks are dropped; the lone survivor is both the
  // total and the straggler.
  EXPECT_GT(lone.total_samples, 0);
  EXPECT_LT(lone.total_samples, plain.total_samples);
  EXPECT_EQ(lone.max_rank_samples, lone.total_samples);
  EXPECT_LE(lone.seconds, plain.seconds);
}

// The async schedule's per-rank render seconds come from the same block
// pass as the estimate: their maximum is the phase time bitwise, the
// straggler's entry is the phase time itself, and dead ranks read 0.0.
TEST(FaultRenderTest, PerRankSecondsComeFromTheEstimatePass) {
  const auto cfg = small_config(64);
  core::ParallelVolumeRenderer renderer(cfg);
  const render::RenderModel model(cfg.machine);
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const std::function<double(std::int64_t)> healthy;
  const std::function<double(std::int64_t)> degraded = [](std::int64_t r) {
    return r % 5 == 2 ? 4.0 : 1.0;
  };
  const std::function<double(std::int64_t)> dead = [](std::int64_t r) {
    if (r % 7 == 3) return 0.0;
    return r % 5 == 2 ? 4.0 : 1.0;
  };
  for (const auto* slowdown : {&healthy, &degraded, &dead}) {
    SCOPED_TRACE(slowdown == &healthy    ? "healthy"
                 : slowdown == &degraded ? "degraded"
                                         : "dead");
    std::vector<double> seconds;
    const render::RenderEstimate est = model.estimate_degraded(
        renderer.decomposition(), cfg.num_ranks, renderer.camera(),
        cfg.render, *slowdown, &seconds);
    ASSERT_EQ(seconds.size(), std::size_t(cfg.num_ranks));
    ASSERT_GT(est.seconds, 0.0);
    EXPECT_EQ(bits(*std::max_element(seconds.begin(), seconds.end())),
              bits(est.seconds));
    ASSERT_GE(est.straggler_rank, 0);
    EXPECT_EQ(bits(seconds[std::size_t(est.straggler_rank)]),
              bits(est.seconds));
    if (*slowdown != nullptr) {
      // A degraded rank bounds the phase.
      EXPECT_EQ((*slowdown)(est.straggler_rank), 4.0);
    }
    std::int64_t dead_ranks = 0;
    for (std::int64_t r = 0; r < cfg.num_ranks; ++r) {
      if (*slowdown == nullptr || (*slowdown)(r) > 0.0) {
        EXPECT_GT(seconds[std::size_t(r)], 0.0) << r;
      } else {
        EXPECT_EQ(bits(seconds[std::size_t(r)]), bits(0.0)) << r;
        ++dead_ranks;
      }
    }
    EXPECT_EQ(dead_ranks > 0, slowdown == &dead);
    // Asking for the per-rank seconds leaves the estimate as it was.
    const render::RenderEstimate plain = model.estimate_degraded(
        renderer.decomposition(), cfg.num_ranks, renderer.camera(),
        cfg.render, *slowdown);
    EXPECT_EQ(bits(plain.seconds), bits(est.seconds));
    EXPECT_EQ(plain.total_samples, est.total_samples);
    EXPECT_EQ(plain.max_rank_samples, est.max_rank_samples);
    EXPECT_EQ(plain.straggler_rank, est.straggler_rank);
  }
}

TEST(FaultStorageTest, FailedServerFailsOverAtACost) {
  const auto part = make_partition(512);
  machine::StorageConfig cfg;
  cfg.num_servers = 8;
  const storage::StorageModel model(part, cfg);
  // Small accesses all striped onto server 0, so the per-server queue (the
  // term failover doubles) dominates the cost.
  std::vector<storage::PhysicalAccess> accesses;
  for (int i = 0; i < 64; ++i) {
    accesses.push_back(
        {i * cfg.stripe_bytes * cfg.num_servers, 4096, i % 32});
  }
  const storage::IoCost healthy = model.read_cost(accesses);

  fault::FaultPlan plan;
  plan.fail_server(0);
  fault::FaultStats stats;
  const storage::IoCost faulty = model.read_cost(accesses, &plan, &stats);
  EXPECT_GT(stats.failover_extents, 0);
  EXPECT_GT(stats.retries, 0);
  EXPECT_GT(faulty.seconds, healthy.seconds);
}

TEST(FaultStorageTest, DegradedServerIsSlower) {
  const auto part = make_partition(512);
  machine::StorageConfig cfg;
  cfg.num_servers = 8;
  const storage::StorageModel model(part, cfg);
  std::vector<storage::PhysicalAccess> accesses;
  for (int i = 0; i < 64; ++i) {
    accesses.push_back(
        {i * cfg.stripe_bytes * cfg.num_servers, 4096, i % 32});
  }
  const storage::IoCost healthy = model.read_cost(accesses);

  fault::FaultPlan plan;
  plan.degrade_server(0, 4.0);
  fault::FaultStats stats;
  const storage::IoCost faulty = model.read_cost(accesses, &plan, &stats);
  EXPECT_GT(stats.retries, 0);
  EXPECT_GT(faulty.seconds, healthy.seconds);
}

TEST(FaultExchangeTest, EmptyOverlappedExchangeUnderAnArmedPlanIsFree) {
  // Satellite audit: an overlapped exchange with zero messages while a
  // fault plan is armed must price to exactly nothing — no retry or detour
  // seconds may leak from the armed plan into an empty round.
  const auto part = make_partition(64);
  runtime::Runtime rt(part, runtime::Mode::kModel);
  fault::FaultPlan plan;
  plan.fail_node(part.node_of_rank(5));
  plan.fail_link(part.node_of_rank(9), 0, 0);
  fault::FaultStats stats;
  rt.set_faults(&plan, &stats);
  const net::ExchangeCost cost = rt.exchange_messages_overlapped({});
  EXPECT_EQ(cost.seconds, 0.0);
  EXPECT_EQ(cost.link_seconds, 0.0);
  EXPECT_EQ(cost.endpoint_seconds, 0.0);
  EXPECT_EQ(cost.latency_seconds, 0.0);
  EXPECT_EQ(cost.skew_seconds, 0.0);
  EXPECT_EQ(cost.retry_seconds, 0.0);
  EXPECT_EQ(cost.messages, 0);
  EXPECT_EQ(cost.total_bytes, 0);
  EXPECT_EQ(cost.max_hops, 0);
  // Nothing reached the recovery books either.
  EXPECT_EQ(stats.retries, 0);
  EXPECT_EQ(stats.undeliverable_messages, 0);
  EXPECT_EQ(stats.rerouted_messages, 0);
  rt.set_faults(nullptr, nullptr);
}

TEST(FaultStorageTest, DeadIonReroutesItsClients) {
  const auto part = make_partition(512);  // 128 nodes -> 2 IONs
  ASSERT_EQ(part.num_ions(), 2);
  const storage::StorageModel model(part, machine::StorageConfig{});
  // Clients on both IONs (ION 0 bridges nodes 0-63 = ranks 0-255).
  std::vector<storage::PhysicalAccess> accesses;
  for (int i = 0; i < 32; ++i) {
    accesses.push_back({i * (4 << 20), 4 << 20, i * 16});
  }
  fault::FaultPlan plan;
  plan.fail_ion(0);
  fault::FaultStats stats;
  const storage::IoCost faulty = model.read_cost(accesses, &plan, &stats);
  EXPECT_GT(stats.rerouted_clients, 0);
  EXPECT_GT(faulty.seconds, 0.0);
}

}  // namespace
}  // namespace pvr
