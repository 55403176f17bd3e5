// Tests for pvr::profile: critical-path extraction, bottleneck attribution,
// timeline lanes, the JSON parser, A/B diff, the perf gate, and scaling
// decomposition. The load-bearing invariants:
//
//   * the critical path's self times sum to the frame span's duration
//     within 1e-9 s (and to the attribution total *exactly*, in integer
//     picoseconds);
//   * attribution buckets are disjoint and exhaustive: sum_ps == total_ps;
//   * every profiler output is byte-identical across host thread counts;
//   * a run diffed against itself reports zero everywhere;
//   * the perf gate passes a run against itself and fails loud (naming the
//     row and key) on an injected synthetic regression.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/pipeline.hpp"
#include "fault/fault_plan.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "profile/diff.hpp"
#include "profile/json.hpp"
#include "profile/profile.hpp"
#include "util/error.hpp"

namespace pvr::profile {
namespace {

core::ExperimentConfig model_config(std::int64_t ranks = 64) {
  core::ExperimentConfig cfg;
  cfg.num_ranks = ranks;
  cfg.dataset = format::supernova_desc(format::FileFormat::kRaw, 224);
  cfg.variable = cfg.dataset.variables.front();
  cfg.image_width = 256;
  cfg.image_height = 256;
  cfg.composite.policy = compose::CompositorPolicy::kImproved;
  return cfg;
}

fault::FaultPlan faulty_plan(const core::ParallelVolumeRenderer& renderer,
                             const core::ExperimentConfig& cfg) {
  fault::FaultSpec spec;
  spec.seed = 42;
  spec.node_fail_rate = 0.02;
  spec.compute_degrade_rate = 0.2;
  spec.compute_degrade_factor = 4.0;
  return fault::FaultPlan::generate(renderer.partition(), cfg.storage, spec);
}

/// Asserts every profiler invariant on one frame profile.
void expect_invariants(const obs::Tracer& tracer, const FrameProfile& frame) {
  // Buckets are disjoint + exhaustive: they sum to the total exactly.
  EXPECT_EQ(frame.attribution.sum_ps(), frame.attribution.total_ps);
  // The critical path telescopes to the same integer total.
  EXPECT_EQ(frame.critical_ps(), frame.attribution.total_ps);
  // Lane self times cover the same total exactly.
  Picos lane_sum = 0;
  for (const Lane& lane : frame.lanes) lane_sum += lane.self_ps;
  EXPECT_EQ(lane_sum, frame.attribution.total_ps);
  // And the integer total matches the double frame duration within 1e-9 s.
  EXPECT_NEAR(frame.attribution.total_seconds(), frame.frame_seconds, 1e-9);
  EXPECT_NEAR(frame.critical_seconds(), frame.frame_seconds, 1e-9);
  // Every slice references a span inside the frame's subtree.
  const auto& spans = tracer.spans();
  for (const Slice& slice : frame.critical_path) {
    ASSERT_GE(slice.span, frame.frame_span);
    ASSERT_LT(std::size_t(slice.span), spans.size());
    EXPECT_GE(slice.slack_seconds, 0.0);
  }
}

FrameProfile profile_frame(const core::ExperimentConfig& cfg,
                           const fault::FaultPlan* plan,
                           core::FrameStats* stats_out = nullptr) {
  core::ParallelVolumeRenderer renderer(cfg);
  obs::Tracer tracer;
  renderer.set_tracer(&tracer);
  const core::FrameStats stats = plan != nullptr
                                     ? renderer.model_frame_with_faults(*plan)
                                     : renderer.model_frame();
  if (stats_out != nullptr) *stats_out = stats;
  const Profile profile = analyze(tracer);
  EXPECT_EQ(profile.frames.size(), 1u);
  expect_invariants(tracer, profile.frames.front());
  return profile.frames.front();
}

// --- frame invariants across scenarios ---

TEST(ProfileTest, HealthyFrameSatisfiesInvariants) {
  core::FrameStats stats;
  const FrameProfile frame = profile_frame(model_config(), nullptr, &stats);
  EXPECT_NEAR(frame.attribution.total_seconds(), stats.total_seconds(), 1e-9);
  // A healthy model frame has storage, link, compute, and skew time but no
  // fault recovery, checkpoint, or steal activity.
  EXPECT_GT(frame.attribution.ps(Bucket::kStorage), 0);
  EXPECT_GT(frame.attribution.ps(Bucket::kTorusLink), 0);
  EXPECT_GT(frame.attribution.ps(Bucket::kCompute), 0);
  EXPECT_EQ(frame.attribution.ps(Bucket::kFaultRecovery), 0);
  EXPECT_EQ(frame.attribution.ps(Bucket::kCheckpoint), 0);
  EXPECT_EQ(frame.attribution.ps(Bucket::kSteal), 0);
}

TEST(ProfileTest, FaultedFrameSatisfiesInvariants) {
  const core::ExperimentConfig cfg = model_config();
  core::ParallelVolumeRenderer probe(cfg);
  const fault::FaultPlan plan = faulty_plan(probe, cfg);
  const FrameProfile frame = profile_frame(cfg, &plan);
  EXPECT_GT(frame.frame_seconds, 0.0);
}

TEST(ProfileTest, StealingFrameSatisfiesInvariantsAndChargesStealBucket) {
  core::ExperimentConfig cfg = model_config();
  cfg.steal.policy = steal::StealPolicy::kScanlineChunks;
  core::ParallelVolumeRenderer probe(cfg);
  const fault::FaultPlan plan = faulty_plan(probe, cfg);
  const FrameProfile frame = profile_frame(cfg, &plan);
  // The steal stage's claim exchanges are forced into the steal bucket.
  EXPECT_GT(frame.attribution.ps(Bucket::kSteal), 0);
}

// Acceptance criterion: a seeded faulty + stealing frame at 4096 procs.
TEST(ProfileTest, FaultyStealingFrameAt4096ProcsSumsExactly) {
  core::ExperimentConfig cfg = model_config(4096);
  cfg.dataset = format::supernova_desc(format::FileFormat::kRaw, 1120);
  cfg.variable = cfg.dataset.variables.front();
  cfg.image_width = cfg.image_height = 1600;
  cfg.steal.policy = steal::StealPolicy::kScanlineChunks;
  core::ParallelVolumeRenderer probe(cfg);
  const fault::FaultPlan plan = faulty_plan(probe, cfg);
  core::FrameStats stats;
  const FrameProfile frame = profile_frame(cfg, &plan, &stats);
  EXPECT_NEAR(frame.critical_seconds(), stats.total_seconds(), 1e-9);
  EXPECT_EQ(frame.attribution.sum_ps(), frame.attribution.total_ps);
  EXPECT_GT(frame.attribution.ps(Bucket::kSteal), 0);
  EXPECT_GT(frame.attribution.ps(Bucket::kSkew), 0);
}

TEST(ProfileTest, RunAttributionCoversCheckpointsBetweenFrames) {
  const core::ExperimentConfig cfg = model_config();
  core::ParallelVolumeRenderer renderer(cfg);
  obs::Tracer tracer;
  renderer.set_tracer(&tracer);
  ckpt::CheckpointPolicy policy;
  policy.interval_frames = 2;
  const core::RunStats run =
      renderer.model_run(4, fault::FaultTimeline(), policy);
  const Profile profile = analyze(tracer);
  EXPECT_EQ(profile.frames.size(), 4u);
  for (const FrameProfile& frame : profile.frames) {
    expect_invariants(tracer, frame);
    // Checkpoint spans live between frames, not inside them.
    EXPECT_EQ(frame.attribution.ps(Bucket::kCheckpoint), 0);
  }
  // The run-level attribution picks them up.
  EXPECT_GT(profile.run.ps(Bucket::kCheckpoint), 0);
  EXPECT_EQ(profile.run.sum_ps(), profile.run.total_ps);
  EXPECT_NEAR(profile.run.total_seconds(), run.total_seconds, 1e-9);
}

// --- slack and lanes ---

TEST(ProfileTest, SlowestSiblingHasZeroSlack) {
  obs::Tracer tracer;
  const auto frame = tracer.begin("frame", obs::Category::kFrame);
  for (const double seconds : {1.0, 3.0, 2.0}) {
    const auto round = tracer.begin("round", obs::Category::kCompute);
    tracer.advance(seconds);
    tracer.end(round);
  }
  tracer.end(frame);
  const FrameProfile profile = analyze_frame(tracer, frame);
  expect_invariants(tracer, profile);
  // Slices: three "round" siblings. Slack measures distance to the 3.0 s
  // one, which itself has zero slack.
  double max_seen = 0.0;
  for (const Slice& slice : profile.critical_path) {
    const obs::Span& s = tracer.spans()[std::size_t(slice.span)];
    if (s.name != "round") continue;
    EXPECT_NEAR(slice.slack_seconds, 3.0 - s.seconds(), 1e-12);
    max_seen = std::max(max_seen, s.seconds());
  }
  EXPECT_DOUBLE_EQ(max_seen, 3.0);
}

TEST(ProfileTest, LanesGroupByStragglerRankArg) {
  obs::Tracer tracer;
  const auto frame = tracer.begin("frame", obs::Category::kFrame);
  const auto render = tracer.begin("stage.render", obs::Category::kRender);
  tracer.arg(render, "straggler_rank", 5.0);
  tracer.advance(2.0);
  tracer.end(render);
  const auto exch = tracer.begin("net.exchange", obs::Category::kExchange);
  tracer.advance(1.0);
  tracer.end(exch);
  tracer.end(frame);
  const FrameProfile profile = analyze_frame(tracer, frame);
  expect_invariants(tracer, profile);
  bool found_rank5 = false;
  for (const Lane& lane : profile.lanes) {
    if (lane.rank == 5 && lane.cat == obs::Category::kRender) {
      found_rank5 = true;
      EXPECT_NEAR(lane.seconds(), 2.0, 1e-9);
    }
    if (lane.cat == obs::Category::kExchange) {
      EXPECT_EQ(lane.rank, -1);
    }
  }
  EXPECT_TRUE(found_rank5);
}

TEST(ProfileTest, RenderStageSpanCarriesStragglerRank) {
  core::ParallelVolumeRenderer renderer(model_config());
  obs::Tracer tracer;
  renderer.set_tracer(&tracer);
  renderer.model_frame();
  bool found = false;
  for (const obs::Span& s : tracer.spans()) {
    if (s.name != "stage.render") continue;
    for (const auto& [key, value] : s.args) {
      if (key == "straggler_rank") {
        found = true;
        EXPECT_GE(value, 0.0);
      }
    }
  }
  EXPECT_TRUE(found);
}

TEST(ProfileTest, ExchangeSpanNamesBottleneckLinkAndNode) {
  core::ParallelVolumeRenderer renderer(model_config());
  obs::Tracer tracer;
  renderer.set_tracer(&tracer);
  renderer.model_frame();
  bool found_link = false, found_node = false;
  for (const obs::Span& s : tracer.spans()) {
    if (s.name != "net.exchange") continue;
    for (const auto& [key, value] : s.args) {
      if (key == "bottleneck_link" && value >= 0.0) found_link = true;
      if (key == "bottleneck_node" && value >= 0.0) found_node = true;
    }
  }
  EXPECT_TRUE(found_link);
  EXPECT_TRUE(found_node);
}

// --- determinism ---

TEST(ProfileTest, OutputsByteIdenticalAcrossHostThreads) {
  const auto run_at = [](int threads) {
    core::ExperimentConfig cfg = model_config();
    cfg.host_threads = threads;
    cfg.steal.policy = steal::StealPolicy::kScanlineChunks;
    core::ParallelVolumeRenderer renderer(cfg);
    const fault::FaultPlan plan = faulty_plan(renderer, cfg);
    obs::Tracer tracer;
    renderer.set_tracer(&tracer);
    renderer.model_frame_with_faults(plan);
    const Profile profile = analyze(tracer);
    return std::pair(report(tracer, profile.frames.front()),
                     to_json(tracer, profile.frames.front()));
  };
  const auto [report1, json1] = run_at(1);
  const auto [report4, json4] = run_at(4);
  EXPECT_EQ(report1, report4);
  EXPECT_EQ(json1, json4);
  EXPECT_NE(json1.find("\"buckets\""), std::string::npos);
}

TEST(ProfileTest, ChromeTraceNamesPerRankLanes) {
  core::ParallelVolumeRenderer renderer(model_config());
  obs::Tracer tracer;
  renderer.set_tracer(&tracer);
  renderer.model_frame();
  const std::string trace = obs::to_chrome_trace_json(tracer);
  EXPECT_NE(trace.find("\"process_name\""), std::string::npos);
  EXPECT_NE(trace.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"global\""), std::string::npos);
  // The render stage's straggler rank gets its own pid lane.
  EXPECT_NE(trace.find("\"name\":\"rank "), std::string::npos);
  // Byte-identical across runs, like every exporter.
  core::ParallelVolumeRenderer again(model_config());
  obs::Tracer tracer2;
  again.set_tracer(&tracer2);
  again.model_frame();
  EXPECT_EQ(trace, obs::to_chrome_trace_json(tracer2));
}

TEST(ProfileTest, JsonEscapesSpanNames) {
  // A span name may hold quotes, backslashes and control characters; the
  // critical path's "name" must still parse back to it.
  const std::string name = "stage \"io\"\\\n\x01";
  obs::Tracer tracer;
  const auto frame = tracer.begin("frame", obs::Category::kFrame);
  const auto stage = tracer.begin(name, obs::Category::kIo);
  tracer.advance(1.0);
  tracer.end(stage);
  tracer.end(frame);
  const FrameProfile profile = analyze_frame(tracer, frame);
  const JsonPtr doc = parse_json(to_json(tracer, profile));
  bool found = false;
  for (const JsonPtr& slice : doc->at("critical_path")->as_array()) {
    if (slice->number_at("span") == double(stage)) {
      found = true;
      EXPECT_EQ(slice->string_at("name"), name);
    }
  }
  EXPECT_TRUE(found);
}

// --- A/B diff ---

/// Largest absolute per-bucket or total delta of a diff, in seconds.
double max_abs_delta(const ProfileDiff& diff) {
  double worst = std::abs(diff.delta_total());
  for (const BucketDelta& d : diff.buckets) {
    worst = std::max(worst, std::abs(d.delta_seconds()));
  }
  return worst;
}

TEST(ProfileDiffTest, SelfDiffReportsZeroDeltas) {
  const FrameProfile frame = profile_frame(model_config(), nullptr);
  const ProfileDiff diff = diff_profiles(frame.attribution, frame.attribution);
  EXPECT_EQ(max_abs_delta(diff), 0.0);
  EXPECT_DOUBLE_EQ(diff.delta_total(), 0.0);
}

TEST(ProfileDiffTest, FaultedFrameShowsRecoveryDelta) {
  const core::ExperimentConfig cfg = model_config();
  core::ParallelVolumeRenderer probe(cfg);
  const fault::FaultPlan plan = faulty_plan(probe, cfg);
  const FrameProfile healthy = profile_frame(cfg, nullptr);
  const FrameProfile faulted = profile_frame(cfg, &plan);
  const ProfileDiff diff =
      diff_profiles(healthy.attribution, faulted.attribution);
  EXPECT_GT(max_abs_delta(diff), 1e-6);
  const std::string text = report(diff);
  EXPECT_NE(text.find("total"), std::string::npos);
}

// --- JSON parser ---

TEST(JsonTest, ParsesScalarsArraysAndObjects) {
  const JsonPtr doc = parse_json(
      R"({"a": 1.5, "b": [1, 2, 3], "c": {"d": "x\ny"}, "e": true,
          "f": null, "g": -2e3})");
  EXPECT_DOUBLE_EQ(doc->number_at("a"), 1.5);
  EXPECT_EQ(doc->at("b")->as_array().size(), 3u);
  EXPECT_DOUBLE_EQ(doc->at("b")->as_array()[2]->as_number(), 3.0);
  EXPECT_EQ(doc->at("c")->string_at("d"), "x\ny");
  EXPECT_TRUE(doc->at("e")->as_bool());
  EXPECT_TRUE(doc->at("f")->is_null());
  EXPECT_DOUBLE_EQ(doc->number_at("g"), -2000.0);
  EXPECT_EQ(doc->find("missing"), nullptr);
  EXPECT_THROW(doc->at("missing"), Error);
}

TEST(JsonTest, ParsesUnicodeEscapes) {
  const JsonPtr doc = parse_json(R"({"s": "Aé"})");
  EXPECT_EQ(doc->string_at("s"), "A\xc3\xa9");
}

TEST(JsonTest, MalformedInputFailsLoudWithOffset) {
  EXPECT_THROW(parse_json("{\"a\": }"), Error);
  EXPECT_THROW(parse_json("[1, 2"), Error);
  EXPECT_THROW(parse_json("{} trailing"), Error);
  EXPECT_THROW(parse_json("{\"a\": 01x}"), Error);
  try {
    parse_json("[tru]");
    FAIL() << "expected parse error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("byte"), std::string::npos);
  }
}

TEST(JsonTest, NestingPastTheLimitThrows) {
  EXPECT_THROW(parse_json(std::string(100000, '[')), Error);
  const std::string at_limit = std::string(kMaxJsonDepth, '[') +
                               std::string(kMaxJsonDepth, ']');
  JsonPtr doc = parse_json(at_limit);
  for (int depth = 1; depth < kMaxJsonDepth; ++depth) {
    ASSERT_EQ(doc->as_array().size(), 1u);
    doc = doc->as_array().front();
  }
  EXPECT_TRUE(doc->as_array().empty());
  EXPECT_THROW(parse_json("[" + at_limit + "]"), Error);
  std::string objects;
  for (int depth = 0; depth <= kMaxJsonDepth; ++depth) objects += "{\"a\": ";
  objects += "0" + std::string(kMaxJsonDepth + 1, '}');
  EXPECT_THROW(parse_json(objects), Error);
}

// --- perf gate ---

/// A small synthetic bench dump in the bench_common schema.
std::string bench_text(double io_s, double straggler, double bucket_io) {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      R"({
        "bench": "bench_demo",
        "schema_version": 2,
        "git_describe": "test",
        "config": {"seed": "42"},
        "rows": [
          {"name": "demo/a", "seconds": %.9f, "straggler": %.9f},
          {"name": "demo/b", "seconds": 2.0}
        ],
        "profile": [
          {"label": "demo/frame", "total_s": %.9f, "buckets": {
            "storage": %.9f, "compute": 1.0}}
        ],
        "host": {"threads": 4, "git": "test", "total_wall_ms": 1.0,
                 "wall_ms": []}
      })",
      io_s, straggler, bucket_io + 1.0, bucket_io);
  return buf;
}

TEST(PerfGateTest, PassesAgainstItself) {
  const BenchRun run = parse_bench_run(parse_json(bench_text(1.0, 6.5, 3.0)));
  EXPECT_EQ(run.schema_version, 2);
  EXPECT_EQ(run.git_describe, "test");
  ASSERT_EQ(run.rows.size(), 2u);
  ASSERT_EQ(run.profiles.size(), 1u);
  const GateResult result = perf_gate(run, run);
  EXPECT_TRUE(result.passed()) << report(result);
  // A baseline dumped before a bucket was retired still carries that
  // bucket's key. The parser reads only the buckets the taxonomy knows, so
  // the key drops out and the baseline gates against a fresh dump without
  // it. A nonzero value shows the key is dropped, not folded into a bucket.
  std::string retired = bench_text(1.0, 6.5, 3.0);
  const std::string last_bucket = "\"compute\": 1.0}";
  retired.replace(retired.find(last_bucket), last_bucket.size(),
                  "\"compute\": 1.0, \"service\": 0.25}");
  const BenchRun old = parse_bench_run(parse_json(retired));
  ASSERT_EQ(old.profiles.size(), 1u);
  EXPECT_EQ(old.profiles[0].bucket_seconds, run.profiles[0].bucket_seconds);
  const GateResult against_old = perf_gate(old, run);
  EXPECT_TRUE(against_old.passed()) << report(against_old);
}

TEST(PerfGateTest, FailsOnInjectedRegressionNamingRowAndKey) {
  const BenchRun baseline =
      parse_bench_run(parse_json(bench_text(1.0, 6.5, 3.0)));
  // +10% on demo/a's seconds: well past the 2% default tolerance.
  const BenchRun slower =
      parse_bench_run(parse_json(bench_text(1.1, 6.5, 3.0)));
  const GateResult result = perf_gate(baseline, slower);
  ASSERT_FALSE(result.passed());
  EXPECT_EQ(result.failures.front().row, "demo/a");
  EXPECT_EQ(result.failures.front().key, "seconds");
  const std::string text = report(result);
  EXPECT_NE(text.find("FAIL"), std::string::npos);
  EXPECT_NE(text.find("demo/a"), std::string::npos);
  // Faster than baseline is an improvement note, not a failure.
  const GateResult faster = perf_gate(slower, baseline);
  EXPECT_TRUE(faster.passed());
  EXPECT_FALSE(faster.notes.empty());
}

TEST(PerfGateTest, FailsOnProfileBucketRegression) {
  const BenchRun baseline =
      parse_bench_run(parse_json(bench_text(1.0, 6.5, 3.0)));
  const BenchRun regressed =
      parse_bench_run(parse_json(bench_text(1.0, 6.5, 3.5)));
  const GateResult result = perf_gate(baseline, regressed);
  ASSERT_FALSE(result.passed());
  bool named_bucket = false;
  for (const GateIssue& issue : result.failures) {
    if (issue.row == "profile:demo/frame" && issue.key == "storage") {
      named_bucket = true;
    }
  }
  EXPECT_TRUE(named_bucket) << report(result);
}

TEST(PerfGateTest, FailsOnCounterDriftEitherWay) {
  const BenchRun baseline =
      parse_bench_run(parse_json(bench_text(1.0, 6.5, 3.0)));
  const BenchRun drifted =
      parse_bench_run(parse_json(bench_text(1.0, 5.0, 3.0)));
  // The model is deterministic: a counter moving in the "good" direction
  // still means the model changed and the baseline must be regenerated.
  EXPECT_FALSE(perf_gate(baseline, drifted).passed());
  EXPECT_FALSE(perf_gate(drifted, baseline).passed());
}

TEST(PerfGateTest, FailsOnMissingRowAndSchemaMismatch) {
  const BenchRun baseline =
      parse_bench_run(parse_json(bench_text(1.0, 6.5, 3.0)));
  BenchRun missing = baseline;
  missing.rows.pop_back();
  EXPECT_FALSE(perf_gate(baseline, missing).passed());
  // New rows in fresh are notes, not failures.
  const GateResult added = perf_gate(missing, baseline);
  EXPECT_TRUE(added.passed());
  EXPECT_FALSE(added.notes.empty());
  BenchRun v1 = baseline;
  v1.schema_version = 1;
  const GateResult schema = perf_gate(baseline, v1);
  ASSERT_FALSE(schema.passed());
  EXPECT_EQ(schema.failures.front().key, "schema_version");
}

TEST(PerfGateTest, ToleranceAbsorbsSmallDrift) {
  const BenchRun baseline =
      parse_bench_run(parse_json(bench_text(1.0, 6.5, 3.0)));
  // +1% stays inside the default 2% tolerance.
  const BenchRun close = parse_bench_run(parse_json(bench_text(1.01, 6.5, 3.0)));
  EXPECT_TRUE(perf_gate(baseline, close).passed());
  GateConfig tight;
  tight.rel_tol = 0.005;
  EXPECT_FALSE(perf_gate(baseline, close, tight).passed());
}

// --- scaling decomposition ---

TEST(ScalingTest, PerfectScalingHasUnitEfficiency) {
  std::vector<ScalingPoint> points;
  for (std::int64_t p = 64; p <= 512; p *= 2) {
    ScalingPoint point;
    point.procs = p;
    point.io_seconds = 64.0 / double(p);
    point.render_seconds = 128.0 / double(p);
    point.composite_seconds = 32.0 / double(p);
    points.push_back(point);
  }
  for (const ScalingLoss& loss : scaling_decomposition(points)) {
    EXPECT_NEAR(loss.efficiency, 1.0, 1e-12);
    EXPECT_NEAR(loss.io_loss, 0.0, 1e-12);
    EXPECT_NEAR(loss.imbalance_loss, 0.0, 1e-12);
    EXPECT_NEAR(loss.communication_loss, 0.0, 1e-12);
  }
}

TEST(ScalingTest, LossesSumToEfficiencyGap) {
  std::vector<ScalingPoint> points;
  // I/O stops scaling past 128 procs; compositing grows with log(p).
  for (std::int64_t p = 64; p <= 1024; p *= 2) {
    ScalingPoint point;
    point.procs = p;
    point.io_seconds = 64.0 / double(std::min<std::int64_t>(p, 128));
    point.render_seconds = 128.0 / double(p);
    point.composite_seconds = 0.01 * std::log2(double(p));
    points.push_back(point);
  }
  const auto losses = scaling_decomposition(points);
  for (const ScalingLoss& loss : losses) {
    const double sum = loss.io_loss + loss.imbalance_loss +
                       loss.communication_loss + loss.residual_loss;
    EXPECT_NEAR(sum, 1.0 - loss.efficiency, 1e-12);
  }
  // The big-proc end is dominated by the I/O loss term.
  const ScalingLoss& last = losses.back();
  EXPECT_LT(last.efficiency, 0.5);
  EXPECT_GT(last.io_loss, last.communication_loss);
  EXPECT_GT(last.io_loss, std::abs(last.imbalance_loss));
}

TEST(ScalingTest, ExtractsSweepFromBenchRows) {
  BenchRun run;
  run.bench = "bench_fig5";
  for (const double p : {256.0, 64.0, 128.0}) {
    BenchRow row;
    row.name = "fig5/224^3/" + std::to_string(std::int64_t(p));
    row.seconds = 10.0;
    row.counters = {{"procs", p},
                    {"io_s", 5.0},
                    {"render_s", 4.0},
                    {"composite_s", 1.0}};
    run.rows.push_back(row);
  }
  const auto points = extract_scaling(run, "fig5/224^3/");
  ASSERT_EQ(points.size(), 3u);
  EXPECT_EQ(points.front().procs, 64);
  EXPECT_EQ(points.back().procs, 256);
  EXPECT_THROW(extract_scaling(run, "fig5/4480^3/"), Error);
}

}  // namespace
}  // namespace pvr::profile
