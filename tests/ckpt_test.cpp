// Checkpoint/restart: execute-mode round trip through the collective I/O
// engine, model_run accounting under fault timelines, determinism across
// host thread counts (stats and traces), timeline generation, and the
// Young/Daly interval optimum against a brute-force sweep.
#include <unistd.h>
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "core/pipeline.hpp"
#include "data/synthetic.hpp"
#include "fault/fault_timeline.hpp"
#include "obs/trace.hpp"
#include "render/decomposition.hpp"

namespace pvr {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir()
      : path_(fs::temp_directory_path() /
              ("pvr_ckpt_test_" + std::to_string(::getpid()))) {
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  fs::path path_;
};

core::ExperimentConfig run_config(int host_threads = 0) {
  core::ExperimentConfig cfg;
  cfg.num_ranks = 8;
  cfg.dataset = format::supernova_desc(format::FileFormat::kRaw, 32);
  cfg.variable = cfg.dataset.variables.front();
  cfg.image_width = cfg.image_height = 64;
  cfg.host_threads = host_threads;
  return cfg;
}

void expect_same_read(const iolib::ReadResult& a,
                      const iolib::ReadResult& b) {
  EXPECT_EQ(a.seconds, b.seconds);
  EXPECT_EQ(a.open_seconds, b.open_seconds);
  EXPECT_EQ(a.storage_cost.seconds, b.storage_cost.seconds);
  EXPECT_EQ(a.shuffle_cost.seconds, b.shuffle_cost.seconds);
  EXPECT_EQ(a.useful_bytes, b.useful_bytes);
  EXPECT_EQ(a.physical_bytes, b.physical_bytes);
  EXPECT_EQ(a.accesses, b.accesses);
}

void expect_same_frame(const core::FrameStats& a, const core::FrameStats& b) {
  EXPECT_EQ(a.io_seconds, b.io_seconds);
  EXPECT_EQ(a.render_seconds, b.render_seconds);
  EXPECT_EQ(a.composite_seconds, b.composite_seconds);
  EXPECT_EQ(a.write_seconds, b.write_seconds);
  expect_same_read(a.io, b.io);
  expect_same_read(a.write_io, b.write_io);
  EXPECT_EQ(a.render.total_samples, b.render.total_samples);
  EXPECT_EQ(a.render.max_rank_samples, b.render.max_rank_samples);
  EXPECT_EQ(a.render.seconds, b.render.seconds);
  EXPECT_EQ(a.composite.seconds, b.composite.seconds);
  EXPECT_EQ(a.composite.messages, b.composite.messages);
  EXPECT_EQ(a.composite.bytes, b.composite.bytes);
  EXPECT_EQ(a.faults.coverage, b.faults.coverage);
  EXPECT_EQ(a.async.enabled, b.async.enabled);
  EXPECT_EQ(a.async.tasks, b.async.tasks);
  EXPECT_EQ(a.async.edges, b.async.edges);
  EXPECT_EQ(a.async.bsp_seconds, b.async.bsp_seconds);
  EXPECT_EQ(a.async.reclaimed_seconds, b.async.reclaimed_seconds);
  EXPECT_EQ(a.async.lane_wait_seconds, b.async.lane_wait_seconds);
  EXPECT_EQ(a.async.readahead_seconds, b.async.readahead_seconds);
}

void expect_same_run(const core::RunStats& a, const core::RunStats& b) {
  EXPECT_EQ(a.frames_completed, b.frames_completed);
  EXPECT_EQ(a.faults_struck, b.faults_struck);
  EXPECT_EQ(a.checkpoints_written, b.checkpoints_written);
  EXPECT_EQ(a.checkpoints_read, b.checkpoints_read);
  EXPECT_EQ(a.frame_seconds, b.frame_seconds);
  EXPECT_EQ(a.checkpoint_seconds, b.checkpoint_seconds);
  EXPECT_EQ(a.lost_work_seconds, b.lost_work_seconds);
  EXPECT_EQ(a.total_seconds, b.total_seconds);
  EXPECT_EQ(a.ideal_seconds, b.ideal_seconds);
  EXPECT_EQ(a.min_coverage, b.min_coverage);
  ASSERT_EQ(a.frames.size(), b.frames.size());
  for (std::size_t f = 0; f < a.frames.size(); ++f) {
    expect_same_frame(a.frames[f], b.frames[f]);
  }
}

// --- CheckpointCodec -------------------------------------------------------

struct CodecEnv {
  explicit CodecEnv(std::int64_t ranks)
      : partition(machine::MachineConfig{}, ranks),
        execute_rt(partition, runtime::Mode::kExecute),
        model_rt(partition, runtime::Mode::kModel),
        storage(partition, machine::StorageConfig{}) {}
  machine::Partition partition;
  runtime::Runtime execute_rt;
  runtime::Runtime model_rt;
  storage::StorageModel storage;
};

/// Non-ghosted blocks tiling a 16^3 grid over 8 ranks, plus source bricks.
void make_state(const Vec3i& dims, std::int64_t ranks,
                std::vector<iolib::RankBlock>* blocks,
                std::vector<Brick>* bricks) {
  render::Decomposition decomp(dims, ranks);
  const data::SupernovaField field(1530);
  for (std::int64_t b = 0; b < decomp.num_blocks(); ++b) {
    blocks->push_back(iolib::RankBlock{b, decomp.block_box(b)});
    Brick brick(decomp.block_box(b));
    field.fill_brick(data::Variable::kPressure, dims, &brick);
    bricks->push_back(std::move(brick));
  }
}

TEST(CheckpointCodecTest, ExecuteModeRoundTripsStateExactly) {
  TempDir dir;
  const Vec3i dims{16, 16, 16};
  const format::VolumeLayout layout(ckpt::CheckpointCodec::state_desc(dims));
  CodecEnv env(8);
  std::vector<iolib::RankBlock> blocks;
  std::vector<Brick> bricks;
  make_state(dims, 8, &blocks, &bricks);

  ckpt::CheckpointCodec codec(env.execute_rt, env.storage,
                              iolib::Hints::untuned());
  const std::string path = dir.file("state.ckpt");
  {
    format::DiskFile file(path, format::DiskFile::OpenMode::kTruncate);
    file.truncate(layout.file_bytes());
    const ckpt::CheckpointIo ck =
        codec.write(layout, blocks, /*frame_index=*/5, /*image_bytes=*/0,
                    &file, bricks);
    EXPECT_EQ(ck.frame_index, 5);
    EXPECT_GT(ck.io.useful_bytes, 0);
    EXPECT_GT(ck.seconds, 0.0);
    EXPECT_EQ(ck.bytes,
              ck.io.useful_bytes + ckpt::CheckpointCodec::kTrailerBytes);
  }

  std::vector<Brick> restored;
  for (const auto& b : blocks) restored.push_back(Brick(b.box));
  format::DiskFile file(path, format::DiskFile::OpenMode::kRead);
  const ckpt::CheckpointIo rd =
      codec.read(layout, blocks, &file, restored);
  EXPECT_EQ(rd.frame_index, 5);  // recovered from the trailer
  EXPECT_GT(rd.seconds, 0.0);
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    EXPECT_TRUE(restored[b].data() == bricks[b].data()) << "block " << b;
  }
}

TEST(CheckpointCodecTest, RestartRejectsForeignAndTruncatedFiles) {
  const Vec3i dims{16, 16, 16};
  const format::VolumeLayout layout(ckpt::CheckpointCodec::state_desc(dims));
  CodecEnv env(8);
  std::vector<iolib::RankBlock> blocks;
  std::vector<Brick> bricks;
  make_state(dims, 8, &blocks, &bricks);
  ckpt::CheckpointCodec codec(env.execute_rt, env.storage,
                              iolib::Hints::untuned());
  std::vector<Brick> restored;
  for (const auto& b : blocks) restored.push_back(Brick(b.box));

  // State bytes but no trailer: truncated.
  format::MemoryFile no_trailer(
      std::vector<std::byte>(std::size_t(layout.file_bytes())));
  EXPECT_THROW(codec.read(layout, blocks, &no_trailer, restored), Error);

  // Right size, wrong magic: not a checkpoint.
  format::MemoryFile bad_magic(std::vector<std::byte>(
      std::size_t(layout.file_bytes() + ckpt::CheckpointCodec::kTrailerBytes)));
  EXPECT_THROW(codec.read(layout, blocks, &bad_magic, restored), Error);

  // A valid checkpoint without an image payload whose trailer then carries
  // a hostile frame index (byte 8) or image size (byte 24).
  const auto hostile = [&](std::int64_t field_offset, std::int64_t value) {
    format::MemoryFile file;
    codec.write(layout, blocks, /*frame_index=*/3, /*image_bytes=*/0, &file,
                bricks);
    std::array<std::byte, 8> bytes{};
    std::memcpy(bytes.data(), &value, 8);
    file.write_at(layout.file_bytes() + field_offset, bytes);
    return file;
  };
  format::MemoryFile negative_frame = hostile(8, -1);
  EXPECT_THROW(codec.read(layout, blocks, &negative_frame, restored), Error);
  for (const std::int64_t image_bytes :
       {std::int64_t{-1000}, std::int64_t{9223372036854775800},
        std::int64_t{5000}}) {
    format::MemoryFile file = hostile(24, image_bytes);
    EXPECT_THROW(codec.read(layout, blocks, &file, restored), Error)
        << "image_bytes " << image_bytes;
  }
}

TEST(CheckpointCodecTest, ModelModeWritePricesStateTrailerAndBarrier) {
  const Vec3i dims{64, 64, 64};
  const format::VolumeLayout layout(ckpt::CheckpointCodec::state_desc(dims));
  CodecEnv env(64);
  render::Decomposition decomp(dims, 64);
  std::vector<iolib::RankBlock> blocks;
  for (std::int64_t b = 0; b < decomp.num_blocks(); ++b) {
    blocks.push_back(iolib::RankBlock{b, decomp.block_box(b)});
  }
  ckpt::CheckpointCodec codec(env.model_rt, env.storage,
                              iolib::Hints::untuned());
  const ckpt::CheckpointIo plain = codec.write(layout, blocks, 0);
  EXPECT_EQ(plain.io.useful_bytes, layout.file_bytes());
  EXPECT_GT(plain.metadata_seconds, 0.0);
  EXPECT_EQ(plain.seconds, plain.io.seconds + plain.metadata_seconds);

  // Persisting an image enlarges the commit, and only the commit.
  const ckpt::CheckpointIo with_image =
      codec.write(layout, blocks, 0, /*image_bytes=*/std::int64_t(1) << 20);
  EXPECT_EQ(with_image.io.seconds, plain.io.seconds);
  EXPECT_GT(with_image.metadata_seconds, plain.metadata_seconds);
  EXPECT_EQ(with_image.bytes - plain.bytes, std::int64_t(1) << 20);
}

TEST(CheckpointCodecTest, BlockRankOutsideThePartitionThrows) {
  // The codec writes and reads through the collective engine, so it
  // rejects a block naming a rank past the partition (or a negative one)
  // the same way.
  const Vec3i dims{16, 16, 16};
  const format::VolumeLayout layout(ckpt::CheckpointCodec::state_desc(dims));
  CodecEnv env(8);
  ckpt::CheckpointCodec codec(env.model_rt, env.storage,
                              iolib::Hints::untuned());
  for (const std::int64_t bad : {std::int64_t{8}, std::int64_t{-1}}) {
    const std::vector<iolib::RankBlock> blocks = {
        {0, Box3i{{0, 0, 0}, {8, 16, 16}}},
        {bad, Box3i{{8, 0, 0}, {16, 16, 16}}}};
    EXPECT_THROW(codec.write(layout, blocks, 0), Error) << "rank " << bad;
    EXPECT_THROW(codec.read(layout, blocks), Error) << "rank " << bad;
  }
}

// --- FaultTimeline ---------------------------------------------------------

TEST(FaultTimelineTest, GenerateIsDeterministicAndPrefixStable) {
  const machine::Partition part(machine::MachineConfig{}, 64);
  const machine::StorageConfig storage;
  fault::TimelineSpec spec;
  spec.seed = 5;
  spec.frame_fault_rate = 0.2;
  spec.arrival.node_fail_rate = 0.1;
  const auto a = fault::FaultTimeline::generate(part, storage, 50, spec);
  const auto b = fault::FaultTimeline::generate(part, storage, 50, spec);
  EXPECT_GT(a.num_arrivals(), 0);
  ASSERT_EQ(a.num_arrivals(), b.num_arrivals());
  for (std::size_t i = 0; i < a.arrivals().size(); ++i) {
    EXPECT_EQ(a.arrivals()[i].frame, b.arrivals()[i].frame);
    EXPECT_EQ(a.arrivals()[i].fraction, b.arrivals()[i].fraction);
  }
  EXPECT_EQ(a.mtbf_frames(), 5.0);

  // A shorter run of the same seed sees exactly the prefix of arrivals.
  const auto prefix = fault::FaultTimeline::generate(part, storage, 25, spec);
  for (const auto& arr : prefix.arrivals()) {
    const fault::FaultArrival* full = a.arrival_at(arr.frame);
    ASSERT_NE(full, nullptr);
    EXPECT_EQ(full->fraction, arr.fraction);
  }
  for (const auto& arr : a.arrivals()) {
    if (arr.frame < 25) {
      EXPECT_NE(prefix.arrival_at(arr.frame), nullptr);
    }
  }
}

TEST(FaultTimelineTest, ExplicitArrivalsSortedAndUnique) {
  fault::FaultTimeline timeline;
  EXPECT_TRUE(timeline.empty());
  timeline.add(fault::FaultArrival{7, 0.5, fault::FaultPlan{}});
  timeline.add(fault::FaultArrival{2, 0.25, fault::FaultPlan{}});
  EXPECT_EQ(timeline.num_arrivals(), 2);
  EXPECT_EQ(timeline.arrivals().front().frame, 2);
  ASSERT_NE(timeline.arrival_at(7), nullptr);
  EXPECT_EQ(timeline.arrival_at(7)->fraction, 0.5);
  EXPECT_EQ(timeline.arrival_at(3), nullptr);
  EXPECT_THROW(timeline.add(fault::FaultArrival{7, 0.1, fault::FaultPlan{}}),
               Error);
  EXPECT_EQ(timeline.mtbf_frames(), 0.0);  // explicit: no rate known
}

// --- model_run -------------------------------------------------------------

TEST(ModelRunTest, EmptyTimelineNoPolicyMatchesRepeatedModelFrames) {
  core::ParallelVolumeRenderer runner(run_config());
  const core::RunStats run = runner.model_run(3);

  core::ParallelVolumeRenderer single(run_config());
  EXPECT_EQ(run.frames_completed, 3);
  EXPECT_EQ(run.checkpoints_written, 0);
  EXPECT_EQ(run.checkpoints_read, 0);
  EXPECT_EQ(run.faults_struck, 0);
  EXPECT_EQ(run.checkpoint_seconds, 0.0);
  EXPECT_EQ(run.lost_work_seconds, 0.0);
  EXPECT_EQ(run.total_seconds, run.ideal_seconds);
  EXPECT_EQ(run.effective_fps(), run.ideal_fps());
  EXPECT_EQ(run.overhead_fraction(), 0.0);
  EXPECT_EQ(run.min_coverage, 1.0);
  ASSERT_EQ(run.frames.size(), 3u);
  for (const auto& frame : run.frames) {
    expect_same_frame(frame, single.model_frame());
    EXPECT_EQ(frame.write_seconds, 0.0);
    EXPECT_EQ(frame.write_bandwidth(), 0.0);
  }
}

TEST(ModelRunTest, ZeroFramesYieldZeroThroughputNotNaN) {
  core::ParallelVolumeRenderer runner(run_config());
  const core::RunStats run = runner.model_run(0);
  EXPECT_EQ(run.frames_completed, 0);
  EXPECT_EQ(run.total_seconds, 0.0);
  EXPECT_EQ(run.effective_fps(), 0.0);
  EXPECT_EQ(run.ideal_fps(), 0.0);
  EXPECT_EQ(run.overhead_fraction(), 0.0);
  EXPECT_FALSE(std::isnan(run.effective_fps()));
  EXPECT_FALSE(std::isnan(run.ideal_fps()));

  // A default-constructed RunStats is equally safe to report from.
  const core::RunStats none;
  EXPECT_EQ(none.effective_fps(), 0.0);
  EXPECT_EQ(none.ideal_fps(), 0.0);
  EXPECT_EQ(none.overhead_fraction(), 0.0);
}

TEST(ModelRunTest, CheckpointsFollowPolicyAndFaultsRollBack) {
  core::ParallelVolumeRenderer runner(run_config());
  const double healthy_seconds = runner.model_frame().total_seconds();

  fault::FaultTimeline timeline;
  fault::FaultPlan damage;
  damage.fail_node(1);
  timeline.add(fault::FaultArrival{4, 0.25, damage});
  ckpt::CheckpointPolicy policy;
  policy.interval_frames = 2;
  const core::RunStats run = runner.model_run(8, timeline, policy);

  // Checkpoints land after frames 1, 3, 5 — never after the final frame.
  EXPECT_EQ(run.checkpoints_written, 3);
  EXPECT_GT(run.frames[1].write_seconds, 0.0);
  EXPECT_GT(run.frames[1].write_bandwidth(), 0.0);
  EXPECT_GT(run.frames[1].write_io.useful_bytes, 0);
  EXPECT_EQ(run.frames[0].write_seconds, 0.0);
  EXPECT_EQ(run.frames[7].write_seconds, 0.0);

  // The arrival at frame 4 rolls back to the checkpoint taken after frame
  // 3, so only the stricken quarter-frame is lost work.
  EXPECT_EQ(run.faults_struck, 1);
  EXPECT_EQ(run.checkpoints_read, 1);
  EXPECT_DOUBLE_EQ(run.lost_work_seconds, 0.25 * healthy_seconds);
  EXPECT_LT(run.min_coverage, 1.0);
  EXPECT_LT(run.frames[4].faults.coverage, 1.0);
  EXPECT_EQ(run.frames[3].faults.coverage, 1.0);
  EXPECT_EQ(run.total_seconds, run.frame_seconds + run.checkpoint_seconds +
                                   run.lost_work_seconds);
  EXPECT_LT(run.effective_fps(), run.ideal_fps());

  // Without checkpoints the same arrival replays all four prior frames.
  core::ParallelVolumeRenderer bare(run_config());
  const core::RunStats unprotected = bare.model_run(8, timeline, {});
  EXPECT_EQ(unprotected.checkpoints_written, 0);
  EXPECT_EQ(unprotected.checkpoints_read, 0);
  EXPECT_DOUBLE_EQ(unprotected.lost_work_seconds,
                   (4.0 + 0.25) * healthy_seconds);
}

TEST(ModelRunTest, DeterministicAcrossHostThreadsIncludingTrace) {
  fault::TimelineSpec spec;
  spec.seed = 9;
  spec.frame_fault_rate = 0.3;
  spec.arrival.node_fail_rate = 0.2;
  spec.arrival.server_fail_rate = 0.2;
  spec.arrival.compute_degrade_rate = 0.3;
  ckpt::CheckpointPolicy policy;
  policy.interval_frames = 2;
  policy.persist_image = true;

  core::RunStats runs[2];
  obs::Tracer tracers[2];
  const int threads[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    core::ParallelVolumeRenderer runner(run_config(threads[i]));
    const auto timeline = fault::FaultTimeline::generate(
        runner.partition(), runner.config().storage, 6, spec);
    ASSERT_GT(timeline.num_arrivals(), 0);
    runner.set_tracer(&tracers[i]);
    runs[i] = runner.model_run(6, timeline, policy);
  }
  expect_same_run(runs[0], runs[1]);

  // Byte-identical simulated timelines, span for span.
  ASSERT_EQ(tracers[0].spans().size(), tracers[1].spans().size());
  ASSERT_EQ(tracers[0].instants().size(), tracers[1].instants().size());
  EXPECT_EQ(tracers[0].now(), tracers[1].now());
  for (std::size_t s = 0; s < tracers[0].spans().size(); ++s) {
    const obs::Span& a = tracers[0].spans()[s];
    const obs::Span& b = tracers[1].spans()[s];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.start, b.start);
    EXPECT_EQ(a.end, b.end);
  }
  // The run trace contains the checkpoint machinery.
  bool saw_write = false, saw_read = false, saw_lost = false;
  for (const obs::Span& s : tracers[0].spans()) {
    saw_write = saw_write || s.name == "ckpt.write";
    saw_read = saw_read || s.name == "ckpt.read";
    saw_lost = saw_lost || s.name == "ckpt.lost_work";
  }
  EXPECT_TRUE(saw_write);
  EXPECT_TRUE(saw_lost);
  EXPECT_EQ(saw_read, runs[0].checkpoints_read > 0);
}

TEST(ModelRunTest, UntracedRunMatchesTracedRun) {
  // A traced run prices every checkpoint write, restart read and frame; an
  // untraced one may reuse what it already priced. Arrivals strike frame 0
  // (nothing to restart from), frame 2 (after two checkpoints at interval
  // 1, before any at interval 3), and frames 6 and 7 back to back (after
  // two checkpoints at interval 3). The one at 6 carries an empty plan, so
  // its frame renders fault-free right after a restart read.
  constexpr std::int64_t kFrames = 9;
  fault::FaultPlan damage;
  damage.fail_node(1);
  fault::FaultTimeline timeline;
  timeline.add(fault::FaultArrival{0, 0.5, damage});
  timeline.add(fault::FaultArrival{2, 0.25, damage});
  timeline.add(fault::FaultArrival{6, 0.75, fault::FaultPlan{}});
  timeline.add(fault::FaultArrival{7, 0.5, damage});

  for (const auto mode :
       {runtime::RuntimeMode::kBsp, runtime::RuntimeMode::kAsync}) {
    for (const std::int64_t interval : {1, 3}) {
      SCOPED_TRACE(std::string(mode == runtime::RuntimeMode::kBsp
                                   ? "bsp"
                                   : "async") +
                   " interval " + std::to_string(interval));
      core::ExperimentConfig cfg = run_config();
      cfg.runtime_mode = mode;
      ckpt::CheckpointPolicy policy;
      policy.interval_frames = interval;
      policy.persist_image = true;

      core::ParallelVolumeRenderer untraced(cfg);
      const core::RunStats run = untraced.model_run(kFrames, timeline, policy);
      obs::Tracer tracer;
      core::ParallelVolumeRenderer traced(cfg);
      traced.set_tracer(&tracer);
      const core::RunStats want = traced.model_run(kFrames, timeline, policy);
      expect_same_run(run, want);
      EXPECT_EQ(run.faults_struck, 4);
      EXPECT_GT(run.checkpoints_read, 0);

      std::int64_t frames = 0, writes = 0, reads = 0;
      for (const obs::Span& span : tracer.spans()) {
        frames += span.name == "frame" ? 1 : 0;
        writes += span.name == "ckpt.write" ? 1 : 0;
        reads += span.name == "ckpt.read" ? 1 : 0;
      }
      EXPECT_EQ(frames, kFrames);
      EXPECT_EQ(writes, want.checkpoints_written);
      EXPECT_EQ(reads, want.checkpoints_read);

      // Whatever either run reused, each frame read what its arrival's
      // plan left readable.
      core::ParallelVolumeRenderer fresh(cfg);
      const iolib::ReadResult healthy_read = fresh.model_frame().io;
      const iolib::ReadResult damaged_read =
          fresh.model_frame_with_faults(damage).io;
      for (std::int64_t f = 0; f < kFrames; ++f) {
        const fault::FaultArrival* arrival = timeline.arrival_at(f);
        const bool damaged = arrival != nullptr && !arrival->plan.empty();
        SCOPED_TRACE("frame " + std::to_string(f));
        expect_same_read(run.frames[std::size_t(f)].io,
                         damaged ? damaged_read : healthy_read);
      }
    }
  }
}

TEST(ModelRunTest, ThroughputDegradesMonotonicallyPastTheOptimum) {
  // A single arrival at the last frame of a 48-frame run: with interval k
  // (k | 48), the last checkpoint precedes the arrival by k-1 frames, so
  // lost work grows linearly in k while checkpoint cost shrinks as 48/k —
  // exactly the Young/Daly trade-off. Past the best interval, effective
  // throughput must fall monotonically.
  fault::FaultTimeline timeline;
  fault::FaultPlan damage;
  damage.fail_node(1);
  timeline.add(fault::FaultArrival{47, 0.5, damage});

  const std::vector<std::int64_t> intervals = {2, 4, 6, 8, 12, 16, 24};
  std::vector<double> fps;
  core::ParallelVolumeRenderer runner(run_config());
  for (const std::int64_t k : intervals) {
    ckpt::CheckpointPolicy policy;
    policy.interval_frames = k;
    const core::RunStats run = runner.model_run(48, timeline, policy);
    EXPECT_LT(run.effective_fps(), run.ideal_fps());
    fps.push_back(run.effective_fps());
  }
  std::size_t best = 0;
  for (std::size_t i = 1; i < fps.size(); ++i) {
    if (fps[i] > fps[best]) best = i;
  }
  for (std::size_t i = best + 1; i < fps.size(); ++i) {
    EXPECT_LT(fps[i], fps[i - 1])
        << "interval " << intervals[i] << " should be slower than "
        << intervals[i - 1];
  }
}

// --- Young/Daly ------------------------------------------------------------

TEST(YoungDalyTest, OptimalIntervalMinimizesExpectedOverhead) {
  const double C = 10.0, mtbf = 1000.0;
  const double opt = ckpt::optimal_interval(C, mtbf);
  EXPECT_NEAR(opt, std::sqrt(2.0 * C * mtbf), 1e-12);
  // Brute-force sweep: no interval beats the analytic optimum.
  const double at_opt = ckpt::expected_overhead(opt, C, mtbf);
  for (double t = opt / 8.0; t <= opt * 8.0; t *= 1.1) {
    EXPECT_GE(ckpt::expected_overhead(t, C, mtbf), at_opt);
  }
  EXPECT_EQ(ckpt::optimal_interval_frames(C, mtbf, /*frame_seconds=*/30.0),
            5);  // 141.4s / 30s rounds to 5 frames
  EXPECT_EQ(ckpt::optimal_interval_frames(C, mtbf, 1e6), 1);  // clamped
  EXPECT_THROW(ckpt::optimal_interval(C, 0.0), Error);
  EXPECT_THROW(ckpt::expected_overhead(0.0, C, mtbf), Error);
}

}  // namespace
}  // namespace pvr
