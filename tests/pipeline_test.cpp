// End-to-end pipeline tests: execute-mode frames against serial references
// for every storage format, model-mode frame statistics, and configuration
// validation.
#include <unistd.h>
#include <gtest/gtest.h>

#include <filesystem>

#include "core/pipeline.hpp"
#include "data/writers.hpp"

namespace pvr::core {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir()
      : path_(fs::temp_directory_path() /
              ("pvr_pipeline_test_" + std::to_string(::getpid()))) {
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  fs::path path_;
};

ExperimentConfig small_config(format::FileFormat fmt, std::int64_t ranks) {
  ExperimentConfig cfg;
  cfg.num_ranks = ranks;
  cfg.dataset = format::supernova_desc(fmt, 24);
  cfg.variable = cfg.dataset.variables.front();
  cfg.image_width = 48;
  cfg.image_height = 48;
  cfg.render.step_voxels = 1.0;
  cfg.render.early_termination = 1.0;
  cfg.composite.policy = compose::CompositorPolicy::kOriginal;
  return cfg;
}

Image serial_reference(const ExperimentConfig& cfg) {
  Brick whole(Box3i{{0, 0, 0}, cfg.dataset.dims});
  data::SupernovaField(1530).fill_brick(
      data::variable_from_name(cfg.variable), cfg.dataset.dims, &whole);
  const render::Raycaster rc(cfg.dataset.dims, cfg.render);
  const render::Camera cam = render::Camera::default_view(
      cfg.dataset.dims, cfg.image_width, cfg.image_height);
  return rc.render_full(whole, cam,
                        render::TransferFunction::supernova());
}

class ExecuteFrameFormats
    : public ::testing::TestWithParam<format::FileFormat> {};

TEST_P(ExecuteFrameFormats, FullPipelineMatchesSerialRendering) {
  TempDir dir;
  const ExperimentConfig cfg = small_config(GetParam(), 8);
  const std::string path = dir.file("vol.dat");
  data::write_supernova_file(cfg.dataset, path, 1530);

  ParallelVolumeRenderer pvr(cfg);
  Image out;
  const FrameStats stats = pvr.execute_frame(path, &out);

  const Image reference = serial_reference(cfg);
  EXPECT_LT(out.max_difference(reference), 2e-3f)
      << "format " << format_name(GetParam());

  EXPECT_GT(stats.io_seconds, 0.0);
  EXPECT_GT(stats.render_seconds, 0.0);
  EXPECT_GT(stats.composite_seconds, 0.0);
  EXPECT_GT(stats.render.total_samples, 0);
  EXPECT_NEAR(stats.pct_io() + stats.pct_render() + stats.pct_composite(),
              100.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(AllFormats, ExecuteFrameFormats,
                         ::testing::Values(format::FileFormat::kRaw,
                                           format::FileFormat::kNetcdfRecord,
                                           format::FileFormat::kNetcdf64,
                                           format::FileFormat::kShdf));

TEST(ExecuteFrameTest, NonPowerOfTwoRanks) {
  TempDir dir;
  const ExperimentConfig cfg = small_config(format::FileFormat::kRaw, 12);
  const std::string path = dir.file("vol.raw");
  data::write_supernova_file(cfg.dataset, path, 1530);
  ParallelVolumeRenderer pvr(cfg);
  Image out;
  pvr.execute_frame(path, &out);
  EXPECT_LT(out.max_difference(serial_reference(cfg)), 2e-3f);
}

TEST(ExecuteFrameTest, ImprovedPolicySameImage) {
  TempDir dir;
  ExperimentConfig cfg = small_config(format::FileFormat::kRaw, 27);
  cfg.composite.policy = compose::CompositorPolicy::kFixed;
  cfg.composite.fixed_compositors = 3;
  const std::string path = dir.file("vol.raw");
  data::write_supernova_file(cfg.dataset, path, 1530);
  ParallelVolumeRenderer pvr(cfg);
  Image out;
  const FrameStats stats = pvr.execute_frame(path, &out);
  EXPECT_EQ(stats.composite.num_compositors, 3);
  EXPECT_LT(out.max_difference(serial_reference(cfg)), 2e-3f);
}

TEST(ExecuteFrameTest, ConfiguredCompositorMatchesModelFrame) {
  // Execute frames composite with the configured algorithm: their composite
  // stats equal the model frame's bit for bit, and every algorithm's image
  // matches direct-send's.
  TempDir dir;
  ExperimentConfig cfg = small_config(format::FileFormat::kRaw, 8);
  const std::string path = dir.file("vol.raw");
  data::write_supernova_file(cfg.dataset, path, 1530);
  struct Compositor {
    compose::CompositeAlgorithm algorithm;
    int radix;
  };
  const Compositor compositors[] = {
      {compose::CompositeAlgorithm::kDirectSend, 8},
      {compose::CompositeAlgorithm::kRadixK, 2},  // binary swap
      {compose::CompositeAlgorithm::kRadixK, 4}};
  Image direct_send;
  for (const auto [algorithm, radix] : compositors) {
    cfg.composite.algorithm = algorithm;
    cfg.composite.radix = radix;
    ParallelVolumeRenderer pvr(cfg);
    Image out;
    const compose::CompositeStats executed =
        pvr.execute_frame(path, &out).composite;
    const compose::CompositeStats modeled = pvr.model_frame().composite;
    SCOPED_TRACE("algorithm " + std::to_string(int(algorithm)) + " radix " +
                 std::to_string(radix));
    EXPECT_EQ(executed.messages, modeled.messages);
    EXPECT_EQ(executed.bytes, modeled.bytes);
    EXPECT_EQ(executed.num_compositors, modeled.num_compositors);
    EXPECT_EQ(executed.seconds, modeled.seconds);
    EXPECT_EQ(executed.blend_seconds, modeled.blend_seconds);
    const net::ExchangeCost& ex = executed.exchange;
    const net::ExchangeCost& mx = modeled.exchange;
    EXPECT_EQ(ex.seconds, mx.seconds);
    EXPECT_EQ(ex.messages, mx.messages);
    EXPECT_EQ(ex.local_messages, mx.local_messages);
    EXPECT_EQ(ex.total_bytes, mx.total_bytes);
    EXPECT_EQ(ex.max_hops, mx.max_hops);
    EXPECT_EQ(ex.congestion_factor, mx.congestion_factor);
    EXPECT_EQ(ex.link_seconds, mx.link_seconds);
    EXPECT_EQ(ex.endpoint_seconds, mx.endpoint_seconds);
    EXPECT_EQ(ex.latency_seconds, mx.latency_seconds);
    EXPECT_EQ(ex.skew_seconds, mx.skew_seconds);
    EXPECT_EQ(ex.retry_seconds, mx.retry_seconds);
    EXPECT_EQ(ex.bottleneck_link, mx.bottleneck_link);
    EXPECT_EQ(ex.bottleneck_node, mx.bottleneck_node);
    if (algorithm == compose::CompositeAlgorithm::kDirectSend) {
      direct_send = out;
    } else {
      EXPECT_LT(out.max_difference(direct_send), 1e-3f);
    }
  }
}

TEST(ModelFrameTest, PaperScaleRunsAndIsConsistent) {
  ExperimentConfig cfg;
  cfg.num_ranks = 4096;
  cfg.dataset = format::supernova_desc(format::FileFormat::kRaw, 1120);
  cfg.image_width = cfg.image_height = 1600;
  ParallelVolumeRenderer pvr(cfg);
  const FrameStats stats = pvr.model_frame();
  EXPECT_GT(stats.io_seconds, 0.0);
  EXPECT_GT(stats.render_seconds, 0.0);
  EXPECT_GT(stats.composite_seconds, 0.0);
  // Useful bytes ~ 5.3 GB plus ghost overlap.
  EXPECT_GT(double(stats.io.useful_bytes), 5.6e9);
  EXPECT_LT(double(stats.io.useful_bytes), 6.5e9);
  EXPECT_GT(stats.read_bandwidth(), 0.0);
}

TEST(ModelFrameTest, MoreRanksRenderFaster) {
  ExperimentConfig small;
  small.num_ranks = 64;
  small.dataset = format::supernova_desc(format::FileFormat::kRaw, 1120);
  ExperimentConfig large = small;
  large.num_ranks = 8192;
  const double t_small =
      ParallelVolumeRenderer(small).model_render().seconds;
  const double t_large =
      ParallelVolumeRenderer(large).model_render().seconds;
  EXPECT_GT(t_small, 50.0 * t_large);
}

TEST(ModelFrameTest, BinarySwapModelRuns) {
  ExperimentConfig cfg;
  cfg.num_ranks = 1024;
  cfg.dataset = format::supernova_desc(format::FileFormat::kRaw, 256);
  ParallelVolumeRenderer pvr(cfg);
  const auto bs = pvr.model_radix_k(2);  // binary swap
  EXPECT_EQ(bs.messages, 1024 * 10);     // n log2 n
  EXPECT_GT(bs.seconds, 0.0);
}

TEST(ConfigTest, InvalidConfigsThrow) {
  ExperimentConfig cfg = small_config(format::FileFormat::kRaw, 0);
  EXPECT_THROW(ParallelVolumeRenderer{cfg}, Error);
  ExperimentConfig cfg2 = small_config(format::FileFormat::kRaw, 4);
  cfg2.variable = "nope";
  EXPECT_THROW(ParallelVolumeRenderer{cfg2}, Error);
  ExperimentConfig cfg3 = small_config(format::FileFormat::kRaw, 4);
  cfg3.camera = render::Camera::default_view(cfg3.dataset.dims, 10, 10);
  EXPECT_THROW(ParallelVolumeRenderer{cfg3}, Error);  // size mismatch
}

TEST(ConfigTest, BlocksCoverVolumeWithGhost) {
  const ExperimentConfig cfg = small_config(format::FileFormat::kRaw, 8);
  ParallelVolumeRenderer pvr(cfg);
  const auto blocks = pvr.io_blocks();
  ASSERT_EQ(blocks.size(), 8u);
  for (const auto& b : blocks) {
    EXPECT_FALSE(b.box.empty());
  }
  const auto infos = pvr.screen_blocks();
  ASSERT_EQ(infos.size(), 8u);
}

}  // namespace
}  // namespace pvr::core
