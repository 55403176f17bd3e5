// Tests for the in-situ pipeline variant and blocks-per-rank decomposition.
#include <unistd.h>
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>

#include "core/pipeline.hpp"
#include "data/writers.hpp"

namespace pvr::core {
namespace {

namespace fs = std::filesystem;

ExperimentConfig small_config(std::int64_t ranks, int blocks_per_rank = 1) {
  ExperimentConfig cfg;
  cfg.num_ranks = ranks;
  cfg.dataset = format::supernova_desc(format::FileFormat::kRaw, 24);
  cfg.variable = "pressure";
  cfg.image_width = cfg.image_height = 48;
  cfg.render.early_termination = 1.0;
  cfg.composite.policy = compose::CompositorPolicy::kOriginal;
  cfg.blocks_per_rank = blocks_per_rank;
  return cfg;
}

TEST(InsituTest, ExecuteInsituMatchesPosthocImage) {
  const fs::path dir =
      fs::temp_directory_path() /
      ("pvr_insitu_test_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const std::string path = (dir / "vol.raw").string();

  const ExperimentConfig cfg = small_config(8);
  data::write_supernova_file(cfg.dataset, path, 1530);

  ParallelVolumeRenderer posthoc(cfg);
  Image from_disk;
  const FrameStats pf = posthoc.execute_frame(path, &from_disk);

  ParallelVolumeRenderer insitu(cfg);
  Image from_memory;
  const data::SupernovaField field(1530);
  const FrameStats sf = insitu.execute_insitu_frame(field, &from_memory);

  // Identical data, identical rays: bit-identical images.
  EXPECT_FLOAT_EQ(from_disk.max_difference(from_memory), 0.0f);
  EXPECT_GT(pf.io_seconds, 0.0);
  EXPECT_DOUBLE_EQ(sf.io_seconds, 0.0);
  EXPECT_EQ(sf.render.total_samples, pf.render.total_samples);
  fs::remove_all(dir);
}

TEST(InsituTest, ImageIsByteIdenticalAcrossHostThreads) {
  // The bricks fill on the host pool, whole bricks per chunk, so neither
  // the voxels nor the frame may depend on the thread count.
  ExperimentConfig cfg = small_config(8, 2);
  const data::SupernovaField field(77);
  FrameStats stats[2];
  Image images[2];
  for (const int threads : {1, 4}) {
    cfg.host_threads = threads;
    ParallelVolumeRenderer renderer(cfg);
    const int i = threads == 1 ? 0 : 1;
    stats[i] = renderer.execute_insitu_frame(field, &images[i]);
  }
  ASSERT_EQ(images[0].pixels().size(), images[1].pixels().size());
  EXPECT_EQ(std::memcmp(images[0].pixels().data(), images[1].pixels().data(),
                        images[0].pixels().size_bytes()),
            0);
  EXPECT_GT(stats[0].render.total_samples, 0);
  EXPECT_EQ(stats[0].render.total_samples, stats[1].render.total_samples);
  EXPECT_EQ(stats[0].render.max_rank_samples,
            stats[1].render.max_rank_samples);
  EXPECT_EQ(stats[0].total_seconds(), stats[1].total_seconds());
}

TEST(InsituTest, ModelInsituDropsExactlyTheIoStage) {
  ExperimentConfig cfg;
  cfg.num_ranks = 4096;
  cfg.dataset = format::supernova_desc(format::FileFormat::kRaw, 1120);
  cfg.image_width = cfg.image_height = 1600;
  ParallelVolumeRenderer renderer(cfg);
  const FrameStats posthoc = renderer.model_frame();
  const FrameStats insitu = renderer.model_insitu_frame();
  EXPECT_DOUBLE_EQ(insitu.io_seconds, 0.0);
  EXPECT_NEAR(posthoc.total_seconds() - insitu.total_seconds(),
              posthoc.io_seconds, 1e-9);
}

class BlocksPerRank : public ::testing::TestWithParam<int> {};

TEST_P(BlocksPerRank, ExecuteFrameStillMatchesSerialReference) {
  const int bpr = GetParam();
  const fs::path dir =
      fs::temp_directory_path() /
      ("pvr_bpr_test_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const std::string path = (dir / "vol.raw").string();

  const ExperimentConfig cfg = small_config(4, bpr);
  data::write_supernova_file(cfg.dataset, path, 1530);

  ParallelVolumeRenderer renderer(cfg);
  EXPECT_EQ(renderer.decomposition().num_blocks(), 4 * bpr);
  Image out;
  renderer.execute_frame(path, &out);

  // Serial reference.
  Brick whole(Box3i{{0, 0, 0}, cfg.dataset.dims});
  data::SupernovaField(1530).fill_brick(data::Variable::kPressure,
                                        cfg.dataset.dims, &whole);
  const render::Raycaster rc(cfg.dataset.dims, cfg.render);
  const render::Camera cam = render::Camera::default_view(
      cfg.dataset.dims, cfg.image_width, cfg.image_height);
  const Image reference =
      rc.render_full(whole, cam, render::TransferFunction::supernova());
  EXPECT_LT(out.max_difference(reference), 2e-3f) << "bpr=" << bpr;
  fs::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Sweep, BlocksPerRank, ::testing::Values(1, 2, 4, 6));

TEST(BlocksPerRankTest, RoundRobinSpreadsBlocks) {
  ExperimentConfig cfg = small_config(4, 4);
  ParallelVolumeRenderer renderer(cfg);
  const auto blocks = renderer.io_blocks();
  ASSERT_EQ(blocks.size(), 16u);
  // Ranks 0..3 each own 4 blocks, interleaved.
  std::int64_t per_rank[4] = {0, 0, 0, 0};
  for (const auto& b : blocks) ++per_rank[b.rank];
  for (int r = 0; r < 4; ++r) EXPECT_EQ(per_rank[r], 4);
}

TEST(BlocksPerRankTest, ImprovesRenderBalanceInModel) {
  ExperimentConfig one = small_config(16, 1);
  one.dataset = format::supernova_desc(format::FileFormat::kRaw, 256);
  one.image_width = one.image_height = 512;
  ExperimentConfig four = one;
  four.blocks_per_rank = 4;

  const auto balance = [](const ExperimentConfig& cfg) {
    ParallelVolumeRenderer renderer(cfg);
    const auto est = renderer.model_render();
    return double(est.max_rank_samples) /
           (double(est.total_samples) / double(cfg.num_ranks));
  };
  EXPECT_LT(balance(four), balance(one));
}

TEST(BlocksPerRankTest, InvalidCountRejected) {
  ExperimentConfig cfg = small_config(4, 0);
  EXPECT_THROW(ParallelVolumeRenderer{cfg}, Error);
}

}  // namespace
}  // namespace pvr::core
