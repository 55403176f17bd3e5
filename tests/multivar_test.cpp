// Tests for multivariate reads and bivariate rendering.
#include <unistd.h>
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>

#include "core/pipeline.hpp"
#include "data/writers.hpp"
#include "iolib/collective_read.hpp"
#include "obs/trace.hpp"
#include "render/decomposition.hpp"

namespace pvr {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir()
      : path_(fs::temp_directory_path() /
              ("pvr_multivar_test_" + std::to_string(::getpid()))) {
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  fs::path path_;
};

/// Bitwise image equality (signs of zero and NaN payloads included).
void expect_same_pixels(const Image& a, const Image& b) {
  ASSERT_EQ(a.width(), b.width());
  ASSERT_EQ(a.height(), b.height());
  EXPECT_EQ(std::memcmp(a.pixels().data(), b.pixels().data(),
                        a.pixels().size() * sizeof(Rgba)),
            0);
}

TEST(MultivarReadTest, TwoVariablesMatchGroundTruth) {
  TempDir dir;
  const auto desc =
      format::supernova_desc(format::FileFormat::kNetcdfRecord, 16);
  const std::string path = dir.file("vol.nc");
  data::write_supernova_file(desc, path, 1530);

  machine::Partition part(machine::MachineConfig{}, 8);
  runtime::Runtime rt(part, runtime::Mode::kExecute);
  storage::StorageModel sm(part, machine::StorageConfig{});
  const format::VolumeLayout layout(desc);

  render::Decomposition decomp(desc.dims, 8);
  std::vector<iolib::RankBlock> blocks;
  std::vector<Brick> bricks;
  for (std::int64_t b = 0; b < 8; ++b) {
    blocks.push_back(iolib::RankBlock{b, decomp.ghost_box(b, 1)});
    bricks.push_back(Brick(blocks.back().box));  // var 0 of block b
    bricks.push_back(Brick(blocks.back().box));  // var 1 of block b
  }
  const int vars[] = {desc.variable_index("pressure"),
                      desc.variable_index("vz")};
  format::DiskFile file(path, format::DiskFile::OpenMode::kRead);
  iolib::CollectiveReader reader(rt, sm, iolib::Hints::untuned());
  const auto result = reader.read_vars(layout, vars, blocks, &file, bricks);
  std::int64_t expected_useful = 0;
  for (const auto& b : blocks) expected_useful += b.box.volume() * 4 * 2;
  EXPECT_EQ(result.useful_bytes, expected_useful);

  Brick truth_p, truth_vz;
  data::read_variable(layout, vars[0], file, &truth_p);
  data::read_variable(layout, vars[1], file, &truth_vz);
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const Box3i& box = blocks[b].box;
    for (std::int64_t z = box.lo.z; z < box.hi.z; ++z) {
      for (std::int64_t y = box.lo.y; y < box.hi.y; ++y) {
        for (std::int64_t x = box.lo.x; x < box.hi.x; ++x) {
          ASSERT_EQ(bricks[b * 2].at(x, y, z), truth_p.at(x, y, z));
          ASSERT_EQ(bricks[b * 2 + 1].at(x, y, z), truth_vz.at(x, y, z));
        }
      }
    }
  }
}

TEST(MultivarReadTest, RecordFormatDensityAmortizes) {
  // Reading more variables from the record-interleaved file raises the data
  // density: the physical bytes barely grow while useful bytes multiply —
  // the paper's argument for reading netCDF directly.
  core::ExperimentConfig cfg;
  cfg.num_ranks = 512;
  cfg.dataset =
      format::supernova_desc(format::FileFormat::kNetcdfRecord, 256);
  cfg.image_width = cfg.image_height = 256;
  core::ParallelVolumeRenderer renderer(cfg);

  const auto one = renderer.model_io_vars({"pressure"});
  const auto three = renderer.model_io_vars({"pressure", "density", "vx"});
  const auto five =
      renderer.model_io_vars({"pressure", "density", "vx", "vy", "vz"});
  EXPECT_NEAR(double(three.useful_bytes), 3.0 * double(one.useful_bytes),
              double(one.useful_bytes) * 0.01);
  EXPECT_GT(three.data_density(), one.data_density());
  EXPECT_GT(five.data_density(), three.data_density());
  // Physical bytes grow far slower than useful bytes.
  EXPECT_LT(double(five.physical_bytes), 2.0 * double(one.physical_bytes));
  // And time per useful byte improves.
  EXPECT_LT(five.seconds / 5.0, one.seconds);
}

TEST(BivariateTfTest, ColorFromAOpacityFromB) {
  const render::BivariateTransferFunction tf(
      render::TransferFunction::supernova(),
      render::TransferFunction::grayscale_ramp(0.8f));
  // Zero opacity-variable: transparent regardless of color variable.
  EXPECT_FLOAT_EQ(tf.sample(0.9f, 0.0f).a, 0.0f);
  // Opacity follows the second argument only.
  const Rgba lo = tf.sample(0.5f, 0.25f);
  const Rgba hi = tf.sample(0.5f, 1.0f);
  EXPECT_LT(lo.a, hi.a);
  // Hue follows the first argument: different color values, same alpha.
  const Rgba a = tf.sample(0.3f, 0.5f);
  const Rgba b = tf.sample(0.9f, 0.5f);
  EXPECT_FLOAT_EQ(a.a, b.a);
  EXPECT_GT(max_channel_diff(a, b), 0.01f);
}

TEST(BivariateTfTest, DegeneratesToUnivariate) {
  // Same variable for color and opacity == the univariate transfer
  // function, sample for sample.
  const render::TransferFunction uni = render::TransferFunction::supernova();
  const render::BivariateTransferFunction bi(uni, uni);
  for (float v = 0.0f; v <= 1.0f; v += 0.1f) {
    EXPECT_NEAR(max_channel_diff(bi.sample(v, v, 0.7f), uni.sample(v, 0.7f)),
                0.0f, 1e-6f);
  }
}

TEST(BivariateRenderTest, SameBrickMatchesUnivariateRender) {
  const Vec3i dims{20, 20, 20};
  Brick whole(Box3i{{0, 0, 0}, dims});
  data::SupernovaField(4).fill_brick(data::Variable::kPressure, dims,
                                     &whole);
  render::RenderConfig cfg;
  cfg.early_termination = 1.0;
  const render::Raycaster rc(dims, cfg);
  const render::Camera cam = render::Camera::default_view(dims, 40, 40);
  const render::TransferFunction uni = render::TransferFunction::supernova();

  const render::SubImage a =
      rc.render_block(whole, Box3i{{0, 0, 0}, dims}, cam, uni);
  const render::SubImage b =
      rc.render_block(whole, whole, Box3i{{0, 0, 0}, dims}, cam,
                      render::BivariateTransferFunction(uni, uni));
  ASSERT_EQ(a.rect, b.rect);
  ASSERT_EQ(a.samples, b.samples);
  ASSERT_EQ(a.pixels.size(), b.pixels.size());
  EXPECT_EQ(std::memcmp(a.pixels.data(), b.pixels.data(),
                        a.pixels.size() * sizeof(Rgba)),
            0);
}

TEST(BivariateFrameTest, EndToEndRendersAndMatchesSerial) {
  TempDir dir;
  core::ExperimentConfig cfg;
  cfg.num_ranks = 8;
  cfg.dataset = format::supernova_desc(format::FileFormat::kNetcdfRecord, 20);
  cfg.variable = "pressure";  // color variable
  cfg.image_width = cfg.image_height = 40;
  cfg.render.early_termination = 1.0;
  const std::string path = dir.file("vol.nc");
  data::write_supernova_file(cfg.dataset, path, 1530);

  const auto tf = render::BivariateTransferFunction::supernova_bivariate();
  core::ParallelVolumeRenderer renderer(cfg);
  Image out;
  const core::FrameStats stats =
      renderer.execute_frame_bivariate(path, "density", tf, &out);
  EXPECT_GT(stats.render.total_samples, 0);

  // Serial bivariate reference.
  Brick color(Box3i{{0, 0, 0}, cfg.dataset.dims});
  Brick opacity(Box3i{{0, 0, 0}, cfg.dataset.dims});
  const data::SupernovaField field(1530);
  field.fill_brick(data::Variable::kPressure, cfg.dataset.dims, &color);
  field.fill_brick(data::Variable::kDensity, cfg.dataset.dims, &opacity);
  const render::Raycaster rc(cfg.dataset.dims, cfg.render);
  const render::SubImage serial =
      rc.render_block(color, opacity, Box3i{{0, 0, 0}, cfg.dataset.dims},
                      renderer.camera(), tf);
  Image reference(cfg.image_width, cfg.image_height);
  if (!serial.rect.empty()) reference.insert(serial.rect, serial.pixels);
  EXPECT_LT(out.max_difference(reference), 2e-3f);
}

/// A bivariate scene: a grid^3 netCDF record file on 8 ranks, colour from
/// pressure, with the file written to `path`.
core::ExperimentConfig bivariate_config(const std::string& path,
                                        std::int64_t grid = 24) {
  core::ExperimentConfig cfg;
  cfg.num_ranks = 8;
  cfg.dataset =
      format::supernova_desc(format::FileFormat::kNetcdfRecord, grid);
  cfg.variable = "pressure";
  cfg.image_width = cfg.image_height = 64;
  data::write_supernova_file(cfg.dataset, path, 1530);
  return cfg;
}

TEST(BivariateFrameTest, StealingPricesAndStitchesAsUnivariateFrames) {
  // A bivariate frame steals row bands as a univariate frame does: the
  // same schedule, priced the same, and the stitched image is the
  // unstolen one bit for bit.
  TempDir dir;
  const std::string path = dir.file("vol.nc");
  core::ExperimentConfig cfg = bivariate_config(path);
  const auto tf = render::BivariateTransferFunction::supernova_bivariate();
  Image off_img;
  const core::FrameStats off =
      core::ParallelVolumeRenderer(cfg).execute_frame_bivariate(
          path, "density", tf, &off_img);

  cfg.steal.policy = steal::StealPolicy::kScanlineChunks;
  cfg.steal.chunks_per_block = 8;
  Image bi_img;
  const core::FrameStats bi =
      core::ParallelVolumeRenderer(cfg).execute_frame_bivariate(
          path, "density", tf, &bi_img);
  const core::FrameStats uni =
      core::ParallelVolumeRenderer(cfg).execute_frame(path, nullptr);

  ASSERT_GT(uni.steal.chunks_stolen, 0);
  EXPECT_EQ(bi.steal.policy, uni.steal.policy);
  EXPECT_EQ(bi.steal.chunks_stolen, uni.steal.chunks_stolen);
  EXPECT_EQ(bi.steal.bytes_replicated, uni.steal.bytes_replicated);
  EXPECT_EQ(bi.steal.steal_seconds, uni.steal.steal_seconds);
  EXPECT_EQ(bi.steal.straggler_before, uni.steal.straggler_before);
  EXPECT_EQ(bi.steal.straggler_after, uni.steal.straggler_after);
  EXPECT_EQ(bi.render_seconds, bi.render.seconds + bi.steal.steal_seconds);
  expect_same_pixels(bi_img, off_img);
  EXPECT_EQ(bi.render.total_samples, off.render.total_samples);
  EXPECT_LE(bi.render.max_rank_samples, off.render.max_rank_samples);
}

TEST(BivariateFrameTest, ReplicationShipsBothBricks) {
  // A bivariate block holds a colour and an opacity brick, so a thief that
  // replicates it receives both: the univariate frame's claims, at twice
  // its replicated bytes, priced as the larger messages they are. The
  // stitched image is still the unstolen one bit for bit.
  TempDir dir;
  const std::string path = dir.file("vol.nc");
  core::ExperimentConfig cfg = bivariate_config(path, 32);
  const auto tf = render::BivariateTransferFunction::supernova_bivariate();
  Image off_img;
  core::ParallelVolumeRenderer(cfg).execute_frame_bivariate(path, "density",
                                                            tf, &off_img);

  cfg.steal.policy = steal::StealPolicy::kReplicateBlocks;
  cfg.steal.chunks_per_block = 8;
  Image bi_img;
  const core::FrameStats bi =
      core::ParallelVolumeRenderer(cfg).execute_frame_bivariate(
          path, "density", tf, &bi_img);
  const core::FrameStats uni =
      core::ParallelVolumeRenderer(cfg).execute_frame(path, nullptr);

  ASSERT_GT(uni.steal.bytes_replicated, 0);
  EXPECT_EQ(bi.steal.bytes_replicated, 2 * uni.steal.bytes_replicated);
  EXPECT_EQ(bi.steal.chunks_stolen, uni.steal.chunks_stolen);
  EXPECT_GT(bi.steal.steal_seconds, uni.steal.steal_seconds);
  expect_same_pixels(bi_img, off_img);
}

TEST(BivariateFrameTest, TracedFrameRecordsTheKernelSpan) {
  // The render stage of a traced bivariate frame carries the render.kernel
  // span, and its span covers the stage time (to the clock's rounding, as
  // obs_test holds univariate frames to), as in a univariate frame.
  TempDir dir;
  const std::string path = dir.file("vol.nc");
  const core::ExperimentConfig cfg = bivariate_config(path);
  core::ParallelVolumeRenderer renderer(cfg);
  obs::Tracer tracer;
  renderer.set_tracer(&tracer);
  const core::FrameStats stats = renderer.execute_frame_bivariate(
      path, "density",
      render::BivariateTransferFunction::supernova_bivariate(), nullptr);
  int kernels = 0;
  for (const obs::Span& s : tracer.spans()) {
    if (s.name != "render.kernel") continue;
    ++kernels;
    EXPECT_EQ(s.cat, obs::Category::kCompute);
    EXPECT_GT(s.seconds(), 0.0);
  }
  EXPECT_EQ(kernels, 1);
  ASSERT_TRUE(stats.trace.enabled);
  EXPECT_NEAR(stats.trace.render_seconds, stats.render_seconds, 1e-9);
}

TEST(BivariateFrameTest, ImageIsBitIdenticalAcrossHostThreads) {
  TempDir dir;
  const std::string path = dir.file("vol.nc");
  core::ExperimentConfig cfg = bivariate_config(path);
  const auto tf = render::BivariateTransferFunction::supernova_bivariate();
  Image images[2];
  core::FrameStats stats[2];
  for (const int threads : {1, 4}) {
    cfg.host_threads = threads;
    const int i = threads == 1 ? 0 : 1;
    stats[i] = core::ParallelVolumeRenderer(cfg).execute_frame_bivariate(
        path, "density", tf, &images[i]);
  }
  expect_same_pixels(images[0], images[1]);
  EXPECT_GT(stats[0].render.total_samples, 0);
  EXPECT_EQ(stats[0].render.total_samples, stats[1].render.total_samples);
  EXPECT_EQ(stats[0].render.max_rank_samples,
            stats[1].render.max_rank_samples);
  EXPECT_EQ(stats[0].render_seconds, stats[1].render_seconds);
}

}  // namespace
}  // namespace pvr
