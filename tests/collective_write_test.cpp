// Tests for the two-phase collective writer: byte-exact files for every
// format, read-modify-write hole preservation, and model-mode costs.
#include <unistd.h>
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>

#include "data/writers.hpp"
#include "iolib/collective_read.hpp"
#include "iolib/collective_write.hpp"
#include "render/decomposition.hpp"

namespace pvr::iolib {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir()
      : path_(fs::temp_directory_path() /
              ("pvr_cwrite_test_" + std::to_string(::getpid()))) {
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  fs::path path_;
};

struct Env {
  explicit Env(std::int64_t ranks)
      : partition(machine::MachineConfig{}, ranks),
        execute_rt(partition, runtime::Mode::kExecute),
        model_rt(partition, runtime::Mode::kModel),
        storage(partition, machine::StorageConfig{}) {}
  machine::Partition partition;
  runtime::Runtime execute_rt;
  runtime::Runtime model_rt;
  storage::StorageModel storage;
};

/// Blocks tiling the volume, grown by `ghost` voxels on every side and left
/// unclipped (so with a ghost, edge blocks extend past the volume), plus
/// source bricks filled from the synthetic field for all variables.
void make_write_job(const format::DatasetDesc& desc, std::int64_t ranks,
                    std::uint64_t seed, std::vector<RankBlock>* blocks,
                    std::vector<Brick>* bricks, std::vector<int>* vars,
                    int ghost = 0) {
  render::Decomposition decomp(desc.dims, ranks);
  const data::SupernovaField field(seed);
  const Vec3i g{ghost, ghost, ghost};
  for (int v = 0; v < int(desc.num_variables()); ++v) vars->push_back(v);
  for (std::int64_t b = 0; b < decomp.num_blocks(); ++b) {
    const Box3i own = decomp.block_box(b);
    const Box3i box{own.lo - g, own.hi + g};
    blocks->push_back(RankBlock{b, box});
    for (const int v : *vars) {
      Brick brick(box);
      field.fill_brick(data::variable_from_name(desc.variables[std::size_t(v)]),
                       desc.dims, &brick);
      bricks->push_back(std::move(brick));
    }
  }
}

/// Writes format headers the way the serial writer does.
void write_header(const format::VolumeLayout& layout,
                  format::FileHandle* file) {
  switch (layout.desc().format) {
    case format::FileFormat::kRaw:
      break;
    case format::FileFormat::kNetcdfRecord:
    case format::FileFormat::kNetcdf64:
      file->write_at(0, layout.netcdf_file().encode_header());
      break;
    case format::FileFormat::kShdf:
      file->write_at(0, format::shdf::encode_metadata(layout.shdf_info()));
      break;
  }
}

class CollectiveWriteFormats
    : public ::testing::TestWithParam<format::FileFormat> {};

TEST_P(CollectiveWriteFormats, ProducesTheSameFileAsTheSerialWriter) {
  TempDir dir;
  const format::DatasetDesc desc = format::supernova_desc(GetParam(), 16);
  const format::VolumeLayout layout(desc);

  // Reference file from the serial writer.
  const std::string serial_path = dir.file("serial.dat");
  data::write_supernova_file(desc, serial_path, 1530);

  // Parallel file from the collective writer: tiled blocks, then blocks
  // with an unclipped one-voxel ghost layer, whose edge blocks extend past
  // the volume and whose overlaps write the same values twice.
  const std::string parallel_path = dir.file("parallel.dat");
  Env env(8);
  for (const int ghost : {0, 1}) {
    std::vector<RankBlock> blocks;
    std::vector<Brick> bricks;
    std::vector<int> vars;
    make_write_job(desc, 8, 1530, &blocks, &bricks, &vars, ghost);
    {
      format::DiskFile file(parallel_path,
                            format::DiskFile::OpenMode::kTruncate);
      write_header(layout, &file);
      file.truncate(layout.file_bytes());
      CollectiveWriter writer(env.execute_rt, env.storage, Hints::untuned());
      const ReadResult r =
          writer.write_vars(layout, vars, blocks, &file, bricks);
      EXPECT_GT(r.useful_bytes, 0);
      EXPECT_GT(r.accesses, 0);
    }

    // Byte-for-byte comparison.
    format::DiskFile a(serial_path, format::DiskFile::OpenMode::kRead);
    format::DiskFile b(parallel_path, format::DiskFile::OpenMode::kRead);
    ASSERT_EQ(a.size(), b.size());
    std::vector<std::byte> ba(std::size_t(a.size())),
        bb(std::size_t(b.size()));
    a.read_at(0, ba);
    b.read_at(0, bb);
    EXPECT_TRUE(ba == bb) << "file contents differ for "
                          << format_name(GetParam()) << " with ghost "
                          << ghost;
  }
}

INSTANTIATE_TEST_SUITE_P(AllFormats, CollectiveWriteFormats,
                         ::testing::Values(format::FileFormat::kRaw,
                                           format::FileFormat::kNetcdfRecord,
                                           format::FileFormat::kNetcdf64,
                                           format::FileFormat::kShdf));

TEST(CollectiveWriteTest, IdenticalBoxesKeepTheLaterBlocksBytes) {
  // Blocks 0 and 1 name the same box (past the volume's low faces) with
  // different contents. The plan emits equal file offsets in brick order,
  // so block 1's bytes are copied last in every window and the file keeps
  // them, for every format and variable. One aggregator with 64-byte
  // windows keeps every window boundary on a float boundary.
  TempDir dir;
  Env env(8);
  Hints hints;
  hints.aggregators_per_ion = 1;
  hints.cb_buffer_bytes = 64;
  const Box3i box{{-1, 2, -2}, {7, 9, 5}};
  const std::vector<RankBlock> blocks = {{3, box}, {5, box}};
  for (const format::FileFormat fmt :
       {format::FileFormat::kRaw, format::FileFormat::kNetcdfRecord,
        format::FileFormat::kNetcdf64, format::FileFormat::kShdf}) {
    const format::DatasetDesc desc = format::supernova_desc(fmt, 8);
    const format::VolumeLayout layout(desc);
    std::vector<int> vars;
    for (int v = int(desc.num_variables()) - 1; v >= 0; --v) {
      vars.push_back(v);
    }
    const auto value = [](std::size_t block, int var) {
      return float(10 * block + std::size_t(var) + 1);
    };
    std::vector<Brick> bricks;
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      for (const int v : vars) {
        Brick brick(box);
        std::fill(brick.data().begin(), brick.data().end(), value(b, v));
        bricks.push_back(std::move(brick));
      }
    }
    const std::string path = dir.file("twice.dat");
    {
      format::DiskFile file(path, format::DiskFile::OpenMode::kTruncate);
      write_header(layout, &file);
      file.truncate(layout.file_bytes());
      CollectiveWriter(env.execute_rt, env.storage, hints)
          .write_vars(layout, vars, blocks, &file, bricks);
    }
    format::DiskFile file(path, format::DiskFile::OpenMode::kRead);
    const Box3i inside = box.intersect(Box3i{{0, 0, 0}, desc.dims});
    for (const int v : vars) {
      Brick got;
      data::read_variable(layout, v, file, &got);
      std::int64_t wrong = 0;
      for (std::int64_t z = inside.lo.z; z < inside.hi.z; ++z) {
        for (std::int64_t y = inside.lo.y; y < inside.hi.y; ++y) {
          for (std::int64_t x = inside.lo.x; x < inside.hi.x; ++x) {
            wrong += got.at(x, y, z) != value(1, v);
          }
        }
      }
      EXPECT_EQ(wrong, 0) << format_name(fmt) << " variable " << v;
    }
  }
}

TEST(CollectiveWriteTest, ReadModifyWritePreservesOtherVariables) {
  // Overwrite only variable 0 of an existing record file; the interleaved
  // neighbors must survive (the RMW path).
  TempDir dir;
  const format::DatasetDesc desc =
      format::supernova_desc(format::FileFormat::kNetcdfRecord, 12);
  const format::VolumeLayout layout(desc);
  const std::string path = dir.file("vol.nc");
  data::write_supernova_file(desc, path, 1530);  // old contents

  Env env(4);
  render::Decomposition decomp(desc.dims, 4);
  const data::SupernovaField new_field(777);
  std::vector<RankBlock> blocks;
  std::vector<Brick> bricks;
  for (std::int64_t b = 0; b < 4; ++b) {
    blocks.push_back(RankBlock{b, decomp.block_box(b)});
    Brick brick(decomp.block_box(b));
    new_field.fill_brick(data::Variable::kPressure, desc.dims, &brick);
    bricks.push_back(std::move(brick));
  }
  {
    format::DiskFile file(path, format::DiskFile::OpenMode::kReadWrite);
    CollectiveWriter writer(env.execute_rt, env.storage, Hints::untuned());
    writer.write(layout, 0, blocks, &file, bricks);
  }

  format::DiskFile file(path, format::DiskFile::OpenMode::kRead);
  Brick pressure, density;
  data::read_variable(layout, 0, file, &pressure);
  data::read_variable(layout, 1, file, &density);
  const data::SupernovaField old_field(1530);
  for (std::int64_t z = 0; z < 12; z += 3) {
    for (std::int64_t y = 0; y < 12; y += 2) {
      for (std::int64_t x = 0; x < 12; x += 5) {
        EXPECT_EQ(pressure.at(x, y, z),
                  new_field.at_voxel(data::Variable::kPressure, {x, y, z},
                                     desc.dims));
        EXPECT_EQ(density.at(x, y, z),
                  old_field.at_voxel(data::Variable::kDensity, {x, y, z},
                                     desc.dims));
      }
    }
  }
}

TEST(CollectiveWriteTest, ReadModifyWriteKeepsLiveBytesPastEndOfFile) {
  // A record file that holds only its header grows one variable at a time.
  // Writing variable 1 read-modify-writes spans that straddle the current
  // end of file; the variable-0 bytes already inside them must survive.
  TempDir dir;
  const format::DatasetDesc desc =
      format::supernova_desc(format::FileFormat::kNetcdfRecord, 12);
  const format::VolumeLayout layout(desc);
  const std::string path = dir.file("vol.nc");
  {
    format::DiskFile file(path, format::DiskFile::OpenMode::kTruncate);
    write_header(layout, &file);
  }

  Env env(4);
  render::Decomposition decomp(desc.dims, 4);
  const data::SupernovaField field(1530);
  std::vector<RankBlock> blocks;
  for (std::int64_t b = 0; b < 4; ++b) {
    blocks.push_back(RankBlock{b, decomp.block_box(b)});
  }
  const auto variable = [&](int var) {
    return data::variable_from_name(desc.variables[std::size_t(var)]);
  };
  const auto write = [&](int var) {
    std::vector<Brick> bricks;
    for (const RankBlock& b : blocks) {
      Brick brick(b.box);
      field.fill_brick(variable(var), desc.dims, &brick);
      bricks.push_back(std::move(brick));
    }
    format::DiskFile file(path, format::DiskFile::OpenMode::kReadWrite);
    CollectiveWriter writer(env.execute_rt, env.storage, Hints::untuned());
    writer.write(layout, var, blocks, &file, bricks);
  };
  const auto wrong_voxels = [&](int var) {
    format::DiskFile file(path, format::DiskFile::OpenMode::kRead);
    Brick got;
    data::read_variable(layout, var, file, &got);
    std::int64_t wrong = 0;
    for (std::int64_t z = 0; z < 12; ++z) {
      for (std::int64_t y = 0; y < 12; ++y) {
        for (std::int64_t x = 0; x < 12; ++x) {
          wrong += got.at(x, y, z) !=
                   field.at_voxel(variable(var), {x, y, z}, desc.dims);
        }
      }
    }
    return wrong;
  };

  write(0);
  EXPECT_EQ(wrong_voxels(0), 0);
  write(1);
  EXPECT_EQ(wrong_voxels(0), 0);
  EXPECT_EQ(wrong_voxels(1), 0);
}

TEST(CollectiveWriteTest, RoundTripThroughCollectiveRead) {
  TempDir dir;
  const format::DatasetDesc desc =
      format::supernova_desc(format::FileFormat::kShdf, 20);
  const format::VolumeLayout layout(desc);
  const std::string path = dir.file("vol.shdf");

  Env env(8);
  std::vector<RankBlock> blocks;
  std::vector<Brick> bricks;
  std::vector<int> vars;
  make_write_job(desc, 8, 42, &blocks, &bricks, &vars);
  {
    format::DiskFile file(path, format::DiskFile::OpenMode::kTruncate);
    write_header(layout, &file);
    file.truncate(layout.file_bytes());
    CollectiveWriter writer(env.execute_rt, env.storage, Hints::untuned());
    writer.write_vars(layout, vars, blocks, &file, bricks);
  }
  // Read variable 3 back collectively and compare with the source bricks.
  std::vector<Brick> read_bricks;
  for (const auto& b : blocks) read_bricks.push_back(Brick(b.box));
  format::DiskFile file(path, format::DiskFile::OpenMode::kRead);
  CollectiveReader reader(env.execute_rt, env.storage, Hints::untuned());
  reader.read(layout, 3, blocks, &file, read_bricks);
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const Brick& expect = bricks[b * vars.size() + 3];
    EXPECT_TRUE(read_bricks[b].data() == expect.data()) << "block " << b;
  }
}

TEST(CollectiveWriteTest, RecordFormatCostsRmwContiguousDoesNot) {
  // Writing one variable of the record file needs read-modify-write (holes
  // between records); writing the single variable of a raw file does not.
  Env env(256);
  render::Decomposition decomp({128, 128, 128}, 256);
  std::vector<RankBlock> blocks;
  for (std::int64_t b = 0; b < 256; ++b) {
    blocks.push_back(RankBlock{b, decomp.block_box(b)});
  }
  const format::VolumeLayout record(
      format::supernova_desc(format::FileFormat::kNetcdfRecord, 128));
  const format::VolumeLayout raw(
      format::supernova_desc(format::FileFormat::kRaw, 128));
  CollectiveWriter writer(env.model_rt, env.storage, Hints::untuned());
  const ReadResult rec = writer.write(record, 0, blocks);
  const ReadResult rw = writer.write(raw, 0, blocks);
  EXPECT_EQ(rec.useful_bytes, rw.useful_bytes);
  // RMW roughly doubles the physically moved bytes for the record layout.
  EXPECT_GT(double(rec.physical_bytes), 1.5 * double(rw.physical_bytes));
  EXPECT_GT(rec.seconds, rw.seconds);
}

TEST(CollectiveWriteFaultTest, DeadAggregatorAndServerRecoverAtAPinnedCost) {
  // 64 ranks -> 16 nodes, 1 ION, 8 aggregators at ranks 0, 8, ..., 56.
  // Killing node 0 (ranks 0-3) takes down exactly the domain-0 aggregator;
  // killing server 0 forces stripe failover on the write path.
  Env env(64);
  const format::VolumeLayout layout(
      format::supernova_desc(format::FileFormat::kRaw, 64));
  render::Decomposition decomp({64, 64, 64}, 64);
  std::vector<RankBlock> blocks;
  for (std::int64_t b = 0; b < decomp.num_blocks(); ++b) {
    blocks.push_back(RankBlock{b, decomp.block_box(b)});
  }
  CollectiveWriter writer(env.model_rt, env.storage, Hints::untuned());
  const ReadResult healthy = writer.write(layout, 0, blocks);

  fault::FaultPlan plan;
  plan.fail_node(0);
  plan.fail_server(0);
  fault::FaultStats first, second;
  env.model_rt.set_faults(&plan, &first);
  const ReadResult faulty = writer.write(layout, 0, blocks);
  env.model_rt.set_faults(&plan, &second);
  const ReadResult again = writer.write(layout, 0, blocks);
  env.model_rt.set_faults(nullptr, nullptr);

  EXPECT_EQ(first.reassigned_aggregators, 1);
  EXPECT_GT(first.failover_extents, 0);
  EXPECT_GT(first.retries, 0);
  EXPECT_GT(faulty.seconds, healthy.seconds);
  EXPECT_EQ(faulty.useful_bytes, healthy.useful_bytes);

  // Recovery is deterministic: identical costs and identical accounting.
  EXPECT_EQ(faulty.seconds, again.seconds);
  EXPECT_EQ(faulty.physical_bytes, again.physical_bytes);
  EXPECT_EQ(faulty.accesses, again.accesses);
  EXPECT_EQ(first.reassigned_aggregators, second.reassigned_aggregators);
  EXPECT_EQ(first.failover_extents, second.failover_extents);
  EXPECT_EQ(first.retries, second.retries);
}

TEST(CollectiveWriteTest, BadHintsRejected) {
  Env env(4);
  Hints h;
  h.cb_buffer_bytes = 0;
  EXPECT_THROW(CollectiveWriter(env.model_rt, env.storage, h), Error);
}

}  // namespace
}  // namespace pvr::iolib
