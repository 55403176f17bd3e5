// Tests for the two-phase collective I/O engine: execute-mode correctness
// against ground truth for every format, hint effects on the physical
// access pattern, model/execute consistency, and the independent baseline.
#include <unistd.h>
#include <gtest/gtest.h>

#include <filesystem>
#include <ostream>

#include "data/synthetic.hpp"
#include "data/writers.hpp"
#include "fault/fault_plan.hpp"
#include "iolib/collective_read.hpp"
#include "iolib/collective_write.hpp"
#include "iolib/independent_read.hpp"
#include "render/decomposition.hpp"
#include "util/rng.hpp"

namespace pvr::iolib {
namespace {

namespace fs = std::filesystem;

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

class TempDir {
 public:
  TempDir()
      : path_(fs::temp_directory_path() /
              ("pvr_iolib_test_" + std::to_string(::getpid()))) {
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  fs::path path_;
};

/// Decomposes the volume into one block per rank (with ghost) like the
/// pipeline does. `clip = false` leaves the ghost layer unclipped, so edge
/// blocks extend past the volume.
std::vector<RankBlock> make_blocks(const Vec3i& dims, std::int64_t ranks,
                                   int ghost = 1, bool clip = true) {
  render::Decomposition decomp(dims, ranks);
  const Vec3i g{ghost, ghost, ghost};
  std::vector<RankBlock> blocks;
  for (std::int64_t b = 0; b < decomp.num_blocks(); ++b) {
    const Box3i own = decomp.block_box(b);
    blocks.push_back(RankBlock{b, clip ? decomp.ghost_box(b, ghost)
                                       : Box3i{own.lo - g, own.hi + g}});
  }
  return blocks;
}

class CollectiveReadFormats
    : public ::testing::TestWithParam<format::FileFormat> {};

TEST_P(CollectiveReadFormats, ExecuteMatchesGroundTruth) {
  TempDir dir;
  const std::int64_t n = 20;
  const std::int64_t ranks = 8;
  const format::DatasetDesc desc = format::supernova_desc(GetParam(), n);
  const std::string path = dir.file("vol.dat");
  data::write_supernova_file(desc, path, 1530);

  Env env(ranks);
  const format::VolumeLayout layout(desc);
  const int var = int(desc.num_variables()) - 1;
  format::DiskFile file(path, format::DiskFile::OpenMode::kRead);

  // Ground truth via direct serial read.
  Brick truth;
  data::read_variable(layout, var, file, &truth);
  const Box3i volume{{0, 0, 0}, desc.dims};

  // Ghost boxes clipped to the volume as the pipeline builds them, and left
  // unclipped so edge blocks extend past it: every in-volume voxel must
  // land at its own coordinates either way.
  for (const bool clip : {true, false}) {
    const auto blocks = make_blocks(desc.dims, ranks, 1, clip);
    std::vector<Brick> bricks;
    for (const auto& b : blocks) bricks.push_back(Brick(b.box));

    CollectiveReader reader(env.execute_rt, env.storage, Hints::untuned());
    const ReadResult result =
        reader.read(layout, var, blocks, &file, bricks);

    for (std::size_t i = 0; i < blocks.size(); ++i) {
      const Box3i box = blocks[i].box.intersect(volume);
      for (std::int64_t z = box.lo.z; z < box.hi.z; ++z) {
        for (std::int64_t y = box.lo.y; y < box.hi.y; ++y) {
          for (std::int64_t x = box.lo.x; x < box.hi.x; ++x) {
            ASSERT_EQ(bricks[i].at(x, y, z), truth.at(x, y, z))
                << format_name(GetParam()) << (clip ? "" : " unclipped")
                << " rank " << i << " voxel " << x << "," << y << "," << z;
          }
        }
      }
    }
    EXPECT_GT(result.useful_bytes, 0);
    EXPECT_GT(result.physical_bytes, 0);
    EXPECT_GT(result.seconds, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(AllFormats, CollectiveReadFormats,
                         ::testing::Values(format::FileFormat::kRaw,
                                           format::FileFormat::kNetcdfRecord,
                                           format::FileFormat::kNetcdf64,
                                           format::FileFormat::kShdf));

class IndependentReadFormats
    : public ::testing::TestWithParam<format::FileFormat> {};

TEST_P(IndependentReadFormats, ExecuteMatchesGroundTruth) {
  TempDir dir;
  const std::int64_t n = 16;
  const std::int64_t ranks = 27;  // non-power-of-two, 3x3x3 blocks
  const format::DatasetDesc desc = format::supernova_desc(GetParam(), n);
  const std::string path = dir.file("vol.dat");
  data::write_supernova_file(desc, path, 2);

  Env env(ranks);
  const format::VolumeLayout layout(desc);
  format::DiskFile file(path, format::DiskFile::OpenMode::kRead);
  Brick truth;
  data::read_variable(layout, 0, file, &truth);
  const Box3i volume{{0, 0, 0}, desc.dims};

  // Clipped and unclipped ghost boxes, as in the collective read test.
  for (const bool clip : {true, false}) {
    const auto blocks = make_blocks(desc.dims, ranks, 1, clip);
    std::vector<Brick> bricks;
    for (const auto& b : blocks) bricks.push_back(Brick(b.box));

    IndependentReader reader(env.execute_rt, env.storage, Hints::untuned());
    reader.read(layout, 0, blocks, &file, bricks);

    for (std::size_t i = 0; i < blocks.size(); ++i) {
      const Box3i box = blocks[i].box.intersect(volume);
      for (std::int64_t z = box.lo.z; z < box.hi.z; ++z) {
        for (std::int64_t y = box.lo.y; y < box.hi.y; ++y) {
          for (std::int64_t x = box.lo.x; x < box.hi.x; ++x) {
            ASSERT_EQ(bricks[i].at(x, y, z), truth.at(x, y, z))
                << format_name(GetParam()) << (clip ? "" : " unclipped")
                << " rank " << i << " voxel " << x << "," << y << "," << z;
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllFormats, IndependentReadFormats,
                         ::testing::Values(format::FileFormat::kRaw,
                                           format::FileFormat::kNetcdfRecord,
                                           format::FileFormat::kNetcdf64,
                                           format::FileFormat::kShdf));

/// What the two-phase plan prices for one agreement case, pinned so that
/// changes to how the plan is computed keep every modeled number.
struct Pinned {
  double seconds = 0.0;
  std::int64_t accesses = 0, physical_bytes = 0, useful_bytes = 0;
  std::int64_t shuffle_messages = 0, shuffle_bytes = 0, max_hops = 0;
};

/// One model-vs-execute agreement case: a format, a direction, the block
/// ghost width, how many variables move in one pass, and whether node 1
/// (the aggregators of domains 4-7) is dead.
struct AgreementCase {
  format::FileFormat format = format::FileFormat::kRaw;
  bool read = true;
  int ghost = 1;
  int variables = 1;
  bool dead_aggregator = false;
  Pinned pinned;
};

/// Names a case by what sets it apart from a ghosted single-variable read
/// or a tiled single-variable write.
void PrintTo(const AgreementCase& c, std::ostream* os) {
  *os << "(" << format::format_name(c.format) << ", "
      << (c.read ? "read" : "write");
  if (c.ghost != (c.read ? 1 : 0)) {
    *os << (c.ghost > 0 ? ", ghosted" : ", tiled");
  }
  if (c.variables > 1) *os << ", " << c.variables << " variables";
  if (c.dead_aggregator) *os << ", dead aggregator";
  *os << ")";
}

std::vector<AgreementCase> agreement_cases() {
  using format::FileFormat;
  // Reads take ghosted blocks like the pipeline, writes a tiling; then
  // writes of ghosted (overlapping) blocks, a three-variable read, and a
  // write whose aggregators on node 1 fail over.
  return {
      {FileFormat::kRaw, true, 1, 1, false,
       {0x1.95d2475004f7p-3, 8, 16384, 23328, 40, 23328, 1}},
      {FileFormat::kRaw, false, 0, 1, false,
       {0x1.93d003b5ab166p-3, 8, 16384, 16384, 32, 16384, 0}},
      {FileFormat::kNetcdfRecord, true, 1, 1, false,
       {0x1.96fb0dcd3805bp-3, 8, 77824, 23328, 40, 23328, 1}},
      {FileFormat::kNetcdfRecord, false, 0, 1, false,
       {0x1.d60c39a9d9f96p-3, 16, 98304, 16384, 32, 16384, 0}},
      {FileFormat::kNetcdf64, true, 1, 1, false,
       {0x1.96a3fe675dd92p-3, 8, 16384, 23328, 40, 23328, 1}},
      {FileFormat::kNetcdf64, false, 0, 1, false,
       {0x1.93d003b5ab166p-3, 8, 16384, 16384, 32, 16384, 0}},
      {FileFormat::kShdf, true, 1, 1, false,
       {0x1.9ed52550d6ae2p-3, 8, 16384, 23328, 40, 23328, 1}},
      {FileFormat::kShdf, false, 0, 1, false,
       {0x1.93d003b5ab166p-3, 8, 16384, 16384, 32, 16384, 0}},
      {FileFormat::kRaw, false, 1, 1, false,
       {0x1.95d2475004f7p-3, 8, 16384, 23328, 40, 23328, 1}},
      {FileFormat::kNetcdfRecord, false, 1, 1, false,
       {0x1.d80e7d4433dap-3, 16, 98304, 23328, 40, 23328, 1}},
      {FileFormat::kNetcdf64, false, 1, 1, false,
       {0x1.95d2475004f7p-3, 8, 16384, 23328, 40, 23328, 1}},
      {FileFormat::kShdf, false, 1, 1, false,
       {0x1.95d2475004f7p-3, 8, 16384, 23328, 40, 23328, 1}},
      {FileFormat::kNetcdfRecord, true, 1, 3, false,
       {0x1.9666fa0d845cp-3, 8, 79872, 69984, 40, 69984, 1}},
      {FileFormat::kNetcdf64, false, 0, 1, true,
       {0x1.94cbac3815bf5p-3, 8, 16384, 16384, 16, 8192, 0}},
  };
}

class ModelExecuteAgreement : public ::testing::TestWithParam<AgreementCase> {
};

TEST_P(ModelExecuteAgreement, SameAccessPatternAndResult) {
  // Model mode prices exactly the accesses execute mode performs, in both
  // directions and for every format, and both price what the case pins.
  const AgreementCase& c = GetParam();
  const bool read = c.read;
  TempDir dir;
  const format::DatasetDesc desc = format::supernova_desc(c.format, 16);
  const std::string path = dir.file("vol.dat");
  data::write_supernova_file(desc, path);

  Env env(8);
  fault::FaultPlan plan;
  fault::FaultStats model_faults, exec_faults;
  if (c.dead_aggregator) {
    plan.fail_node(1);
    env.model_rt.set_faults(&plan, &model_faults);
    env.execute_rt.set_faults(&plan, &exec_faults);
  }
  const format::VolumeLayout layout(desc);
  const auto blocks = make_blocks(desc.dims, 8, c.ghost);
  std::vector<int> vars;
  for (int v = 0; v < c.variables; ++v) vars.push_back(v);
  std::vector<Brick> bricks;
  for (const auto& b : blocks) {
    for (int v = 0; v < c.variables; ++v) bricks.push_back(Brick(b.box));
  }

  const auto run = [&](runtime::Runtime& rt, format::FileHandle* file,
                       std::span<Brick> out, storage::AccessLog* log) {
    if (read) {
      return CollectiveReader(rt, env.storage, Hints::untuned())
          .read_vars(layout, vars, blocks, file, out, log);
    }
    return CollectiveWriter(rt, env.storage, Hints::untuned())
        .write_vars(layout, vars, blocks, file, out, log);
  };
  storage::AccessLog model_log, exec_log;
  const ReadResult model = run(env.model_rt, nullptr, {}, &model_log);
  format::DiskFile file(path, format::DiskFile::OpenMode::kReadWrite);
  const ReadResult exec = run(env.execute_rt, &file, bricks, &exec_log);

  ASSERT_EQ(model_log.accesses().size(), exec_log.accesses().size());
  for (std::size_t i = 0; i < model_log.accesses().size(); ++i) {
    EXPECT_EQ(model_log.accesses()[i].offset, exec_log.accesses()[i].offset);
    EXPECT_EQ(model_log.accesses()[i].bytes, exec_log.accesses()[i].bytes);
    EXPECT_EQ(model_log.accesses()[i].client_rank,
              exec_log.accesses()[i].client_rank);
  }
  EXPECT_EQ(model_log.stats().useful_bytes, exec_log.stats().useful_bytes);
  EXPECT_EQ(model.seconds, exec.seconds);
  EXPECT_EQ(model.accesses, exec.accesses);
  EXPECT_EQ(model.physical_bytes, exec.physical_bytes);
  EXPECT_EQ(model.useful_bytes, exec.useful_bytes);
  EXPECT_EQ(model.shuffle_cost.messages, exec.shuffle_cost.messages);
  EXPECT_GT(model.accesses, 0);

  const Pinned& pin = c.pinned;
  EXPECT_EQ(model.seconds, pin.seconds);
  EXPECT_EQ(model.accesses, pin.accesses);
  EXPECT_EQ(model.physical_bytes, pin.physical_bytes);
  EXPECT_EQ(model.useful_bytes, pin.useful_bytes);
  EXPECT_EQ(model.shuffle_cost.messages, pin.shuffle_messages);
  EXPECT_EQ(model.shuffle_cost.total_bytes, pin.shuffle_bytes);
  EXPECT_EQ(model.shuffle_cost.max_hops, pin.max_hops);
}

INSTANTIATE_TEST_SUITE_P(AllFormatsBothDirections, ModelExecuteAgreement,
                         ::testing::ValuesIn(agreement_cases()));

TEST(CollectiveIoTest, WindowKeysDoNotAliasAcrossDomains) {
  // 4 ranks on one ION with 2 aggregators split a 256^3 raw file into two
  // 32 MiB domains (ranks 0 and 2). One-byte buffers give each domain 2^25
  // windows, so domain 0's window 2^24 + 20 and domain 1's window 20 must
  // stay distinct windows of distinct aggregators.
  Env env(4);
  const format::VolumeLayout layout(
      format::supernova_desc(format::FileFormat::kRaw, 256));
  const auto voxel_at = [](std::int64_t byte) {
    const std::int64_t i = byte / 4;
    const Vec3i lo{i % 256, i / 256 % 256, i / 65536};
    return Box3i{lo, lo + Vec3i{1, 1, 1}};
  };
  const std::int64_t domain = std::int64_t(1) << 25;
  const std::vector<RankBlock> blocks = {
      {0, voxel_at(0)},
      {1, voxel_at((std::int64_t(1) << 24) + 20)},
      {2, voxel_at(domain + 20)},
      {3, voxel_at(layout.file_bytes() - 4)}};
  Hints hints;
  hints.cb_buffer_bytes = 1;
  hints.aggregators_per_ion = 2;

  const auto check = [&](const ReadResult& r, const storage::AccessLog& log) {
    EXPECT_EQ(r.useful_bytes, 16);
    EXPECT_EQ(r.physical_bytes, 16);
    ASSERT_EQ(log.accesses().size(), 16u);
    for (const storage::PhysicalAccess& a : log.accesses()) {
      EXPECT_EQ(a.bytes, 1);
      EXPECT_EQ(a.client_rank, a.offset < domain ? 0 : 2)
          << "offset " << a.offset;
    }
  };
  storage::AccessLog read_log, write_log;
  check(CollectiveReader(env.model_rt, env.storage, hints)
            .read(layout, 0, blocks, nullptr, {}, &read_log),
        read_log);
  check(CollectiveWriter(env.model_rt, env.storage, hints)
            .write(layout, 0, blocks, nullptr, {}, &write_log),
        write_log);
}

TEST(CollectiveIoTest, ShuffleRoundCountPastIntRange) {
  // One aggregator with one-byte buffers over a 4 GiB domain (the first and
  // the last voxel of a 1024^3 raw file) pipelines its shuffle over 2^32
  // rounds, one more than an int holds.
  Env env(4);
  const format::VolumeLayout layout(
      format::supernova_desc(format::FileFormat::kRaw, 1024));
  const std::vector<RankBlock> blocks = {
      {0, Box3i{{0, 0, 0}, {1, 1, 1}}},
      {3, Box3i{{1023, 1023, 1023}, {1024, 1024, 1024}}}};
  Hints hints;
  hints.cb_buffer_bytes = 1;
  hints.aggregators_per_ion = 1;

  const ReadResult read = CollectiveReader(env.model_rt, env.storage, hints)
                              .read(layout, 0, blocks);
  const ReadResult write = CollectiveWriter(env.model_rt, env.storage, hints)
                               .write(layout, 0, blocks);
  for (const ReadResult& r : {read, write}) {
    EXPECT_EQ(r.useful_bytes, 8);
    EXPECT_EQ(r.physical_bytes, 8);
    EXPECT_GT(r.shuffle_cost.seconds, 0.0);
  }
}

TEST(CollectiveReadTest, RawReadIsDense) {
  // Reading the only variable of a raw file touches almost exactly the
  // useful bytes (data density ~ 1).
  Env env(64);
  const format::DatasetDesc desc =
      format::supernova_desc(format::FileFormat::kRaw, 64);
  const format::VolumeLayout layout(desc);
  const auto blocks = make_blocks(desc.dims, 64, /*ghost=*/0);
  CollectiveReader reader(env.model_rt, env.storage, Hints::untuned());
  const ReadResult r = reader.read(layout, 0, blocks);
  EXPECT_GT(r.data_density(), 0.98);
}

TEST(CollectiveReadTest, RecordFormatReadsExtraData) {
  // One variable out of five in record layout: the untuned read touches a
  // large multiple of the useful bytes (the paper's central I/O finding).
  Env env(64);
  const format::DatasetDesc desc =
      format::supernova_desc(format::FileFormat::kNetcdfRecord, 64);
  const format::VolumeLayout layout(desc);
  const auto blocks = make_blocks(desc.dims, 64, 0);
  CollectiveReader reader(env.model_rt, env.storage, Hints::untuned());
  const ReadResult r = reader.read(layout, 0, blocks);
  EXPECT_LT(r.data_density(), 0.6);
  EXPECT_GT(double(r.physical_bytes), 1.5 * double(r.useful_bytes));
}

TEST(CollectiveReadTest, TunedHintReducesPhysicalBytes) {
  Env env(64);
  const format::DatasetDesc desc =
      format::supernova_desc(format::FileFormat::kNetcdfRecord, 64);
  const format::VolumeLayout layout(desc);
  const auto blocks = make_blocks(desc.dims, 64, 0);

  Hints untuned;
  untuned.cb_buffer_bytes = 64 * 1024;  // scaled-down "16 MiB default"
  Hints tuned = Hints::tuned_for_record(desc.slice_bytes());

  CollectiveReader ru(env.model_rt, env.storage, untuned);
  CollectiveReader rt(env.model_rt, env.storage, tuned);
  const ReadResult u = ru.read(layout, 0, blocks);
  const ReadResult t = rt.read(layout, 0, blocks);
  EXPECT_EQ(u.useful_bytes, t.useful_bytes);
  EXPECT_LT(t.physical_bytes, u.physical_bytes);
  EXPECT_GT(t.data_density(), u.data_density());
}

TEST(CollectiveReadTest, ShdfIsDenserThanRecordFormat) {
  Env env(64);
  const auto run = [&](format::FileFormat fmt) {
    const format::DatasetDesc desc = format::supernova_desc(fmt, 64);
    const format::VolumeLayout layout(desc);
    const auto blocks = make_blocks(desc.dims, 64, 0);
    CollectiveReader reader(env.model_rt, env.storage, Hints::untuned());
    return reader.read(layout, 0, blocks);
  };
  const ReadResult shdf = run(format::FileFormat::kShdf);
  const ReadResult record = run(format::FileFormat::kNetcdfRecord);
  EXPECT_GT(shdf.data_density(), record.data_density());
  EXPECT_LT(shdf.seconds, record.seconds);
}

TEST(CollectiveReadTest, CollectiveBeatsIndependentAtScale) {
  // Ablation A3's core claim: aggregation wins when blocks decompose into
  // many small rows.
  Env env(512);
  const format::DatasetDesc desc =
      format::supernova_desc(format::FileFormat::kRaw, 256);
  const format::VolumeLayout layout(desc);
  const auto blocks = make_blocks(desc.dims, 512, 0);
  CollectiveReader creader(env.model_rt, env.storage, Hints::untuned());
  Hints no_sieve;
  no_sieve.data_sieving = false;
  IndependentReader ireader(env.model_rt, env.storage, no_sieve);
  const ReadResult c = creader.read(layout, 0, blocks);
  const ReadResult ind = ireader.read(layout, 0, blocks);
  EXPECT_LT(c.seconds, ind.seconds);
  EXPECT_LT(c.accesses, ind.accesses);
}

TEST(CollectiveReadTest, OpenCostCoversMetadata) {
  Env env(16);
  const format::DatasetDesc desc =
      format::supernova_desc(format::FileFormat::kShdf, 32);
  const format::VolumeLayout layout(desc);
  const auto blocks = make_blocks(desc.dims, 16, 0);
  storage::AccessLog log;
  CollectiveReader reader(env.model_rt, env.storage, Hints::untuned());
  const ReadResult r = reader.read(layout, 0, blocks, nullptr, {}, &log);
  EXPECT_GT(r.open_seconds, 0.0);
  // 11 metadata accesses per rank land in the log ahead of data accesses.
  std::int64_t tiny = 0;
  for (const auto& a : log.accesses()) {
    if (a.bytes <= 600) ++tiny;
  }
  EXPECT_GE(tiny, 11 * 16);
}

TEST(CollectiveReadTest, EmptyRequestReturnsOpenCostOnly) {
  Env env(4);
  const format::DatasetDesc desc =
      format::supernova_desc(format::FileFormat::kRaw, 8);
  const format::VolumeLayout layout(desc);
  const std::vector<RankBlock> blocks = {
      RankBlock{0, Box3i{{0, 0, 0}, {0, 0, 0}}}};
  CollectiveReader reader(env.model_rt, env.storage, Hints::untuned());
  const ReadResult r = reader.read(layout, 0, blocks);
  EXPECT_EQ(r.useful_bytes, 0);
  EXPECT_EQ(r.physical_bytes, 0);
}

TEST(CollectiveReadTest, BadHintsRejected) {
  Env env(4);
  Hints h;
  h.cb_buffer_bytes = 0;
  EXPECT_THROW(CollectiveReader(env.model_rt, env.storage, h), Error);
  Hints h2;
  h2.collective_buffering = false;
  CollectiveReader reader(env.model_rt, env.storage, Hints::untuned());
  const format::DatasetDesc desc =
      format::supernova_desc(format::FileFormat::kRaw, 8);
  const format::VolumeLayout layout(desc);
  CollectiveReader r2(env.model_rt, env.storage, Hints::untuned());
  (void)r2;
  EXPECT_THROW(
      CollectiveReader(env.model_rt, env.storage, h2)
          .read(layout, 0, make_blocks(desc.dims, 4, 0)),
      Error);
}

TEST(CollectiveReadTest, AggregatorCountScalesWithIons) {
  // More ranks -> more IONs -> more aggregators -> more, smaller accesses
  // for the same request (per-client distribution visible in the log).
  const format::DatasetDesc desc =
      format::supernova_desc(format::FileFormat::kRaw, 64);
  const format::VolumeLayout layout(desc);

  std::set<std::int64_t> clients_small, clients_large;
  {
    Env env(256);  // 64 nodes -> 1 ION -> 8 aggregators
    storage::AccessLog log;
    CollectiveReader reader(env.model_rt, env.storage, Hints::untuned());
    reader.read(layout, 0, make_blocks(desc.dims, 256, 0), nullptr, {}, &log);
    for (const auto& a : log.accesses()) clients_small.insert(a.client_rank);
  }
  {
    Env env(2048);  // 512 nodes -> 8 IONs -> 64 aggregators
    storage::AccessLog log;
    CollectiveReader reader(env.model_rt, env.storage, Hints::untuned());
    reader.read(layout, 0, make_blocks(desc.dims, 2048, 0), nullptr, {},
                &log);
    for (const auto& a : log.accesses()) clients_large.insert(a.client_rank);
  }
  EXPECT_GT(clients_large.size(), clients_small.size());
}

}  // namespace
}  // namespace pvr::iolib
