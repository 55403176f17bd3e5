// Tests for the two-phase collective I/O engine: execute-mode correctness
// against ground truth for every format, hint effects on the physical
// access pattern, model/execute consistency, and the independent baseline.
#include <unistd.h>
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <ostream>
#include <set>
#include <string_view>

#include "data/synthetic.hpp"
#include "data/writers.hpp"
#include "fault/fault_plan.hpp"
#include "iolib/collective_read.hpp"
#include "iolib/collective_write.hpp"
#include "iolib/independent_read.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "par/thread_pool.hpp"
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

TEST(CollectiveReadTest, OpenMetadataIsReadOncePerRank) {
  // 64 blocks dealt round-robin to 16 ranks: each rank reads the 11 SHDF
  // metadata objects once, however many blocks it holds, and the io.open
  // span counts ranks, not blocks.
  Env env(16);
  const format::DatasetDesc desc =
      format::supernova_desc(format::FileFormat::kShdf, 32);
  const format::VolumeLayout layout(desc);
  auto blocks = make_blocks(desc.dims, 64, 0);
  ASSERT_EQ(blocks.size(), 64u);
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    blocks[b].rank = std::int64_t(b % 16);
  }
  const std::vector<format::Extent> meta = layout.open_metadata_accesses();
  ASSERT_EQ(meta.size(), 11u);
  const auto is_meta = [&](const storage::PhysicalAccess& a) {
    return std::find(meta.begin(), meta.end(),
                     format::Extent{a.offset, a.bytes}) != meta.end();
  };

  obs::Tracer tracer;
  env.model_rt.set_tracer(&tracer);
  storage::AccessLog log;
  CollectiveReader(env.model_rt, env.storage, Hints::untuned())
      .read(layout, 0, blocks, nullptr, {}, &log);
  env.model_rt.set_tracer(nullptr);

  std::map<std::int64_t, int> per_rank;
  for (const storage::PhysicalAccess& a : log.accesses()) {
    if (is_meta(a)) ++per_rank[a.client_rank];
  }
  ASSERT_EQ(per_rank.size(), 16u);
  for (const auto& [rank, reads] : per_rank) {
    EXPECT_EQ(reads, 11) << "rank " << rank;
  }
  const auto open = std::find_if(
      tracer.spans().begin(), tracer.spans().end(),
      [](const obs::Span& s) { return s.name == "io.open"; });
  ASSERT_NE(open, tracer.spans().end());
  EXPECT_EQ(open->args, (decltype(open->args){{"ranks", 16.0}}));

  storage::AccessLog independent;
  IndependentReader(env.model_rt, env.storage, Hints::untuned())
      .read(layout, 0, blocks, nullptr, {}, &independent);
  EXPECT_EQ(std::count_if(independent.accesses().begin(),
                          independent.accesses().end(), is_meta),
            11 * 16);
}

TEST(CollectiveIoTest, BlockRankOutsideThePartitionThrows) {
  // 8 ranks; the second block names rank 8 or rank -1. Every reader and the
  // writer reject it with an error naming the block and the rank before
  // anything indexes a per-rank table with it.
  Env env(8);
  const format::VolumeLayout layout(
      format::supernova_desc(format::FileFormat::kRaw, 16));
  for (const std::int64_t bad : {std::int64_t{8}, std::int64_t{-1}}) {
    const std::vector<RankBlock> blocks = {
        {0, Box3i{{0, 0, 0}, {8, 16, 16}}},
        {bad, Box3i{{8, 0, 0}, {16, 16, 16}}}};
    const auto expect_rejected = [&](const char* who, auto&& call) {
      try {
        call();
        ADD_FAILURE() << who << " accepted rank " << bad;
      } catch (const Error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("block 1"), std::string::npos) << who << ": "
                                                            << what;
        EXPECT_NE(what.find("rank " + std::to_string(bad)), std::string::npos)
            << who << ": " << what;
      }
    };
    expect_rejected("CollectiveReader", [&] {
      CollectiveReader(env.model_rt, env.storage, Hints::untuned())
          .read(layout, 0, blocks);
    });
    expect_rejected("CollectiveWriter", [&] {
      CollectiveWriter(env.model_rt, env.storage, Hints::untuned())
          .write(layout, 0, blocks);
    });
    expect_rejected("IndependentReader", [&] {
      IndependentReader(env.model_rt, env.storage, Hints::untuned())
          .read(layout, 0, blocks);
    });
  }
}

// ---- The two-phase plan pinned over a seeded sweep ----

/// One seeded model-mode case of the plan sweep.
struct SweepCase {
  format::DatasetDesc desc;
  std::vector<int> vars;
  std::vector<RankBlock> blocks;
  std::int64_t ranks = 8;
  Hints hints;
  bool faults = false;  ///< one dead node and one dead server
  std::int64_t dead_node = 0;
  int dead_server = 0;
  bool read = true;
};

void PrintTo(const SweepCase& c, std::ostream* os) {
  *os << format::format_name(c.desc.format) << " " << c.desc.dims.x << "x"
      << c.desc.dims.y << "x" << c.desc.dims.z << ", vars {";
  for (const int v : c.vars) *os << " " << v;
  *os << " }, " << c.blocks.size() << " blocks on " << c.ranks
      << " ranks, cb " << c.hints.cb_buffer_bytes << ", "
      << c.hints.aggregators_per_ion << " aggregators/ION"
      << (c.faults ? ", dead node " + std::to_string(c.dead_node) +
                         " and server " + std::to_string(c.dead_server)
                   : "")
      << (c.read ? ", read" : ", write");
}

/// A box that crosses the volume, often past its faces on both sides of an
/// axis; one box in ten is moved wholly past the volume's far x face.
Box3i random_box(Rng& rng, const Vec3i& dims) {
  const auto axis = [&](std::int64_t n, std::int64_t* lo, std::int64_t* hi) {
    *lo = -2 + std::int64_t(rng.next_below(std::uint64_t(n) + 2));
    *hi = std::max<std::int64_t>(
        1, *lo + 1 + std::int64_t(rng.next_below(std::uint64_t(n) + 2)));
  };
  Box3i box;
  axis(dims.x, &box.lo.x, &box.hi.x);
  axis(dims.y, &box.lo.y, &box.hi.y);
  axis(dims.z, &box.lo.z, &box.hi.z);
  if (rng.next_below(10) == 0) {
    box.lo.x += dims.x + 2;
    box.hi.x += dims.x + 2;
  }
  return box;
}

SweepCase draw_sweep_case(Rng& rng) {
  using format::FileFormat;
  constexpr FileFormat kFormats[] = {FileFormat::kRaw,
                                     FileFormat::kNetcdfRecord,
                                     FileFormat::kNetcdf64, FileFormat::kShdf};
  constexpr std::int64_t kRanks[] = {8, 16, 64, 512};
  SweepCase c;
  c.desc.format = kFormats[rng.next_below(4)];
  c.desc.dims = {1 + std::int64_t(rng.next_below(12)),
                 1 + std::int64_t(rng.next_below(12)),
                 rng.next_below(6) == 0 ? 1
                                        : 1 + std::int64_t(rng.next_below(12))};
  const int num_vars =
      c.desc.format == FileFormat::kRaw ? 1 : 1 + int(rng.next_below(4));
  for (int v = 0; v < num_vars; ++v) {
    c.desc.variables.push_back("v" + std::to_string(v));
  }
  // A random non-empty subset of the variables, in random order.
  std::vector<int> order(std::size_t(num_vars), 0);
  for (int v = 0; v < num_vars; ++v) order[std::size_t(v)] = v;
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }
  order.resize(1 + rng.next_below(std::uint64_t(num_vars)));
  c.vars = order;

  c.ranks = kRanks[rng.next_below(4)];
  const std::size_t num_blocks = 1 + rng.next_below(10);
  for (std::size_t b = 0; b < num_blocks; ++b) {
    const auto rank = std::int64_t(rng.next_below(std::uint64_t(c.ranks)));
    // Every fourth block or so repeats an earlier box exactly.
    const Box3i box = b > 0 && rng.next_below(4) == 0
                          ? c.blocks[rng.next_below(b)].box
                          : random_box(rng, c.desc.dims);
    c.blocks.push_back(RankBlock{rank, box});
  }
  c.hints.cb_buffer_bytes = rng.next_below(4) == 0
                                ? 16 * MiB
                                : 1 + std::int64_t(rng.next_below(5000));
  c.hints.aggregators_per_ion = 1 + int(rng.next_below(8));
  c.faults = rng.next_below(2) == 0;
  c.dead_node = std::int64_t(rng.next_below(std::uint64_t(c.ranks / 4)));
  c.dead_server = int(rng.next_below(136));
  c.read = rng.next_below(2) == 0;
  return c;
}

/// Folds `text` into the FNV-1a hash `h`.
void fnv_mix(std::uint64_t& h, std::string_view text) {
  for (const char ch : text) {
    h ^= std::uint8_t(ch);
    h *= 0x100000001b3ull;
  }
}

/// FNV-1a of everything the plan prices for one case: the `%a` seconds,
/// the byte and access counts, the shuffle's messages, bytes and hops, and
/// the access log from record `first` on.
std::uint64_t sweep_digest(const ReadResult& r, const storage::AccessLog& log,
                           std::size_t first) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::string_view text) { fnv_mix(h, text); };
  char line[512];
  std::snprintf(line, sizeof line,
                "%a %a %a %a %lld %lld %lld %lld %lld %lld\n", r.seconds,
                r.open_seconds, r.storage_cost.seconds,
                r.shuffle_cost.seconds, (long long)r.useful_bytes,
                (long long)r.physical_bytes, (long long)r.accesses,
                (long long)r.shuffle_cost.messages,
                (long long)r.shuffle_cost.total_bytes,
                (long long)r.shuffle_cost.max_hops);
  mix(line);
  for (std::size_t i = first; i < log.accesses().size(); ++i) {
    const storage::PhysicalAccess& a = log.accesses()[i];
    std::snprintf(line, sizeof line, "%lld %lld %lld\n", (long long)a.offset,
                  (long long)a.bytes, (long long)a.client_rank);
    mix(line);
  }
  return h;
}

/// Each case's digest, in draw order, captured from the plan that ordered
/// its entries with a radix sort, so they pin the sweep that replaced it to
/// the sort's output. A change that moves modeled I/O on purpose recaptures
/// them (print `got` for every case) and says which cases moved and why.
constexpr std::uint64_t kSweepDigests[] = {
    0xc1eea720e67a9731ull, 0xd59b207a70353bc6ull, 0xb7424486abe58c54ull,
    0xf0a3aefe14e0b9a3ull, 0xba0946df0a11209full, 0x5cda933c321eab39ull,
    0x66a4a4cf911ac15cull, 0x14732c8077c6224cull, 0x0345efca2da0c237ull,
    0x590cbb542fad0a74ull, 0x36e58134b07543b6ull, 0xb92cc21d3ff1d532ull,
    0x43336a1af86aa493ull, 0x5e2c450f661e52c1ull, 0xedbe5e198db27e26ull,
    0xa232c64a5619e41dull, 0xee0822eab40b313full, 0x396afc96981ece53ull,
    0xa743203f4a0528a7ull, 0x74667f1f64765c0eull, 0xadb75e0fce63e493ull,
    0xc064693222ff45a0ull, 0x36f04db5640c2255ull, 0x757f55e2f8b07e16ull,
    0xc9a0652fb911704bull, 0x78f78799a7908521ull, 0xca958dbae6e806f8ull,
    0x709f19d4c8f03e95ull, 0x86f46b966a47a0eaull, 0x5a2f0579028582c2ull,
    0xb1f498eea63a3938ull, 0xf6dddacbd3263353ull, 0x83ddd8e7ae570d35ull,
    0x0a113409af0257aeull, 0x9c1b5840c87ab9f3ull, 0x036d6ecaefd02a88ull,
    0x161c98ac957c4a91ull, 0xce707e6b212f5ebfull, 0x05d8eb7cececb1b2ull,
    0x71d537c145991015ull, 0xd248369b3bde945dull, 0x21aa5875a6c5ea11ull,
    0xaba6d6f26542e0a3ull, 0x6db0abb8ddfc50c7ull, 0xbd2175e850eae4caull,
    0x3c7eda1f39947ba1ull, 0xc5e6645bd89705f2ull, 0x7b845291bbd8cad9ull,
    0x3fd3026cf6f2dcd3ull, 0x8d7d4c153c8431afull, 0x7df94f7b07f1ebb5ull,
    0x6a69248c31f85188ull, 0x800e474e0349dda0ull, 0xb6f5b52ca2ad4d11ull,
    0x3800f5878da91d81ull, 0x7ea772e24ebe945aull, 0x5af8c2b8bd80b65bull,
    0xc986a0ac7ef684beull, 0xe6189ae69abb9ac8ull, 0x990477422be88ca9ull,
    0xeae9843b5ae36408ull, 0x7c8f3e853f1bfbb1ull, 0x0a287b34d689ac05ull,
    0x76469d8223399104ull, 0x997c5f5e5ce66119ull, 0x383aa48792736d17ull,
    0xd86c0690ed2ebe67ull, 0xaece3656b91db9a7ull, 0xf2a31f9dce17ddb7ull,
    0x4ead6ee4fa77dafeull, 0x629a4610e5ffa567ull, 0xf59904595ab3bda5ull,
    0x116f9eb7db77b121ull, 0x9aabb3434f717d90ull, 0xf4ea282197570e1dull,
    0x495250b6cd9f1adfull, 0xa59cb78e4352d7c3ull, 0x4b4df41b12d7aa00ull,
    0x0d0b43eabcc5db35ull, 0xb385724ebe40fd41ull, 0xbdc730e0f8cf84a3ull,
    0xa3d107cb2d6ab540ull, 0xb3878658ab8b20e4ull, 0xb7a166039c878eecull,
    0xaf9ee047fcfd1e64ull, 0xa620ee008f10a463ull, 0x3339b8f181656de8ull,
    0xa7364c38a3205039ull, 0x72d6dce657014f5bull, 0x8b3a7b6f08583c0full,
    0x258f264752a6e799ull, 0xf05b3a91efcf6aa5ull, 0x4c53cbc16406555cull,
    0x4e204b40fe5861fbull, 0x6496c07299ba0832ull, 0x23d01910c89215a3ull,
    0x94e0698a7b3916c2ull, 0x09ae730a6075a014ull, 0x971b22555403f8cbull,
    0xf3e3817fe232c562ull, 0xfea1878cd52f65b7ull, 0x556ca0755c55b5f3ull,
    0x1fc39ff0955983b0ull, 0x8df940bdaf64b75full, 0x7c0daa7466e9535cull,
    0xadbdbdc7fd4a3742ull, 0x69259458c508f408ull, 0x93d5200e21820674ull,
    0x59904e2d24001089ull, 0x64c4270ee7597b49ull, 0x878085cac4af7883ull,
    0x17057cb895a06f5bull, 0x196aa5d2551a1896ull, 0x64ee0f6fcc365f64ull,
    0xa48556fae1b8dafbull, 0x27a87c73228ca783ull, 0x21ce48490957f477ull,
    0xeabfb94753ed675full, 0xf4ca5b6377c99122ull, 0x841217de5b42f377ull,
    0xe80ee67f8d10075full, 0x48ddfe41e4b923d3ull, 0xf078433cfd232cdcull,
    0xbc89592eb0e031bcull, 0xa1394d08aa0a971eull, 0xfbc9bd1fc787cbebull,
    0xf695a3ac03645f5full, 0xc3fe2ce567bce863ull, 0xbfaa4e17aab34a1eull,
    0xf8de5526b52d7ea0ull, 0x3c2516f923cc55edull, 0xfcda4d62693ba7b1ull,
    0x42053138f53cefddull, 0x3d82c3e15063d7daull, 0x3ae90ec779ea4d0cull,
    0xf014bc48afb55798ull, 0x9456705e1aef3aebull, 0x8f3158139be0ab7aull,
    0x58beb669c9797f4aull, 0x85225c3ae0d55437ull, 0x4fea41c3e0fb5482ull,
    0xeaf09bfa1f09ab88ull, 0x3ae323489c46a4f3ull, 0x2ceb91c6ba8ccf34ull,
    0xc9f9ae901c1e4630ull, 0x0d06cf054a70911bull, 0x71f210f94e70f6d3ull,
    0x4134787d26538ac2ull, 0x79281f0e7797e5f6ull, 0x6bb2e2fe838c7539ull,
    0x52c14304765631e7ull, 0xab5e908fd9dc9abeull, 0x8dace7dd377a3a3cull,
    0x39ef6eb9f350b979ull, 0xc5938409db9d86c4ull, 0x74ce4180300c687full,
    0x16ddeabcafc92285ull, 0x7df7ead4385f701dull, 0x16c17f9b08c2119dull,
    0x60589d59e1502235ull, 0xddbbe74b8c70acc8ull, 0xae3b64312897fb89ull,
    0xac58e4b1222b13abull, 0xdbe2220309535369ull, 0x1ec9eb4cd5a486a9ull,
    0xfa6c66f8e49cd6ebull, 0x8538448cdaa20302ull, 0x38b1dbc80309c8a0ull,
    0x60ae72a5d2cf6401ull, 0x95603dc319225d4full, 0x5c1a79da4603bbc6ull,
    0x29e2f89880f3288full, 0xa8ef892f9ac2b65full, 0xc18704bccd52590full,
    0x4bae3369f4a3f34aull, 0x07825412d3f4652eull, 0x3df0d2ad3b41ee92ull,
    0xdfc10060f327e37aull, 0xc99768f97e9c58c7ull, 0x4d3d23dc91f15b32ull,
    0xf7fa7b04acef94cdull, 0x38c996d4573041fcull, 0xd1f05ccdd829953full,
    0xf068a17db49cbabdull, 0x7b56250ddbac33c1ull, 0xb8b36b8775b881c5ull,
    0x4f828bb72fae1bc8ull, 0x5ef7102df85612acull, 0x6c07541ac892ea55ull,
    0xea8c33341d6eeeabull, 0x657809dcc03ccfe7ull, 0x31c9dc8cc63802afull,
    0x75e30232563003caull, 0x29509792c6549ac0ull, 0xf7feb7004dfae64dull,
    0xeacd2e36eda7d021ull, 0x2494fa512201d6cfull, 0x983b7367ea2bc5a5ull,
    0x6cb3ff15656262c0ull, 0x34d7b5da6b7d5fbfull, 0xef8ad2e13a80fe17ull,
    0xe7e7e7f0730cf320ull, 0xc119c3bcae92f284ull, 0xdb9be70fc70306c1ull,
    0xb7ac9f7e6e1b9580ull, 0xdf1257e3de77a473ull, 0x6786de40e016c6ebull,
    0x5e39516926399106ull, 0x7eebf19706d39024ull, 0x65f320ea09cd1a64ull,
    0x36f4ba7fcd80d462ull, 0x6e82028fcaa69d1dull, 0xfaba2ee6e2d5ad55ull,
    0x08404a8f2eb033c7ull, 0x47df968f74c7c93dull, 0x182881dc3ed83d62ull,
    0x52e33a3331514da3ull, 0xce618d15b7ceddb9ull, 0x1d1e176aa77c8344ull,
    0x01a64f24609d6ec3ull, 0xc83bb5cb4266bffbull, 0x48c2e53f7502adc1ull,
    0xf6dee985eda45765ull, 0x1686b7f2bd79c4c5ull, 0x19f4758282260897ull,
    0x7c19663bae8abb5aull, 0xecd97de5b33c90deull, 0xea8c33341d6eeeabull,
    0xb99d01e6d620388full, 0xb670bda62b4ecd2bull, 0x320e8a3c4757ea56ull,
    0x03da04d63148f82dull, 0x6242f25cbc481139ull, 0x2606ee4fecb6aedbull,
    0x20ef49d72e1ec8f5ull, 0x58ca7efe687f4cf0ull, 0xbca412ae8f4ebbb2ull,
    0x782208f398a507d3ull, 0x63535f227d04f1c1ull, 0xe7a76798c88899feull,
    0xd5a8274c490aa67aull, 0x25f1df35d3f409e2ull, 0x3423dcb366ad52ffull,
    0x0e41f79644f90843ull, 0xf62461dfc7c3906cull, 0x317eb6aced2b3428ull,
    0x4d25e8dde4866f10ull, 0x656b14110b9dd1c4ull, 0xac21a179e9aced99ull,
    0x387df950ccdb1568ull, 0x5c6da119aba5474dull, 0xe003bc451e07da0aull,
    0xa180b97458b5f912ull, 0x7aa05da3df42dc71ull, 0x19923313aaa9d973ull,
    0xa7dabbf351daeab5ull, 0x4592140e1e6b7c92ull, 0x3f0cbc3a8549d7cdull,
    0xa5743c96b882c9e2ull, 0x8c78ca6b8e305869ull, 0xb01193cdfc01531aull,
    0x318ba2f53ab29037ull, 0x0cc6513f87a73ee9ull, 0x6837611cdbe45433ull,
    0x581a0e8d9a7a0e64ull, 0x577347c155d7d931ull, 0x204704f1b60b3c77ull,
    0xf3f9c01254c8bbabull, 0x07202e535fa13ffcull, 0xc61b87a46999f1beull,
    0xad52e3a311b9d261ull, 0x642f08b8b252889dull, 0x9e625424c2d78dc0ull,
    0xcb3b90f03779c906ull, 0xe14a0120a2a712a2ull, 0xa7045269dc0d901bull,
    0x3171c0023d78f67bull, 0x9cbb4369fdb7d356ull, 0x7af537e63e79fb39ull,
    0xe9e852a93a7fefbaull, 0x670ed7f00961c36eull, 0x51731c47cce911bfull,
    0x87776106b7cb87f6ull, 0x3bc2752e254a2c58ull, 0xba1b74edbaedec5aull,
    0x59cd302afb412efbull, 0x63588ac1894727e9ull, 0x2e409bacc3f48117ull,
    0xeac5f4c8dc336e35ull, 0x1d360169ef67ab48ull, 0xc1a98faff510507bull,
    0x530524c8ed1276a1ull, 0x9bd54b887273e910ull, 0x684b7befd3069d5cull,
    0x5de428c225a84698ull, 0x9968eccdb66f6062ull, 0x199ef84a362bef6cull,
    0xc3c84f7c8499c073ull, 0xabead1d80824b814ull, 0x59d3cedc9450e41cull,
    0x6aa0d5652b2d7761ull, 0x14904992ec4a8e7bull, 0x6b4abe5d762d3a0dull,
    0xa8a7c803764235dcull, 0x513e127b8fa2beecull, 0x72e416605cd9f9a2ull,
    0x0129e580a9d3aca8ull, 0x36aefcb570f3e9c9ull, 0x0f3bbf29dc86cdc7ull,
    0x93c5120c86099f28ull, 0x276cabba62743251ull, 0x53762c8e61c9d227ull,
    0x7996122cca22b0eaull, 0x449d1ba987bdb3d7ull, 0xc6e97dbef9765536ull,
    0x06fd545d7636ac36ull, 0xbfc5bc271d520334ull, 0xd9028a1ec196a175ull,
    0xab70d6a514d4fceaull, 0x08e0340a2c957c5eull, 0x6247ff86a2c5c9e1ull,
    0x877aa0408c760cd0ull, 0x6528a91da8bb50a3ull, 0xad38b5e336ed6e2bull,
    0x1871599462e93d2eull, 0xcfb9eeb860cb9408ull, 0xbda811ac64a795c0ull,
    0xac28bd7efd38631aull, 0x88727abe21d9af39ull, 0x1b8221aadbb3cd4cull,
    0x6d2873d37912ed57ull, 0x0808d7774f328326ull, 0xb70046f2c8900eeeull,
    0xeb4fc01e41ed298eull, 0x69a068e240fe22f7ull, 0xf24580dc5b72575cull,
    0xd0e56461e11df582ull, 0x263f76b4099a6f17ull, 0x075e68ba0f145ef4ull,
    0x0777bd0b8630a52dull, 0x4e83a01c42a1317dull, 0x6ef5080978d99878ull,
    0xec6a02a11ddb0fe8ull, 0x7187fe6d84f7d614ull, 0xe1e6ecd48c286c32ull,
    0x461a144d50849724ull, 0x4fb510d83bff5079ull, 0xf6c35343d65a1484ull,
    0xea8c33341d6eeeabull, 0x9f1e8307587acc7aull, 0xf7e8d70297cebc8full,
    0x8f914933399a5712ull, 0x7bd43698429e1660ull, 0x9a4e32cccbdcb942ull,
    0x7a355951c903803dull, 0x2fac3b701c35ba7dull, 0xc266d7aa8c3c3d37ull,
    0xbfb6f7f7c736775full, 0xbe7cc30960c76837ull, 0xd02ee6d34c5b42f9ull,
    0xc9d8a00144637e33ull, 0xec638e70889b490aull, 0x03eedd0769cca6d8ull,
    0xfd8d0fa7d80e0b1bull, 0xa4a551e8f0929056ull, 0x6b5758f94cac809cull,
    0xb4393eba9ebe9a34ull, 0xf50d0ed072f2e284ull, 0xc4d69f75be8832b6ull,
    0xe33baf674cf08d4aull, 0x09ee274dc87631aaull, 0xa194bc1272a158daull,
    0x145821e9ecebb03cull, 0xe7d58f9a5d43b96eull, 0x5ea9ba141b9293b4ull,
    0x723320d480d90d11ull, 0x328dcb40693e1275ull, 0x7ebf1a4175b7a285ull,
    0x929927c4aac320c9ull, 0x25b6f1e398f90737ull, 0x80e2b8a00d28149cull,
    0x1200020dee9e5f46ull, 0x303b45445d1a829cull, 0x40835cad956d8fb5ull,
    0xe2dbb12ea9feadd4ull, 0x970ca40b222a9a6eull, 0x7c821ee557f8e694ull,
    0xe9777a7f11e9ed13ull, 0xa944602cb7fa3d26ull, 0xd928ec0bd2fbb3d4ull,
    0x3ba53e4d0022fa7aull, 0x187c1c5333d308faull, 0xd074fbfaecef3da9ull,
    0xab95a1b9349938e8ull, 0x43c644986c7156a2ull, 0x980e6e1a5caf6395ull,
    0x236f729d363c0c5bull, 0x71ed09a7a1a18588ull, 0x31a4c10d546d12e3ull,
    0x69e676c3b775306eull, 0x061e4497446f6fffull, 0x029883f4651b7e4dull,
    0x63cff54029f6e911ull, 0x140117b00203f780ull, 0xaf7ce3393e43a997ull,
    0x6f1662b7a84a0397ull, 0x3d1526a615d9cfa2ull, 0xcfdcad66c7211dbeull,
    0x71e9ba62fce26f9cull, 0x477a02f134467f8eull, 0xea4249e0833c5885ull,
    0xf1c284c01bed6e20ull, 0xe214368b885ce5e9ull, 0x506103a6e797296cull,
    0x454a97d637533cddull, 0x6076be23b2903900ull, 0x8d7f57d5f94770fbull,
    0x3cdc393523109f3eull, 0x8ca84f7d487251fbull, 0x4d05479b1b38ebbaull,
    0x9009665c2f0bdd7full, 0xb697afbc4ee13aecull, 0x31de0721662e2d89ull,
    0xad01f090bdce260bull, 0xda05b040a76a19a7ull, 0xc554107cd48b9539ull,
    0x4d5861e6b5d88be1ull, 0xa73b4cf0e53389cbull, 0x1ef06dcab6055dd7ull,
    0x74fe6a2ff795f192ull, 0x2d73a1860d1fa1e4ull, 0xeb0723d62e21344bull,
    0x889a72c8e8b1fa35ull, 0x3e4892763033f0deull, 0xa115cbd457f83c9dull,
    0x6e9b1c2ad5b9f674ull, 0x040739f4ff19a2b3ull, 0x48836d8f1a8a9a3cull,
    0x7f1557a20c36d137ull, 0x0593f6b246aa29ddull, 0xd641e21980339466ull,
    0x3425c45a3129f085ull, 0xe1f0ce535134472bull, 0x5284bdb397950448ull,
    0x374f6d3a83e2e282ull, 0x35bb81ef1161d3f8ull, 0x2566b6947435b2bbull,
    0x1307575f12a3b159ull, 0xb114995317528679ull, 0x20bbd2796cdf0c65ull,
    0x602d2cb49646c31aull, 0x09a5593ed76e14a6ull, 0xef39392df169335bull,
    0xac7ed1c1a81e6e30ull, 0x7c402385c8e409e2ull, 0xa5cdfaab0d8775eaull,
    0xea8c33341d6eeeabull, 0x1c421161397a54c7ull, 0xed79e8d8f2411574ull,
    0x160001a22eca423full, 0x45b5e91d2ff06d99ull, 0xba9e0d08bef36dfcull,
    0xfb5ccb5440a44ee0ull, 0x0600a529330bf07bull, 0x29ba53078b5726adull,
    0xb2d883af94b1959cull, 0x8b37dff06b3f1647ull, 0x02b007c84a8d4804ull,
    0xd21d52292cce7d39ull, 0x3834e4ba4b3727b7ull, 0xf5e8b2008452dcc9ull,
    0x9b259e8ca457bcafull, 0xc8550fd276b9ac77ull, 0xed2a134f48eacab1ull,
    0xd3daa9784a7d2558ull, 0x3bb737a708d4e143ull, 0x0110287117e00dcdull,
    0x0dbe0995970d6601ull, 0x7608fbe4ec4a943bull, 0x6ac17345c2913c1cull,
    0x14c588b5ad16d8b4ull, 0x49e20ac865879ce9ull, 0x5b7f780eefa2efd5ull,
    0x002c0c31f247032dull, 0xed1f7c422bc85aecull, 0xc2f2ea47f9a70a21ull,
    0x7c48de65c32b9d14ull, 0x8f82ab528c21891bull, 0xf778bfb6f4e416beull,
    0xef456952a0e7af67ull, 0x762a4aa583b1b94full, 0xcc7649d229307a1dull,
    0xddaf86177afcf3c7ull, 0xafc9e5be118f42a4ull, 0x39a43be4ca4d6e8aull,
    0xfeee0b85ac85e207ull, 0x03658a90d77f63acull, 0xfa180b39d6463f8dull,
    0x9ce2ec3d6e23015eull, 0xef57748f01548944ull, 0x3e784cf3c45b8454ull,
    0x8b3911d1e73f5298ull, 0x1c899bf892005277ull, 0xe4cd552a8b321103ull,
    0x580056a43c1cbd80ull, 0xce256e0aed694b39ull, 0x46a948046600e8e6ull,
    0xb6491f3b44088504ull, 0x53a5fc6b7fdd12d9ull, 0x79a959067515bfa0ull,
    0x0c9ddc5f263fb1c6ull, 0x119b965c37ce1c5cull,
};

TEST(CollectiveIoTest, PlanSweepMatchesPinnedDigests) {
  // A seeded sweep over formats, variable subsets, boxes (duplicates and
  // boxes past the volume included), flat volumes, buffer sizes,
  // aggregator counts, faults and both directions, each case's prices
  // pinned by digest so that every change to how the plan is built keeps
  // every modeled number and every physical access. Every case runs with
  // no pool and on 2- and 4-thread pools.
  constexpr std::size_t kCases = std::size(kSweepDigests);
  static_assert(kCases >= 500);
  par::ThreadPool pool2(2);
  par::ThreadPool pool4(4);
  par::ThreadPool* const pools[] = {nullptr, &pool2, &pool4};
  Rng rng(20091);
  std::map<std::int64_t, std::unique_ptr<Env>> envs;
  for (std::size_t i = 0; i < kCases; ++i) {
    const SweepCase c = draw_sweep_case(rng);
    std::unique_ptr<Env>& env = envs[c.ranks];
    if (env == nullptr) env = std::make_unique<Env>(c.ranks);
    for (par::ThreadPool* pool : pools) {
      fault::FaultPlan plan;
      fault::FaultStats stats;
      if (c.faults) {
        plan.fail_node(c.dead_node);
        plan.fail_server(c.dead_server);
        env->model_rt.set_faults(&plan, &stats);
      }
      env->model_rt.set_pool(pool);
      const format::VolumeLayout layout(c.desc);
      storage::AccessLog log;
      const ReadResult r =
          c.read
              ? CollectiveReader(env->model_rt, env->storage, c.hints)
                    .read_vars(layout, c.vars, c.blocks, nullptr, {}, &log)
              : CollectiveWriter(env->model_rt, env->storage, c.hints)
                    .write_vars(layout, c.vars, c.blocks, nullptr, {}, &log);
      env->model_rt.set_faults(nullptr, nullptr);
      env->model_rt.set_pool(nullptr);
      // The open-time metadata reads lead a read's log. They are not part
      // of the plan: each rank issues them once, whatever its block count.
      const std::vector<format::Extent> meta =
          layout.open_metadata_accesses();
      std::size_t first = 0;
      while (first < log.accesses().size() &&
             std::find(meta.begin(), meta.end(),
                       format::Extent{log.accesses()[first].offset,
                                      log.accesses()[first].bytes}) !=
                 meta.end()) {
        ++first;
      }
      std::set<std::int64_t> ranks;
      for (const RankBlock& b : c.blocks) ranks.insert(b.rank);
      const int threads = pool == nullptr ? 0 : pool->threads();
      EXPECT_EQ(first, c.read ? meta.size() * ranks.size() : 0)
          << "case " << i << ", pool " << threads;
      const std::uint64_t got = sweep_digest(r, log, first);
      EXPECT_EQ(got, kSweepDigests[i])
          << "case " << i << ", pool " << threads << ": "
          << ::testing::PrintToString(c) << std::hex << "; digest 0x" << got;
    }
  }
}

/// FNV-1a of what a model-mode operation reports: every ReadResult field
/// (`%a` for seconds), the access log and the Chrome trace.
std::uint64_t report_digest(const ReadResult& r, const storage::AccessLog& log,
                            const obs::Tracer& tracer) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::string_view text) { fnv_mix(h, text); };
  const storage::IoCost& st = r.storage_cost;
  const net::ExchangeCost& sh = r.shuffle_cost;
  char line[1024];
  std::snprintf(line, sizeof line,
                "%a %a %lld %lld %lld | %a %a %a %a %a %a %lld %lld | "
                "%a %lld %lld %lld %lld %a %a %a %a %a %a %lld %lld\n",
                r.seconds, r.open_seconds, (long long)r.useful_bytes,
                (long long)r.physical_bytes, (long long)r.accesses,
                st.seconds, st.startup_seconds, st.server_seconds, st.ion_seconds,
                st.cap_seconds, st.client_seconds, (long long)st.accesses,
                (long long)st.physical_bytes, sh.seconds,
                (long long)sh.messages, (long long)sh.local_messages,
                (long long)sh.total_bytes, (long long)sh.max_hops,
                sh.congestion_factor, sh.link_seconds, sh.endpoint_seconds,
                sh.latency_seconds, sh.skew_seconds, sh.retry_seconds,
                (long long)sh.bottleneck_link, (long long)sh.bottleneck_node);
  mix(line);
  for (const storage::PhysicalAccess& a : log.accesses()) {
    std::snprintf(line, sizeof line, "%lld %lld %lld\n", (long long)a.offset,
                  (long long)a.bytes, (long long)a.client_rank);
    mix(line);
  }
  mix(obs::to_chrome_trace_json(tracer));
  return h;
}

TEST(CollectiveIoTest, PooledPlanAtScaleMatchesPinnedDigests) {
  // A 4096-rank model read (two variables of a netCDF record file) and
  // model write (a raw file), both with ghost blocks and odd buffer sizes.
  // Dead nodes make domains 6 and 7 share an aggregator (rank 228) across
  // a phase-3 chunk boundary, and make the last domain wrap to rank 0,
  // domain 0's aggregator. Each operation reports the same bytes with no
  // pool and on 1-, 2- and 4-thread pools: the digests pinned here were
  // captured from the serial plan that ordered its pairs with two global
  // counting sorts.
  constexpr std::int64_t kRanks = 4096;
  Env env(kRanks);
  fault::FaultPlan plan;
  for (std::int64_t node = 48; node <= 56; ++node) plan.fail_node(node);
  for (std::int64_t node = 1016; node < 1024; ++node) plan.fail_node(node);
  par::ThreadPool pool1(1);
  par::ThreadPool pool2(2);
  par::ThreadPool pool4(4);
  par::ThreadPool* const pools[] = {nullptr, &pool1, &pool2, &pool4};
  const std::vector<RankBlock> blocks = make_blocks({64, 64, 64}, kRanks);
  const format::VolumeLayout record(
      format::supernova_desc(format::FileFormat::kNetcdfRecord, 64));
  const format::VolumeLayout raw(
      format::supernova_desc(format::FileFormat::kRaw, 64));
  const int read_vars[] = {3, 1};
  const int write_vars[] = {0};
  Hints read_hints;
  read_hints.cb_buffer_bytes = 10007;
  Hints write_hints;
  write_hints.cb_buffer_bytes = 3001;
  constexpr std::uint64_t kRead = 0x30dd3722ca1cda4dull;
  constexpr std::uint64_t kWrite = 0xeb9ef2c35318acb8ull;
  for (par::ThreadPool* pool : pools) {
    const int threads = pool == nullptr ? 0 : pool->threads();
    for (const bool read : {true, false}) {
      fault::FaultStats stats;
      obs::Tracer tracer;
      storage::AccessLog log;
      env.model_rt.set_faults(&plan, &stats);
      env.model_rt.set_tracer(&tracer);
      env.model_rt.set_pool(pool);
      const ReadResult r =
          read ? CollectiveReader(env.model_rt, env.storage, read_hints)
                     .read_vars(record, read_vars, blocks, nullptr, {}, &log)
               : CollectiveWriter(env.model_rt, env.storage, write_hints)
                     .write_vars(raw, write_vars, blocks, nullptr, {}, &log);
      env.model_rt.set_pool(nullptr);
      env.model_rt.set_tracer(nullptr);
      env.model_rt.set_faults(nullptr, nullptr);
      EXPECT_EQ(stats.reassigned_aggregators, 3)
          << (read ? "read" : "write") << ", pool " << threads;
      const std::uint64_t got = report_digest(r, log, tracer);
      EXPECT_EQ(got, read ? kRead : kWrite)
          << (read ? "read" : "write") << ", pool " << threads << std::hex
          << "; digest 0x" << got;
    }
  }
}

}  // namespace
}  // namespace pvr::iolib
