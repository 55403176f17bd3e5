// Tests for synthetic data generation, dataset writers, and upsampling.
#include <unistd.h>
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <span>
#include <vector>

#include "data/synthetic.hpp"
#include "data/upsample.hpp"
#include "data/writers.hpp"

namespace pvr::data {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir()
      : path_(fs::temp_directory_path() /
              ("pvr_data_test_" + std::to_string(::getpid()))) {
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  fs::path path_;
};

TEST(SyntheticTest, DeterministicAndBounded) {
  const SupernovaField f(1530);
  const SupernovaField g(1530);
  const SupernovaField other(99);
  const Vec3i dims{32, 32, 32};
  bool any_diff = false;
  for (std::int64_t z = 0; z < 32; z += 5) {
    for (std::int64_t y = 0; y < 32; y += 7) {
      for (std::int64_t x = 0; x < 32; x += 3) {
        const float v = f.at_voxel(Variable::kPressure, {x, y, z}, dims);
        EXPECT_GE(v, 0.0f);
        EXPECT_LE(v, 1.0f);
        EXPECT_EQ(v, g.at_voxel(Variable::kPressure, {x, y, z}, dims));
        any_diff = any_diff ||
                   v != other.at_voxel(Variable::kPressure, {x, y, z}, dims);
      }
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(SyntheticTest, ResolutionIndependentStructure) {
  // The field is continuous: the same spatial location sampled at two grid
  // resolutions must agree closely (it's the same analytic function).
  const SupernovaField f(1530);
  const float a = f.value(Variable::kDensity, {0.3, 0.4, 0.5});
  const float b = f.at_voxel(Variable::kDensity, {9, 12, 15}, {32, 32, 32});
  // voxel (9,12,15)/32 + half = (0.297, 0.391, 0.484): close, not equal.
  EXPECT_NEAR(a, b, 0.25f);
}

TEST(SyntheticTest, ShellIsDenserThanFarField) {
  const SupernovaField f(1530);
  // On the shock shell (r ~ 0.33) pressure exceeds the far corner.
  const float shell = f.value(Variable::kPressure, {0.5 + 0.33, 0.5, 0.5});
  const float corner = f.value(Variable::kPressure, {0.02, 0.02, 0.02});
  EXPECT_GT(shell, corner);
}

TEST(SyntheticTest, VariableNames) {
  EXPECT_EQ(variable_from_name("pressure"), Variable::kPressure);
  EXPECT_EQ(variable_from_name("vz"), Variable::kVz);
  EXPECT_THROW(variable_from_name("entropy"), Error);
}

TEST(SyntheticTest, FillBrickMatchesAtVoxel) {
  const SupernovaField f(7);
  const Vec3i dims{16, 16, 16};
  Brick b(Box3i{{4, 4, 4}, {8, 8, 8}});
  f.fill_brick(Variable::kVx, dims, &b);
  EXPECT_EQ(b.at(5, 6, 7), f.at_voxel(Variable::kVx, {5, 6, 7}, dims));
}

TEST(SyntheticTest, FillRowMatchesAtVoxelForVariableSubsets) {
  // Subsets in non-canonical order, one with a repeat, on rows that start
  // off the origin. On the 29-wide grid the top octaves jump several
  // lattice cells per voxel; on the 200-wide one every octave steps cell
  // by cell, reusing the corners it shares with the last cell.
  const SupernovaField f(77);
  const std::vector<std::vector<Variable>> subsets = {
      {Variable::kVz, Variable::kPressure},
      {Variable::kDensity},
      {Variable::kVy, Variable::kVx, Variable::kVy},
      {Variable::kVz, Variable::kVy, Variable::kVx, Variable::kDensity,
       Variable::kPressure}};
  struct Row {
    Vec3i dims;
    std::int64_t y, z, x_lo, x_hi;
  };
  const Row rows[] = {{{29, 13, 17}, 5, 11, 3, 29},
                      {{29, 13, 17}, 0, 0, 28, 29},
                      {{200, 9, 7}, 4, 3, 0, 200},
                      {{200, 9, 7}, 8, 6, 117, 151}};
  for (const auto& vars : subsets) {
    for (const Row& row : rows) {
      const std::size_t n = std::size_t(row.x_hi - row.x_lo);
      std::vector<std::vector<float>> values(vars.size(),
                                             std::vector<float>(n, -1.0f));
      std::vector<float*> out;
      for (auto& v : values) out.push_back(v.data());
      f.fill_row(vars, row.y, row.z, row.x_lo, row.x_hi, row.dims, out);
      for (std::size_t k = 0; k < vars.size(); ++k) {
        for (std::int64_t x = row.x_lo; x < row.x_hi; ++x) {
          ASSERT_EQ(values[k][std::size_t(x - row.x_lo)],
                    f.at_voxel(vars[k], {x, row.y, row.z}, row.dims))
              << "variable " << int(vars[k]) << " at " << x << "," << row.y
              << "," << row.z << " of a " << row.dims.x << "-wide grid";
        }
      }
    }
  }
}

/// FNV-1a (64-bit) of `bytes`.
std::uint64_t fnv1a(std::span<const std::byte> bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::byte b : bytes) {
    h ^= std::uint8_t(b);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Digests of the files write_supernova_file writes, indexed [format][n]
/// [seed] over the loops below, and of fill_brick's voxels, indexed
/// [box][variable]. They were captured from the field as first written,
/// which evaluated every voxel of every variable on its own, so they pin
/// the row evaluator (shared terms, cached lattice corners) to it.
constexpr std::uint64_t kFileDigests[4][4][3] = {
    {{0x4b72477f9c5c2f98ull, 0x4b72477f9c5c2f98ull, 0x4b72477f9c5c2f98ull},
     {0x5b0cfb00bcf718ecull, 0x1416c4765b0538e3ull, 0xe14364db2e7e3c18ull},
     {0x036a735980cc077aull, 0xbd12c41f3a2ad2c0ull, 0x134efee0028f64dfull},
     {0x92e19f46d479b07eull, 0x2bcbddfd108a2be6ull, 0xf80bb2db494393f3ull}},
    {{0x51a99c77f2512f3eull, 0x655daccc0f28d769ull, 0xa39db40f02e34b2dull},
     {0x53ac05a596cd0a0bull, 0xcfc4c474a67290b9ull, 0x69491a501b3551a4ull},
     {0xd53d4ada3e447be7ull, 0xf9b53408abdd80cfull, 0xfb1df08f904e1356ull},
     {0x711cc091673cef3aull, 0x94cea2b3f55d7854ull, 0x297bc68cd4690a17ull}},
    {{0x412dd8deaa414347ull, 0x295e48acb3db6674ull, 0xf0b74e68a90f1864ull},
     {0xfcb3ba6df31c9544ull, 0x2c68e9278f4d94e2ull, 0xfcb4cfac552d125full},
     {0x0edb984d94d7b0e7ull, 0x525ae9472b72a90full, 0x828c871238e55cc2ull},
     {0xdbf09ec5d06e0ef5ull, 0x382f683c8b62f153ull, 0xbc62b253f701578cull}},
    {{0x6caaad5e3e63dad0ull, 0x23144b43c8d1c4c1ull, 0x55368bc20373a325ull},
     {0x2a3b40b756c9a3fbull, 0xbddb186516c0067dull, 0x3d7769bf7d3e1b26ull},
     {0x33d3ca38c2638564ull, 0xe751cfc36dc0d384ull, 0xab3dd648cee1dd0bull},
     {0x5b5ea8252b544e6full, 0xa62596c57c8ab185ull, 0x75d9ccc2db53b974ull}}};
constexpr std::uint64_t kBrickDigests[2][5] = {
    {0x9413eb3c72c60956ull, 0x6db2a9acdd575a56ull, 0x4a3277d565e93ccaull,
     0xecc0b4702aea6cdfull, 0x4aa8f8655259e8d6ull},
    {0x602ddfde950b19d6ull, 0x5344063b49bb08dcull, 0x569ca95b761499c1ull,
     0x45a40a14a999492full, 0x27887c5f107bfa75ull}};

TEST(SyntheticTest, PinnedVoxelDigests) {
  TempDir dir;
  const format::FileFormat formats[] = {
      format::FileFormat::kRaw, format::FileFormat::kNetcdfRecord,
      format::FileFormat::kNetcdf64, format::FileFormat::kShdf};
  const std::int64_t sizes[] = {1, 7, 12, 33};
  const std::uint64_t seeds[] = {1, 77, 1530};
  const std::string path = dir.file("pinned.dat");
  for (int f = 0; f < 4; ++f) {
    for (int i = 0; i < 4; ++i) {
      for (int s = 0; s < 3; ++s) {
        write_supernova_file(format::supernova_desc(formats[f], sizes[i]),
                             path, seeds[s]);
        const format::DiskFile file(path, format::DiskFile::OpenMode::kRead);
        std::vector<std::byte> bytes(std::size_t(file.size()));
        file.read_at(0, bytes);
        const std::uint64_t got = fnv1a(bytes);
        EXPECT_EQ(got, kFileDigests[f][i][s])
            << format_name(formats[f]) << " n=" << sizes[i]
            << " seed=" << seeds[s] << " got 0x" << std::hex << got;
      }
    }
  }

  // An off-origin box, and one a single voxel wide in x.
  const Vec3i dims{24, 20, 11};
  const Box3i boxes[] = {{{3, 0, 5}, {21, 17, 9}}, {{13, 2, 1}, {14, 19, 10}}};
  const SupernovaField field(77);
  for (int b = 0; b < 2; ++b) {
    for (int v = 0; v < 5; ++v) {
      Brick brick(boxes[b]);
      field.fill_brick(Variable(v), dims, &brick);
      const std::uint64_t got = fnv1a(std::as_bytes(std::span(brick.data())));
      EXPECT_EQ(got, kBrickDigests[b][v])
          << "box " << b << " variable " << v << " got 0x" << std::hex << got;
    }
  }
}

class WriterRoundTrip : public ::testing::TestWithParam<format::FileFormat> {};

TEST_P(WriterRoundTrip, WriteThenReadMatchesField) {
  TempDir dir;
  const format::DatasetDesc desc = format::supernova_desc(GetParam(), 12);
  const std::string path = dir.file("vol.dat");
  write_supernova_file(desc, path, 1530);

  const format::VolumeLayout layout(desc);
  format::DiskFile file(path, format::DiskFile::OpenMode::kRead);
  EXPECT_EQ(file.size(), layout.file_bytes());

  const SupernovaField field(1530);
  Brick brick;
  const int var = int(desc.num_variables()) - 1;  // last variable
  read_variable(layout, var, file, &brick);
  const Variable v = variable_from_name(desc.variables[std::size_t(var)]);
  for (std::int64_t z = 0; z < 12; z += 3) {
    for (std::int64_t y = 0; y < 12; y += 4) {
      for (std::int64_t x = 0; x < 12; x += 5) {
        EXPECT_EQ(brick.at(x, y, z),
                  field.at_voxel(v, {x, y, z}, desc.dims))
            << format_name(GetParam()) << " at " << x << "," << y << ","
            << z;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllFormats, WriterRoundTrip,
                         ::testing::Values(format::FileFormat::kRaw,
                                           format::FileFormat::kNetcdfRecord,
                                           format::FileFormat::kNetcdf64,
                                           format::FileFormat::kShdf));

TEST(WriterTest, NetcdfFileHasValidHeaderOnDisk) {
  TempDir dir;
  const format::DatasetDesc desc =
      format::supernova_desc(format::FileFormat::kNetcdfRecord, 8);
  const std::string path = dir.file("vol.nc");
  write_supernova_file(desc, path);
  // Parse the real header back with the codec.
  format::DiskFile file(path, format::DiskFile::OpenMode::kRead);
  std::vector<std::byte> head(4096);
  file.read_at(0, head);
  const auto nc = format::netcdf::File::decode_header(head);
  EXPECT_EQ(nc.numrecs(), 8);
  EXPECT_EQ(nc.vars().size(), 5u);
  EXPECT_EQ(nc.var_index("density"), 1);
}

TEST(UpsampleBrickTest, LinearFieldsReproduceExactly) {
  // Trilinear upsampling is exact on (tri)linear fields away from edges.
  const Vec3i sdims{8, 8, 8};
  Brick src(Box3i{{0, 0, 0}, sdims});
  for (std::int64_t z = 0; z < 8; ++z) {
    for (std::int64_t y = 0; y < 8; ++y) {
      for (std::int64_t x = 0; x < 8; ++x) {
        src.at(x, y, z) = float(x) + 2.0f * float(y) + 4.0f * float(z);
      }
    }
  }
  Brick dst(Box3i{{0, 0, 0}, sdims * std::int64_t(2)});
  upsample_brick(src, sdims, 2, &dst);
  for (std::int64_t z = 2; z < 14; ++z) {
    for (std::int64_t y = 2; y < 14; ++y) {
      for (std::int64_t x = 2; x < 14; ++x) {
        const float expect = (float(x) + 0.5f) / 2.0f - 0.5f +
                             2.0f * ((float(y) + 0.5f) / 2.0f - 0.5f) +
                             4.0f * ((float(z) + 0.5f) / 2.0f - 0.5f);
        EXPECT_NEAR(dst.at(x, y, z), expect, 1e-4f);
      }
    }
  }
}

TEST(UpsampleBrickTest, Factor1IsIdentity) {
  const Vec3i dims{6, 6, 6};
  Brick src(Box3i{{0, 0, 0}, dims});
  const SupernovaField f(5);
  f.fill_brick(Variable::kPressure, dims, &src);
  Brick dst(Box3i{{0, 0, 0}, dims});
  upsample_brick(src, dims, 1, &dst);
  for (std::int64_t i = 0; i < dst.num_elements(); ++i) {
    EXPECT_EQ(dst.data()[std::size_t(i)], src.data()[std::size_t(i)]);
  }
}

TEST(UpsampleBrickTest, BoxMismatchThrows) {
  Brick src(Box3i{{0, 0, 0}, {4, 4, 4}});
  Brick dst(Box3i{{0, 0, 0}, {9, 8, 8}});
  EXPECT_THROW(upsample_brick(src, {4, 4, 4}, 2, &dst), Error);
}

TEST(UpsampleDatasetTest, MatchesBrickUpsampling) {
  // File-to-file streaming upsample must equal the in-memory version —
  // this validates the paper's preprocessing step end to end.
  TempDir dir;
  const format::DatasetDesc sdesc =
      format::supernova_desc(format::FileFormat::kNetcdfRecord, 8);
  const std::string spath = dir.file("small.nc");
  write_supernova_file(sdesc, spath, 1530);

  format::DatasetDesc ddesc = sdesc;
  ddesc.dims = sdesc.dims * std::int64_t(2);
  const format::VolumeLayout slayout(sdesc), dlayout(ddesc);
  const std::string dpath = dir.file("big.nc");
  {
    format::DiskFile sfile(spath, format::DiskFile::OpenMode::kRead);
    format::DiskFile dfile(dpath, format::DiskFile::OpenMode::kTruncate);
    upsample_dataset(slayout, sfile, 2, dlayout, &dfile);
  }

  // Reference: upsample every variable in memory (the streaming pass
  // interpolates all variables of a slice together).
  format::DiskFile sfile(spath, format::DiskFile::OpenMode::kRead);
  format::DiskFile dfile(dpath, format::DiskFile::OpenMode::kRead);
  for (int var = 0; var < int(sdesc.num_variables()); ++var) {
    Brick small;
    read_variable(slayout, var, sfile, &small);
    Brick big(Box3i{{0, 0, 0}, ddesc.dims});
    upsample_brick(small, sdesc.dims, 2, &big);
    Brick from_file;
    read_variable(dlayout, var, dfile, &from_file);
    for (std::int64_t i = 0; i < big.num_elements(); i += 13) {
      EXPECT_EQ(from_file.data()[std::size_t(i)], big.data()[std::size_t(i)])
          << "variable " << var;
    }
  }
}

/// Read-only view of a file that counts the reads reaching it.
class CountingFile : public format::FileHandle {
 public:
  explicit CountingFile(const format::FileHandle& file) : file_(&file) {}
  std::int64_t size() const override { return file_->size(); }
  void read_at(std::int64_t offset, std::span<std::byte> buf) const override {
    ++reads_;
    file_->read_at(offset, buf);
  }
  void write_at(std::int64_t, std::span<const std::byte>) override {
    throw Error("CountingFile is read-only");
  }
  std::int64_t reads() const { return reads_; }

 private:
  const format::FileHandle* file_;
  mutable std::int64_t reads_ = 0;
};

TEST(UpsampleDatasetTest, ReadsEachSourceSliceOnce) {
  // Each variable's bracket slides one source slice at a time, keeping its
  // old upper slice as the new lower one.
  TempDir dir;
  const format::DatasetDesc sdesc =
      format::supernova_desc(format::FileFormat::kNetcdfRecord, 8);
  const std::string spath = dir.file("small.nc");
  write_supernova_file(sdesc, spath, 1530);
  format::DatasetDesc ddesc = sdesc;
  ddesc.dims = sdesc.dims * std::int64_t(2);
  const format::VolumeLayout slayout(sdesc), dlayout(ddesc);

  const format::DiskFile sfile(spath, format::DiskFile::OpenMode::kRead);
  const CountingFile counted(sfile);
  format::MemoryFile dfile;
  upsample_dataset(slayout, counted, 2, dlayout, &dfile);
  ASSERT_EQ(sdesc.num_variables(), 5);
  EXPECT_EQ(counted.reads(), 40);  // 5 variables x 8 source slices
}

TEST(DiskFileTest, ReadWriteAndErrors) {
  TempDir dir;
  const std::string path = dir.file("f.bin");
  {
    format::DiskFile f(path, format::DiskFile::OpenMode::kTruncate);
    const std::vector<std::byte> data = {std::byte{1}, std::byte{2},
                                         std::byte{3}};
    f.write_at(10, data);
    EXPECT_EQ(f.size(), 13);
    std::vector<std::byte> back(3);
    f.read_at(10, back);
    EXPECT_EQ(back[2], std::byte{3});
    EXPECT_THROW(f.read_at(100, back), Error);
    f.truncate(5);
    EXPECT_EQ(f.size(), 5);
  }
  EXPECT_THROW(format::DiskFile("/nonexistent/dir/x",
                                format::DiskFile::OpenMode::kRead),
               Error);
}

TEST(MemoryFileTest, GrowsOnWrite) {
  format::MemoryFile f;
  const std::vector<std::byte> data(8, std::byte{7});
  f.write_at(100, data);
  EXPECT_EQ(f.size(), 108);
  std::vector<std::byte> back(8);
  f.read_at(100, back);
  EXPECT_EQ(back[0], std::byte{7});
  EXPECT_THROW(f.read_at(200, back), Error);
}

TEST(EndianTest, RoundTrip) {
  const float values[] = {0.0f, 1.0f, -3.25f, 1e-30f, 3.4e38f};
  std::vector<std::byte> bytes(sizeof(values));
  std::vector<float> back(5);
  format::floats_to_big_endian(values, bytes);
  format::big_endian_to_floats(bytes, back);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(back[std::size_t(i)], values[i]);
  // Spot-check true big-endian order: 1.0f = 0x3F800000.
  EXPECT_EQ(bytes[4], std::byte{0x3F});
  EXPECT_EQ(bytes[5], std::byte{0x80});
}

}  // namespace
}  // namespace pvr::data
