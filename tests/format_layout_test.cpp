// Tests for the unified layout API: element offsets, subvolume extents,
// slab arithmetic (against brute force), SHDF codec, open signatures.
#include <gtest/gtest.h>

#include <set>

#include "format/layout.hpp"
#include "util/rng.hpp"

namespace pvr::format {
namespace {

DatasetDesc make_desc(FileFormat fmt, std::int64_t n) {
  return supernova_desc(fmt, n);
}

TEST(ExtentTest, CoalesceMergesAdjacentAndOverlapping) {
  std::vector<Extent> e = {{10, 5}, {0, 4}, {4, 6}, {20, 1}};
  coalesce(e);
  ASSERT_EQ(e.size(), 2u);
  EXPECT_EQ(e[0], (Extent{0, 15}));  // 0-4, 4-10, 10-15 merge
  EXPECT_EQ(e[1], (Extent{20, 1}));  // gap at [15, 20) kept
  EXPECT_EQ(total_bytes(e), 16);
}

TEST(ExtentTest, IntersectBehaviour) {
  EXPECT_EQ(intersect({0, 10}, {5, 10}).length, 5);
  EXPECT_LE(intersect({0, 5}, {7, 3}).length, 0);
}

TEST(LayoutTest, RawElementOffsets) {
  const VolumeLayout layout(make_desc(FileFormat::kRaw, 16));
  EXPECT_EQ(layout.element_offset(0, {0, 0, 0}), 0);
  EXPECT_EQ(layout.element_offset(0, {1, 0, 0}), 4);
  EXPECT_EQ(layout.element_offset(0, {0, 1, 0}), 16 * 4);
  EXPECT_EQ(layout.element_offset(0, {0, 0, 1}), 16 * 16 * 4);
  EXPECT_EQ(layout.file_bytes(), 16 * 16 * 16 * 4);
  EXPECT_FALSE(layout.big_endian_data());
  EXPECT_TRUE(layout.open_metadata_accesses().empty());
}

TEST(LayoutTest, NetcdfRecordOffsetsInterleave) {
  const VolumeLayout layout(make_desc(FileFormat::kNetcdfRecord, 8));
  const auto& nc = layout.netcdf_file();
  const std::int64_t slice = 8 * 8 * 4;
  // Same voxel of consecutive variables is one slice apart inside a record.
  EXPECT_EQ(layout.element_offset(1, {0, 0, 0}) -
                layout.element_offset(0, {0, 0, 0}),
            slice);
  // Same variable, next z: a whole record (5 slices) apart.
  EXPECT_EQ(layout.element_offset(0, {0, 0, 1}) -
                layout.element_offset(0, {0, 0, 0}),
            5 * slice);
  EXPECT_EQ(nc.record_size(), 5 * slice);
  EXPECT_TRUE(layout.big_endian_data());
}

TEST(LayoutTest, Netcdf64Contiguous) {
  const VolumeLayout layout(make_desc(FileFormat::kNetcdf64, 8));
  const std::int64_t var_bytes = 8 * 8 * 8 * 4;
  EXPECT_EQ(layout.element_offset(1, {0, 0, 0}) -
                layout.element_offset(0, {0, 0, 0}),
            var_bytes);
  EXPECT_EQ(layout.element_offset(0, {0, 0, 1}) -
                layout.element_offset(0, {0, 0, 0}),
            8 * 8 * 4);
}

TEST(LayoutTest, ShdfContiguousAndAligned) {
  const VolumeLayout layout(make_desc(FileFormat::kShdf, 8));
  const auto& info = layout.shdf_info();
  ASSERT_EQ(info.vars.size(), 5u);
  for (const auto& v : info.vars) {
    EXPECT_EQ(v.offset % shdf::kDataAlignment, 0);
    EXPECT_EQ(v.nbytes, 8 * 8 * 8 * 4);
  }
  EXPECT_FALSE(layout.big_endian_data());
}

TEST(LayoutTest, ShdfOpenSignatureMatchesPaper) {
  // The paper logs 11 tiny (<600 B) metadata accesses per process when
  // opening the five-variable HDF5 file.
  const VolumeLayout layout(make_desc(FileFormat::kShdf, 32));
  const auto accesses = layout.open_metadata_accesses();
  EXPECT_EQ(accesses.size(), 11u);
  for (const auto& a : accesses) {
    EXPECT_LE(a.length, 600);
  }
}

TEST(LayoutTest, SubvolumeExtentsMatchElementOffsets) {
  for (const FileFormat fmt :
       {FileFormat::kRaw, FileFormat::kNetcdfRecord, FileFormat::kNetcdf64,
        FileFormat::kShdf}) {
    const VolumeLayout layout(make_desc(fmt, 8));
    const Box3i box{{2, 3, 1}, {6, 7, 4}};
    std::vector<SlabRequest> slabs;
    layout.subvolume_slabs(0, box, &slabs);
    // One slab per z, one row per (y, z) pair, each row starting at its
    // first element's offset.
    ASSERT_EQ(std::int64_t(slabs.size()), box.hi.z - box.lo.z);
    std::int64_t bytes = 0;
    for (std::int64_t z = box.lo.z; z < box.hi.z; ++z) {
      const SlabRequest& s = slabs[std::size_t(z - box.lo.z)];
      ASSERT_EQ(s.nrows, box.hi.y - box.lo.y);
      for (std::int64_t r = 0; r < s.nrows; ++r) {
        EXPECT_EQ(s.first + r * s.row_stride,
                  layout.element_offset(0, {box.lo.x, box.lo.y + r, z}));
      }
      bytes += s.nrows * s.row_bytes;
    }
    EXPECT_EQ(bytes, box.volume() * 4);
  }
}

TEST(LayoutTest, SubvolumeClippedToVolume) {
  const VolumeLayout layout(make_desc(FileFormat::kRaw, 8));
  std::vector<SlabRequest> slabs;
  layout.subvolume_slabs(0, Box3i{{-2, -2, -2}, {20, 20, 2}}, &slabs);
  ASSERT_EQ(slabs.size(), 2u);  // z clipped to [0, 2)
  EXPECT_EQ(slabs[0].useful_bytes(), 8 * 8 * 4);
}

TEST(LayoutTest, SlabRunExpandsToTheSubvolumeSlabs) {
  // For every format and variable, and boxes clipped by any face, the slab
  // run's slices are exactly subvolume_slabs, each where element_offset puts
  // the box's first row at that z, all with the first slice's row shape, and
  // consecutive slices slice_stride() apart.
  Rng rng(7);
  for (const FileFormat fmt :
       {FileFormat::kRaw, FileFormat::kNetcdfRecord, FileFormat::kNetcdf64,
        FileFormat::kShdf}) {
    DatasetDesc desc = make_desc(fmt, 1);
    desc.dims = {7, 5, 6};
    const VolumeLayout layout(desc);
    const std::int64_t stride = layout.slice_stride();
    EXPECT_EQ(stride, fmt == FileFormat::kNetcdfRecord
                          ? layout.netcdf_file().record_size()
                          : 7 * 5 * 4);
    const Box3i volume{{0, 0, 0}, desc.dims};
    for (int var = 0; var < int(desc.num_variables()); ++var) {
      for (int t = 0; t < 50; ++t) {
        Box3i box;
        box.lo = {std::int64_t(rng.next_below(10)) - 2,
                  std::int64_t(rng.next_below(8)) - 2,
                  std::int64_t(rng.next_below(9)) - 2};
        box.hi = box.lo + Vec3i{std::int64_t(rng.next_below(10)),
                                std::int64_t(rng.next_below(8)),
                                std::int64_t(rng.next_below(9))};
        const Box3i clipped = box.intersect(volume);
        const SlabRun run = layout.slab_run(var, box);
        std::vector<SlabRequest> slabs;
        layout.subvolume_slabs(var, box, &slabs);
        if (clipped.empty()) {
          EXPECT_EQ(run.slices, 0);
          EXPECT_TRUE(slabs.empty());
          continue;
        }
        ASSERT_EQ(run.slices, clipped.hi.z - clipped.lo.z);
        ASSERT_EQ(slabs.size(), std::size_t(run.slices));
        EXPECT_EQ(run.z0, clipped.lo.z);
        for (std::int64_t k = 0; k < run.slices; ++k) {
          const SlabRequest s = run.slice(k, stride);
          EXPECT_EQ(s, slabs[std::size_t(k)]);
          EXPECT_EQ(s.first,
                    layout.element_offset(var, {clipped.lo.x, clipped.lo.y,
                                                clipped.lo.z + k}));
          EXPECT_EQ(s.row_bytes, (clipped.hi.x - clipped.lo.x) * 4);
          EXPECT_EQ(s.row_stride, desc.dims.x * 4);
          EXPECT_EQ(s.nrows, clipped.hi.y - clipped.lo.y);
          if (k > 0) {
            EXPECT_EQ(s.first - slabs[std::size_t(k - 1)].first, stride);
          }
        }
      }
    }
  }
}

TEST(LayoutTest, VariableIndexAndErrors) {
  const DatasetDesc d = make_desc(FileFormat::kNetcdfRecord, 8);
  EXPECT_EQ(d.variable_index("vx"), 2);
  EXPECT_THROW((void)d.variable_index("bogus"), Error);
  DatasetDesc bad = d;
  bad.dims = {0, 8, 8};
  EXPECT_THROW(VolumeLayout{bad}, Error);
  DatasetDesc raw_multi = make_desc(FileFormat::kRaw, 8);
  raw_multi.variables = {"a", "b"};
  EXPECT_THROW(VolumeLayout{raw_multi}, Error);
}

// ---- Slab arithmetic property tests against brute force ----

class SlabProperty : public ::testing::TestWithParam<int> {};

SlabRequest random_slab(Rng& rng) {
  SlabRequest s;
  s.first = std::int64_t(rng.next_below(1000));
  s.row_bytes = 1 + std::int64_t(rng.next_below(40));
  s.row_stride = s.row_bytes + std::int64_t(rng.next_below(60));
  s.nrows = 1 + std::int64_t(rng.next_below(10));
  return s;
}

bool brute_wanted(const SlabRequest& s, std::int64_t pos) {
  for (std::int64_t r = 0; r < s.nrows; ++r) {
    const std::int64_t start = s.first + r * s.row_stride;
    if (pos >= start && pos < start + s.row_bytes) return true;
  }
  return false;
}

TEST_P(SlabProperty, FirstWantedMatchesBruteForce) {
  Rng rng{std::uint64_t(GetParam())};
  for (int iter = 0; iter < 50; ++iter) {
    const SlabRequest s = random_slab(rng);
    for (std::int64_t pos = s.first - 3; pos <= s.hull_end() + 3; ++pos) {
      std::int64_t expected = s.hull_end();
      for (std::int64_t p = std::max<std::int64_t>(pos, s.first);
           p < s.hull_end(); ++p) {
        if (brute_wanted(s, p)) {
          expected = p;
          break;
        }
      }
      EXPECT_EQ(s.first_wanted_at_or_after(pos), expected)
          << "pos=" << pos << " slab first=" << s.first
          << " rb=" << s.row_bytes << " rs=" << s.row_stride
          << " nr=" << s.nrows;
    }
  }
}

TEST_P(SlabProperty, UsefulBytesInMatchesBruteForce) {
  Rng rng{std::uint64_t(GetParam()) + 1000};
  for (int iter = 0; iter < 50; ++iter) {
    const SlabRequest s = random_slab(rng);
    const std::int64_t lo = s.first - 2 + std::int64_t(rng.next_below(20));
    const std::int64_t hi = lo + std::int64_t(rng.next_below(120));
    std::int64_t expected = 0;
    for (std::int64_t p = lo; p < hi; ++p) {
      if (p >= s.first && p < s.hull_end() && brute_wanted(s, p)) ++expected;
    }
    EXPECT_EQ(s.useful_bytes_in(lo, hi), expected);
  }
}

TEST_P(SlabProperty, LastWantedIsConsistent) {
  Rng rng{std::uint64_t(GetParam()) + 2000};
  for (int iter = 0; iter < 50; ++iter) {
    const SlabRequest s = random_slab(rng);
    for (std::int64_t pos = s.first - 2; pos <= s.hull_end() + 2; ++pos) {
      const std::int64_t lw = s.last_wanted_before(pos);
      // lw is an exclusive end of wanted data: the byte before it is wanted
      // (when lw > first), and nothing in [lw, pos) is wanted.
      if (lw > s.first) {
        EXPECT_TRUE(brute_wanted(s, lw - 1)) << "pos=" << pos;
      }
      for (std::int64_t p = lw; p < std::min(pos, s.hull_end()); ++p) {
        EXPECT_FALSE(brute_wanted(s, p))
            << "pos=" << pos << " lw=" << lw << " p=" << p;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SlabProperty, ::testing::Values(1, 2, 3, 4));

TEST(SlabTest, ContiguousDetection) {
  SlabRequest s;
  s.first = 100;
  s.row_bytes = 32;
  s.row_stride = 32;
  s.nrows = 4;
  EXPECT_TRUE(s.contiguous());
  EXPECT_EQ(s.useful_bytes(), 128);
  EXPECT_EQ(s.hull().length, 128);
  s.row_stride = 40;
  EXPECT_FALSE(s.contiguous());
  EXPECT_EQ(s.hull().length, 3 * 40 + 32);
}

TEST(ShdfCodecTest, MetadataRoundTrip) {
  const shdf::FileInfo info =
      shdf::make_layout({32, 16, 8}, {"alpha", "beta"}, 4);
  const std::vector<std::byte> bytes = shdf::encode_metadata(info);
  const shdf::FileInfo back = shdf::decode_metadata(bytes);
  EXPECT_EQ(back.dims, info.dims);
  ASSERT_EQ(back.vars.size(), 2u);
  EXPECT_EQ(back.vars[0].name, "alpha");
  EXPECT_EQ(back.vars[1].name, "beta");
  EXPECT_EQ(back.vars[0].offset, info.vars[0].offset);
  EXPECT_EQ(back.vars[1].nbytes, info.vars[1].nbytes);
  EXPECT_EQ(back.var_index("beta"), 1);
  EXPECT_THROW((void)back.var_index("gamma"), Error);
}

TEST(ShdfCodecTest, BadMagicRejected) {
  std::vector<std::byte> junk(4096, std::byte{0});
  EXPECT_THROW(shdf::decode_metadata(junk), Error);
}

TEST(ShdfCodecTest, PaperScaleFileSize) {
  // Five 1120^3 float variables: ~28 GB, matching the netCDF file content.
  const shdf::FileInfo info = shdf::make_layout(
      {1120, 1120, 1120}, {"pressure", "density", "vx", "vy", "vz"}, 4);
  EXPECT_NEAR(double(info.file_bytes()) / 1e9, 28.1, 0.5);
}

}  // namespace
}  // namespace pvr::format
