// Unit tests for pvr::util — math, color algebra, images, RNG, tables.
#include <unistd.h>
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "util/brick.hpp"
#include "util/color.hpp"
#include "util/error.hpp"
#include "util/image.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/units.hpp"
#include "util/vec.hpp"

namespace pvr {
namespace {

TEST(Vec3Test, BasicArithmetic) {
  const Vec3d a{1, 2, 3}, b{4, 5, 6};
  EXPECT_EQ(a + b, (Vec3d{5, 7, 9}));
  EXPECT_EQ(b - a, (Vec3d{3, 3, 3}));
  EXPECT_EQ(a * 2.0, (Vec3d{2, 4, 6}));
  EXPECT_EQ(2.0 * a, a * 2.0);
  EXPECT_EQ(a * b, (Vec3d{4, 10, 18}));
  EXPECT_EQ(-a, (Vec3d{-1, -2, -3}));
  EXPECT_DOUBLE_EQ(a.dot(b), 32.0);
}

TEST(Vec3Test, CrossProductIsOrthogonal) {
  const Vec3d a{1, 2, 3}, b{-2, 1, 4};
  const Vec3d c = a.cross(b);
  EXPECT_NEAR(c.dot(a), 0.0, 1e-12);
  EXPECT_NEAR(c.dot(b), 0.0, 1e-12);
}

TEST(Vec3Test, NormalizedHasUnitLength) {
  const Vec3d v{3, 4, 12};
  EXPECT_NEAR(v.normalized().length(), 1.0, 1e-12);
  EXPECT_EQ((Vec3d{0, 0, 0}).normalized(), (Vec3d{0, 0, 0}));
}

TEST(Vec3Test, IndexingMatchesComponents) {
  Vec3i v{7, 8, 9};
  EXPECT_EQ(v[0], 7);
  EXPECT_EQ(v[1], 8);
  EXPECT_EQ(v[2], 9);
  v[1] = 42;
  EXPECT_EQ(v.y, 42);
}

TEST(Vec3Test, VolumeAndComponents) {
  const Vec3i v{2, 3, 4};
  EXPECT_EQ(v.volume(), 24);
  EXPECT_EQ(v.min_component(), 2);
  EXPECT_EQ(v.max_component(), 4);
}

TEST(Box3Test, EmptyAndVolume) {
  const Box3i empty{{2, 2, 2}, {2, 3, 3}};
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.volume(), 0);
  const Box3i box{{0, 0, 0}, {2, 3, 4}};
  EXPECT_FALSE(box.empty());
  EXPECT_EQ(box.volume(), 24);
}

TEST(Box3Test, ContainsIsHalfOpen) {
  const Box3i box{{0, 0, 0}, {2, 2, 2}};
  EXPECT_TRUE(box.contains({0, 0, 0}));
  EXPECT_TRUE(box.contains({1, 1, 1}));
  EXPECT_FALSE(box.contains({2, 0, 0}));
  EXPECT_FALSE(box.contains({0, 0, 2}));
}

TEST(Box3Test, IntersectAndUnion) {
  const Box3i a{{0, 0, 0}, {4, 4, 4}};
  const Box3i b{{2, 2, 2}, {6, 6, 6}};
  EXPECT_EQ(a.intersect(b), (Box3i{{2, 2, 2}, {4, 4, 4}}));
  EXPECT_EQ(a.bounding_union(b), (Box3i{{0, 0, 0}, {6, 6, 6}}));
  const Box3i far{{10, 10, 10}, {11, 11, 11}};
  EXPECT_TRUE(a.intersect(far).empty());
}

TEST(Box3Test, UnionWithEmptyIsIdentity) {
  const Box3i a{{1, 1, 1}, {3, 3, 3}};
  const Box3i empty{};
  EXPECT_EQ(a.bounding_union(empty), a);
  EXPECT_EQ(empty.bounding_union(a), a);
}

TEST(IntMathTest, CeilDiv) {
  EXPECT_EQ(ceil_div(10, 3), 4);
  EXPECT_EQ(ceil_div(9, 3), 3);
  EXPECT_EQ(ceil_div(1, 64), 1);
}

TEST(IntMathTest, Pow2Helpers) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(1024));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_EQ(ilog2(1), 0);
  EXPECT_EQ(ilog2(2), 1);
  EXPECT_EQ(ilog2(32768), 15);
}

TEST(ColorTest, OverIdentity) {
  const Rgba c{0.2f, 0.3f, 0.4f, 0.5f};
  EXPECT_EQ(kTransparent.over(c), c);
  const Rgba opaque{0.1f, 0.2f, 0.3f, 1.0f};
  EXPECT_EQ(opaque.over(c), opaque);
}

TEST(ColorTest, OverIsAssociative) {
  const Rgba a{0.10f, 0.05f, 0.00f, 0.25f};
  const Rgba b{0.00f, 0.20f, 0.10f, 0.50f};
  const Rgba c{0.30f, 0.00f, 0.30f, 0.75f};
  const Rgba left = a.over(b).over(c);
  const Rgba right = a.over(b.over(c));
  EXPECT_NEAR(max_channel_diff(left, right), 0.0f, 1e-6f);
}

TEST(ColorTest, OverIsNotCommutative) {
  const Rgba a{0.5f, 0.0f, 0.0f, 0.5f};
  const Rgba b{0.0f, 0.5f, 0.0f, 0.5f};
  EXPECT_GT(max_channel_diff(a.over(b), b.over(a)), 0.1f);
}

TEST(ColorTest, BlendUnderMatchesOver) {
  Rgba acc{0.1f, 0.1f, 0.1f, 0.3f};
  const Rgba back{0.2f, 0.0f, 0.4f, 0.6f};
  const Rgba expected = acc.over(back);
  acc.blend_under(back);
  EXPECT_EQ(acc, expected);
}

TEST(ColorTest, AlphaAccumulatesTowardOne) {
  Rgba acc = kTransparent;
  const Rgba sample{0.05f, 0.05f, 0.05f, 0.1f};
  float prev = 0.0f;
  for (int i = 0; i < 100; ++i) {
    acc.blend_under(sample);
    EXPECT_GE(acc.a, prev);
    prev = acc.a;
    EXPECT_LE(acc.a, 1.0f + 1e-5f);
  }
  EXPECT_GT(acc.a, 0.95f);
}

TEST(ColorTest, ToU8RoundsAndClamps) {
  EXPECT_EQ(to_u8(0.0f), 0);
  EXPECT_EQ(to_u8(1.0f), 255);
  EXPECT_EQ(to_u8(-1.0f), 0);
  EXPECT_EQ(to_u8(2.0f), 255);
  EXPECT_EQ(to_u8(0.5f), 128);
}

TEST(RectTest, Geometry) {
  const Rect r{2, 3, 10, 8};
  EXPECT_EQ(r.width(), 8);
  EXPECT_EQ(r.height(), 5);
  EXPECT_EQ(r.pixel_count(), 40);
  EXPECT_FALSE(r.empty());
  EXPECT_TRUE(Rect(5, 5, 5, 9).empty());
  EXPECT_TRUE(r.contains(2, 3));
  EXPECT_FALSE(r.contains(10, 3));
}

TEST(RectTest, Intersect) {
  const Rect a{0, 0, 10, 10};
  const Rect b{5, 5, 15, 15};
  EXPECT_EQ(a.intersect(b), Rect(5, 5, 10, 10));
  EXPECT_TRUE(a.intersect(Rect(20, 20, 30, 30)).empty());
}

TEST(ImageTest, ExtractInsertRoundTrip) {
  Image img(8, 6);
  for (int y = 0; y < 6; ++y) {
    for (int x = 0; x < 8; ++x) {
      img.at(x, y) = Rgba{float(x), float(y), 0, 1};
    }
  }
  const Rect r{2, 1, 6, 5};
  const auto pixels = img.extract(r);
  Image img2(8, 6);
  img2.insert(r, pixels);
  for (int y = r.y0; y < r.y1; ++y) {
    for (int x = r.x0; x < r.x1; ++x) {
      EXPECT_EQ(img2.at(x, y), img.at(x, y));
    }
  }
  EXPECT_EQ(img2.at(0, 0), kTransparent);
}

TEST(ImageTest, MaxDifference) {
  Image a(3, 3), b(3, 3);
  EXPECT_FLOAT_EQ(a.max_difference(b), 0.0f);
  b.at(2, 2) = Rgba{0.5f, 0, 0, 0};
  EXPECT_FLOAT_EQ(a.max_difference(b), 0.5f);
  Image c(2, 2);
  EXPECT_THROW((void)a.max_difference(c), Error);
}

TEST(ImageTest, OutOfBoundsThrows) {
  Image img(4, 4);
  EXPECT_THROW((void)img.extract(Rect{0, 0, 5, 4}), Error);
  EXPECT_THROW(img.insert(Rect{0, 0, 2, 2}, std::vector<Rgba>(3)), Error);
}

TEST(ImageIoTest, WritesPpmAndPgm) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("pvr_util_test_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  Image img(16, 8);
  img.fill(Rgba{1, 0, 0, 1});
  const std::string ppm = (dir / "test.ppm").string();
  write_ppm(img, ppm);
  EXPECT_GT(fs::file_size(ppm), 16u * 8u * 3u);

  std::vector<std::uint8_t> gray(32, 128);
  const std::string pgm = (dir / "test.pgm").string();
  write_pgm(gray, 8, 4, pgm);
  EXPECT_GT(fs::file_size(pgm), 32u);
  fs::remove_all(dir);
}

TEST(RngTest, DeterministicBySeed) {
  Rng a(42), b(42), c(43);
  bool all_equal = true;
  bool any_diff_seed43 = false;
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next_u64();
    all_equal = all_equal && (va == b.next_u64());
    any_diff_seed43 = any_diff_seed43 || (va != c.next_u64());
  }
  EXPECT_TRUE(all_equal);
  EXPECT_TRUE(any_diff_seed43);
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(2.0, 5.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(RngTest, NextBelowBounded) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(RngTest, HashMixSpreadsBits) {
  // Nearby inputs should produce very different hashes.
  const auto h1 = hash_mix(1, 2, 3);
  const auto h2 = hash_mix(1, 2, 4);
  const auto h3 = hash_mix(2, 2, 3);
  EXPECT_NE(h1, h2);
  EXPECT_NE(h1, h3);
  EXPECT_NE(h2, h3);
}

TEST(UnitsTest, Conversions) {
  EXPECT_DOUBLE_EQ(gbps(3.4), 3.4e9 / 8.0);
  EXPECT_DOUBLE_EQ(mbps(1.0), 1e6);
  EXPECT_DOUBLE_EQ(usec(5), 5e-6);
  EXPECT_DOUBLE_EQ(to_mb_per_s(2e6, 2.0), 1.0);
  EXPECT_DOUBLE_EQ(to_mb_per_s(1.0, 0.0), 0.0);
  EXPECT_EQ(4 * MiB, 4194304);
}

TEST(TableTest, AlignmentAndCsv) {
  TextTable t("Title");
  t.set_header({"a", "long_column", "c"});
  t.add_row({"1", "2", "3"});
  t.add_row({"xx", "yy", "zz"});
  const std::string s = t.str();
  EXPECT_NE(s.find("Title"), std::string::npos);
  EXPECT_NE(s.find("long_column"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(TableTest, RowWidthMismatchThrows) {
  TextTable t;
  t.set_header({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(TableTest, Formatters) {
  EXPECT_EQ(fmt_f(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_int(1234), "1234");
  EXPECT_EQ(fmt_procs(64), "64");
  EXPECT_EQ(fmt_procs(1024), "1K");
  EXPECT_EQ(fmt_procs(32768), "32K");
  EXPECT_EQ(fmt_cubed(1120), "1120^3");
  EXPECT_EQ(fmt_squared(1600), "1600^2");
  EXPECT_EQ(fmt_bytes(5.3e9), "5.3 GB");
  EXPECT_EQ(fmt_bytes(312), "312 B");
}

TEST(BrickTest, GlobalCoordinateAccess) {
  Brick b(Box3i{{2, 3, 4}, {5, 6, 7}});
  EXPECT_EQ(b.num_elements(), 27);
  b.at(2, 3, 4) = 1.0f;
  b.at(4, 5, 6) = 2.0f;
  EXPECT_FLOAT_EQ(b.data().front(), 1.0f);
  EXPECT_FLOAT_EQ(b.data().back(), 2.0f);
}

TEST(BrickTest, RowIndexIsContiguousInX) {
  Brick b(Box3i{{0, 0, 0}, {4, 2, 2}});
  const std::size_t row = b.row_index(1, 1);
  b.at(0, 1, 1) = 5.0f;
  EXPECT_FLOAT_EQ(b.data()[row], 5.0f);
}

TEST(ErrorTest, RequireThrowsWithMessage) {
  try {
    PVR_REQUIRE(false, "my message");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("my message"), std::string::npos);
  }
}

}  // namespace
}  // namespace pvr
