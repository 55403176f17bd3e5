// Tests for the netCDF classic codec: spec-level golden bytes, round trips,
// layout rules (record interleaving, 4 GiB limit), error handling.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "format/netcdf.hpp"

namespace pvr::format::netcdf {
namespace {

TEST(NcTypeTest, Sizes) {
  EXPECT_EQ(type_size(NcType::kByte), 1);
  EXPECT_EQ(type_size(NcType::kChar), 1);
  EXPECT_EQ(type_size(NcType::kShort), 2);
  EXPECT_EQ(type_size(NcType::kInt), 4);
  EXPECT_EQ(type_size(NcType::kFloat), 4);
  EXPECT_EQ(type_size(NcType::kDouble), 8);
}

TEST(GoldenBytesTest, MinimalCdf1Header) {
  // One fixed dim "x" of length 2, no attrs, one float var "v" on (x).
  Var v;
  v.name = "v";
  v.dimids = {0};
  v.type = NcType::kFloat;
  const File f(Version::kClassic, {{"x", 2}}, {}, {v}, 0);
  const std::vector<std::byte> h = f.encode_header();

  // Hand-assembled per the classic format spec (all big-endian):
  const unsigned char expected[] = {
      'C', 'D', 'F', 0x01,          // magic
      0, 0, 0, 0,                   // numrecs = 0
      0, 0, 0, 0x0A,                // NC_DIMENSION
      0, 0, 0, 1,                   // 1 dim
      0, 0, 0, 1,                   // name length 1
      'x', 0, 0, 0,                 // "x" padded
      0, 0, 0, 2,                   // dim length 2
      0, 0, 0, 0, 0, 0, 0, 0,       // gatt ABSENT
      0, 0, 0, 0x0B,                // NC_VARIABLE
      0, 0, 0, 1,                   // 1 var
      0, 0, 0, 1,                   // name length 1
      'v', 0, 0, 0,                 // "v" padded
      0, 0, 0, 1,                   // ndims = 1
      0, 0, 0, 0,                   // dimid 0
      0, 0, 0, 0, 0, 0, 0, 0,       // vatt ABSENT
      0, 0, 0, 5,                   // NC_FLOAT
      0, 0, 0, 8,                   // vsize = 2 floats = 8
      0, 0, 0, 0x50,                // begin = header size (80)
  };
  ASSERT_EQ(h.size(), sizeof(expected));
  EXPECT_EQ(std::int64_t(h.size()), f.header_bytes());
  for (std::size_t i = 0; i < sizeof(expected); ++i) {
    EXPECT_EQ(std::uint8_t(h[i]), expected[i]) << "byte " << i;
  }
}

TEST(RoundTripTest, AllVersions) {
  for (const Version version :
       {Version::kClassic, Version::k64BitOffset, Version::k64BitData}) {
    const File f = make_volume_file(version, 8, 8, 8,
                                    {"pressure", "density", "vx", "vy", "vz"},
                                    /*record_z=*/version != Version::k64BitData);
    const std::vector<std::byte> h = f.encode_header();
    const File g = File::decode_header(h);
    EXPECT_EQ(g.version(), f.version());
    EXPECT_EQ(g.numrecs(), f.numrecs());
    ASSERT_EQ(g.vars().size(), f.vars().size());
    for (std::size_t i = 0; i < f.vars().size(); ++i) {
      EXPECT_EQ(g.vars()[i].name, f.vars()[i].name);
      EXPECT_EQ(g.vars()[i].begin, f.vars()[i].begin);
      EXPECT_EQ(g.vars()[i].vsize, f.vars()[i].vsize);
      EXPECT_EQ(g.vars()[i].is_record, f.vars()[i].is_record);
    }
    EXPECT_EQ(g.header_bytes(), f.header_bytes());
    EXPECT_EQ(g.file_bytes(), f.file_bytes());
  }
}

TEST(RoundTripTest, AttributesSurvive) {
  Var v;
  v.name = "temp";
  v.dimids = {0};
  v.attrs = {Attr::text("units", "kelvin")};
  const float fv[] = {1.5f, -2.5f};
  std::vector<Attr> gatts = {Attr::text("title", "hello world"),
                             Attr::real("range", fv)};
  const File f(Version::k64BitOffset, {{"x", 4}}, gatts, {v}, 0);
  const File g = File::decode_header(f.encode_header());
  ASSERT_EQ(g.global_attrs().size(), 2u);
  EXPECT_EQ(g.global_attrs()[0].name, "title");
  EXPECT_EQ(g.global_attrs()[1].nelems, 2);
  ASSERT_EQ(g.vars()[0].attrs.size(), 1u);
  EXPECT_EQ(g.vars()[0].attrs[0].name, "units");
  // Text attr payload round-trips byte-for-byte.
  const std::string text(
      reinterpret_cast<const char*>(g.global_attrs()[0].values.data()),
      g.global_attrs()[0].values.size());
  EXPECT_EQ(text, "hello world");
}

TEST(RecordLayoutTest, RecordsInterleaveVariables) {
  // Five record variables: within one record, var slices are consecutive;
  // consecutive records are record_size apart (Fig 8's layout).
  const std::int64_t n = 16;
  const File f = make_volume_file(Version::k64BitOffset, n, n, n,
                                  {"pressure", "density", "vx", "vy", "vz"},
                                  /*record_z=*/true);
  const std::int64_t slice = n * n * 4;
  EXPECT_EQ(f.record_size(), 5 * slice);
  EXPECT_EQ(f.numrecs(), n);
  for (int v = 0; v < 5; ++v) {
    EXPECT_EQ(f.data_offset(v, 0), f.header_bytes() + v * slice);
    EXPECT_EQ(f.data_offset(v, 3) - f.data_offset(v, 2), f.record_size());
  }
  EXPECT_EQ(f.file_bytes(), f.header_bytes() + n * f.record_size());
}

TEST(RecordLayoutTest, SingleRecordVariableIsUnpadded) {
  // Spec quirk: with exactly one record variable, vsize is not padded to 4.
  Var v;
  v.name = "b";
  v.dimids = {0, 1};
  v.type = NcType::kByte;  // 3 bytes per record, unpadded
  const File f(Version::k64BitOffset, {{"t", 0}, {"x", 3}}, {}, {v}, 5);
  EXPECT_EQ(f.vars()[0].vsize, 3);
  EXPECT_EQ(f.record_size(), 3);
}

TEST(RecordLayoutTest, MultipleRecordVariablesArePadded) {
  Var a, b;
  a.name = "a";
  a.dimids = {0, 1};
  a.type = NcType::kByte;
  b = a;
  b.name = "b";
  const File f(Version::k64BitOffset, {{"t", 0}, {"x", 3}}, {}, {a, b}, 2);
  EXPECT_EQ(f.vars()[0].vsize, 4);  // 3 padded to 4
  EXPECT_EQ(f.record_size(), 8);
  EXPECT_EQ(f.vars()[1].begin - f.vars()[0].begin, 4);
}

TEST(NonRecordLayoutTest, VariablesAreContiguousInOrder) {
  const std::int64_t n = 8;
  const File f = make_volume_file(Version::k64BitData, n, n, n,
                                  {"pressure", "density"},
                                  /*record_z=*/false);
  const std::int64_t var_bytes = n * n * n * 4;
  EXPECT_EQ(f.vars()[0].begin, f.header_bytes());
  EXPECT_EQ(f.vars()[1].begin, f.header_bytes() + var_bytes);
  EXPECT_EQ(f.file_bytes(), f.header_bytes() + 2 * var_bytes);
  EXPECT_EQ(f.record_size(), 0);
}

TEST(LimitTest, NonRecord4GiBLimitEnforcedInCdf2) {
  // 1120^3 floats = 5.6 GB > 4 GiB: CDF-2 must reject it as a non-record
  // variable (the paper: "forcing the scientists to use record variables"),
  // CDF-5 must accept it.
  EXPECT_THROW(make_volume_file(Version::k64BitOffset, 1120, 1120, 1120,
                                {"pressure"}, /*record_z=*/false),
               Error);
  EXPECT_NO_THROW(make_volume_file(Version::k64BitData, 1120, 1120, 1120,
                                   {"pressure"}, /*record_z=*/false));
  // The same data as record variables fits fine in CDF-2.
  EXPECT_NO_THROW(make_volume_file(Version::k64BitOffset, 1120, 1120, 1120,
                                   {"pressure"}, /*record_z=*/true));
}

TEST(LimitTest, Cdf1OffsetLimit) {
  // CDF-1 cannot place data beyond 4 GiB: three 2.2 GB variables fit
  // individually under the vsize limit, but the third one's begin offset
  // exceeds 32 bits, which only CDF-2+ can encode.
  Var a;
  a.name = "a";
  a.dimids = {1, 2};
  Var b = a, c = a;
  b.name = "b";
  c.name = "c";
  const std::vector<Dim> dims = {{"t", 0}, {"y", 23000}, {"x", 24000}};
  EXPECT_THROW(
      File(Version::kClassic, dims, {}, {a, b, c}, 0).encode_header(),
      Error);
  EXPECT_NO_THROW(
      File(Version::k64BitOffset, dims, {}, {a, b, c}, 0).encode_header());
}

TEST(PaperScaleTest, VH1FileSizeMatchesPaper) {
  // The paper: a 1120^3 five-variable time step is ~27 GB in netCDF, one
  // variable is 5.3 GB raw, and a record (one 2D slice) is ~5 MB.
  const File f = make_volume_file(Version::k64BitOffset, 1120, 1120, 1120,
                                  {"pressure", "density", "vx", "vy", "vz"},
                                  /*record_z=*/true);
  const double gb = double(f.file_bytes()) / 1e9;
  EXPECT_NEAR(gb, 28.1, 0.5);  // 5 * 1120^3 * 4 bytes
  EXPECT_NEAR(double(f.record_size()) / 5 / 1e6, 5.0, 0.1);
}

TEST(ErrorTest, BadMagicRejected) {
  std::vector<std::byte> junk(64, std::byte{0});
  junk[0] = std::byte{'H'};
  EXPECT_THROW(File::decode_header(junk), Error);
}

TEST(ErrorTest, TruncatedHeaderRejected) {
  const File f = make_volume_file(Version::kClassic, 4, 4, 4, {"v"}, true);
  std::vector<std::byte> h = f.encode_header();
  h.resize(h.size() / 2);
  EXPECT_THROW(File::decode_header(h), Error);
}

TEST(ErrorTest, UnsupportedVersionByte) {
  std::vector<std::byte> h(8, std::byte{0});
  h[0] = std::byte{'C'};
  h[1] = std::byte{'D'};
  h[2] = std::byte{'F'};
  h[3] = std::byte{7};
  EXPECT_THROW(File::decode_header(h), Error);
}

TEST(ErrorTest, TwoRecordDimensionsRejected) {
  EXPECT_THROW(File(Version::kClassic, {{"t", 0}, {"u", 0}}, {}, {}, 0),
               Error);
}

TEST(ErrorTest, RecordDimMustBeFirst) {
  Var v;
  v.name = "v";
  v.dimids = {1, 0};  // record dim second: illegal
  EXPECT_THROW(File(Version::kClassic, {{"t", 0}, {"x", 4}}, {}, {v}, 0),
               Error);
}

/// Hand-assembled big-endian header bytes for hostile-count cases.
struct HeaderBytes {
  explicit HeaderBytes(std::uint8_t version) {
    for (const char c : {'C', 'D', 'F'}) u8(std::uint8_t(c));
    u8(version);
  }
  void u8(std::uint8_t v) { bytes.push_back(std::byte{v}); }
  void u32(std::uint32_t v) {
    for (int s = 24; s >= 0; s -= 8) u8(std::uint8_t(v >> s));
  }
  void u64(std::uint64_t v) {
    for (int s = 56; s >= 0; s -= 8) u8(std::uint8_t(v >> s));
  }
  /// A CDF-5 name: 64-bit length, then the characters padded to 4 bytes.
  void name64(const std::string& name) {
    u64(name.size());
    for (const char c : name) u8(std::uint8_t(c));
    while (bytes.size() % 4 != 0) u8(0);
  }
  std::vector<std::byte> bytes;
};

TEST(ErrorTest, HugeCdf1AttributeCountThrows) {
  // A global attribute list claiming 2^32 - 1 entries in a tiny header.
  HeaderBytes h(1);
  h.u32(0);           // numrecs
  h.u32(0);           // dim_list ABSENT
  h.u32(0);
  h.u32(0x0C);        // NC_ATTRIBUTE
  h.u32(0xFFFFFFFF);  // nelems
  h.u32(0);
  EXPECT_THROW(File::decode_header(h.bytes), Error);
}

TEST(ErrorTest, NegativeCdf5ListCountThrows) {
  HeaderBytes h(5);
  h.u64(0);                    // numrecs
  h.u32(0);                    // dim_list ABSENT
  h.u64(0);
  h.u32(0x0C);                 // NC_ATTRIBUTE
  h.u64(~std::uint64_t{0});    // nelems = -1
  h.u64(0);
  EXPECT_THROW(File::decode_header(h.bytes), Error);
}

TEST(ErrorTest, NegativeCdf5AttributeLengthThrows) {
  HeaderBytes h(5);
  h.u64(0);                    // numrecs
  h.u32(0);                    // dim_list ABSENT
  h.u64(0);
  h.u32(0x0C);                 // NC_ATTRIBUTE
  h.u64(1);
  h.name64("a");
  h.u32(2);                    // NC_CHAR
  h.u64(~std::uint64_t{0});    // attribute nelems = -1
  h.u64(0);
  EXPECT_THROW(File::decode_header(h.bytes), Error);
}

TEST(ErrorTest, OverflowingCdf5VariableSizeThrows) {
  // One variable over the given dimensions, of the given nc_type.
  const auto header = [](const std::vector<std::uint64_t>& lengths,
                         std::uint32_t type) {
    HeaderBytes h(5);
    h.u64(0);                  // numrecs
    h.u32(0x0A);               // NC_DIMENSION
    h.u64(lengths.size());
    for (std::size_t d = 0; d < lengths.size(); ++d) {
      h.name64("d" + std::to_string(d));
      h.u64(lengths[d]);
    }
    h.u32(0);                  // gatt_list ABSENT
    h.u64(0);
    h.u32(0x0B);               // NC_VARIABLE
    h.u64(1);
    h.name64("v");
    h.u64(lengths.size());     // ndims
    for (std::size_t d = 0; d < lengths.size(); ++d) h.u32(std::uint32_t(d));
    h.u32(0);                  // vatt_list ABSENT
    h.u64(0);
    h.u32(type);
    h.u64(0);                  // vsize
    h.u64(0);                  // begin
    return h.bytes;
  };
  // Two dimensions of length 2^40: 2^80 elements, past any 64-bit size.
  const std::uint64_t big = std::uint64_t{1} << 40;
  EXPECT_THROW(File::decode_header(header({big, big}, 5)), Error);
  // 2^63 - 1 bytes fit in int64, but padding them to 4 bytes does not.
  const std::uint64_t max = (std::uint64_t{1} << 63) - 1;
  EXPECT_THROW(File::decode_header(header({max}, 1)), Error);
}

TEST(ErrorTest, NegativeCdf2AndCdf5BeginThrows) {
  // The codec's own header with the first variable's 64-bit begin set past
  // INT64_MAX: it must be rejected, not decoded as a negative offset.
  for (const Version version : {Version::k64BitOffset, Version::k64BitData}) {
    const File f = make_volume_file(version, 8, 8, 8, {"a", "b"},
                                    /*record_z=*/version == Version::k64BitOffset);
    std::vector<std::byte> h = f.encode_header();
    std::vector<std::byte> begin(8);
    for (int i = 0; i < 8; ++i) {
      begin[std::size_t(i)] =
          std::byte(std::uint64_t(f.vars()[0].begin) >> (56 - 8 * i));
    }
    const auto at = std::search(h.begin(), h.end(), begin.begin(), begin.end());
    ASSERT_NE(at, h.end());
    const std::uint64_t hostile = 0xffffffff00000000ull |
                                  std::uint64_t(f.vars()[0].begin);
    for (int i = 0; i < 8; ++i) {
      at[i] = std::byte(hostile >> (56 - 8 * i));
    }
    EXPECT_THROW(File::decode_header(h), Error) << int(version);
  }
}

TEST(ErrorTest, UnknownVariableLookupThrows) {
  const File f = make_volume_file(Version::kClassic, 4, 4, 4, {"v"}, true);
  EXPECT_THROW((void)f.var_index("nope"), Error);
  EXPECT_EQ(f.var_index("v"), 0);
}

}  // namespace
}  // namespace pvr::format::netcdf
