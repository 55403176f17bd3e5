#include "format/netcdf.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

namespace pvr::format::netcdf {

namespace {

constexpr std::int32_t kTagDimension = 0x0A;
constexpr std::int32_t kTagVariable = 0x0B;
constexpr std::int32_t kTagAttribute = 0x0C;
constexpr std::int64_t kNonRecordLimit32 = 0xFFFFFFFFLL;  // vsize field limit

/// a * b and a + b for sizes derived from a header; throw instead of
/// overflowing int64.
std::int64_t checked_mul(std::int64_t a, std::int64_t b) {
  std::int64_t out = 0;
  PVR_REQUIRE(!__builtin_mul_overflow(a, b, &out),
              "netCDF size overflows 64 bits");
  return out;
}
std::int64_t checked_add(std::int64_t a, std::int64_t b) {
  std::int64_t out = 0;
  PVR_REQUIRE(!__builtin_add_overflow(a, b, &out),
              "netCDF size overflows 64 bits");
  return out;
}

std::int64_t pad4(std::int64_t n) {
  return checked_add(n, 3) & ~std::int64_t{3};
}

/// Big-endian byte stream writer.
class Writer {
 public:
  explicit Writer(Version version) : version_(version) {}

  void u8(std::uint8_t v) { bytes_.push_back(std::byte{v}); }
  void u32(std::uint32_t v) {
    for (int s = 24; s >= 0; s -= 8) u8(std::uint8_t(v >> s));
  }
  void u64(std::uint64_t v) {
    for (int s = 56; s >= 0; s -= 8) u8(std::uint8_t(v >> s));
  }
  /// NON_NEG: 32-bit in CDF-1/2, 64-bit in CDF-5.
  void non_neg(std::int64_t v) {
    PVR_ASSERT(v >= 0);
    if (version_ == Version::k64BitData) {
      u64(std::uint64_t(v));
    } else {
      PVR_REQUIRE(v <= kNonRecordLimit32, "value exceeds 32-bit NON_NEG");
      u32(std::uint32_t(v));
    }
  }
  /// OFFSET: 32-bit in CDF-1, 64-bit in CDF-2/5.
  void offset(std::int64_t v) {
    PVR_ASSERT(v >= 0);
    if (version_ == Version::kClassic) {
      PVR_REQUIRE(v <= kNonRecordLimit32,
                  "offset exceeds CDF-1 32-bit limit; use CDF-2 or CDF-5");
      u32(std::uint32_t(v));
    } else {
      u64(std::uint64_t(v));
    }
  }
  void name(const std::string& s) {
    non_neg(std::int64_t(s.size()));
    for (char c : s) u8(std::uint8_t(c));
    for (std::int64_t i = std::int64_t(s.size()); i < pad4(std::int64_t(s.size())); ++i) {
      u8(0);
    }
  }
  void raw_padded(std::span<const std::byte> data) {
    bytes_.insert(bytes_.end(), data.begin(), data.end());
    const auto padded = pad4(std::int64_t(data.size()));
    for (std::int64_t i = std::int64_t(data.size()); i < padded; ++i) u8(0);
  }

  std::vector<std::byte> take() { return std::move(bytes_); }

 private:
  Version version_;
  std::vector<std::byte> bytes_;
};

/// Big-endian byte stream reader.
class Reader {
 public:
  Reader(std::span<const std::byte> bytes, Version version)
      : bytes_(bytes), version_(version) {}

  void set_version(Version v) { version_ = v; }

  std::uint8_t u8() {
    PVR_REQUIRE(pos_ < bytes_.size(), "truncated netCDF header");
    return std::uint8_t(bytes_[pos_++]);
  }
  std::uint32_t u32() {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v = (v << 8) | u8();
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v = (v << 8) | u8();
    return v;
  }
  /// NON_NEG; a CDF-5 value with the top bit set is negative, rejected.
  std::int64_t non_neg() {
    if (version_ != Version::k64BitData) return std::int64_t(u32());
    const std::uint64_t v = u64();
    PVR_REQUIRE(v <= std::uint64_t(std::numeric_limits<std::int64_t>::max()),
                "negative netCDF count or length");
    return std::int64_t(v);
  }
  /// A list or byte count: a NON_NEG no larger than the bytes left, since
  /// every list element and every byte takes at least one byte of header.
  /// Nothing is allocated from a count before this check.
  std::int64_t count() {
    const std::int64_t n = non_neg();
    PVR_REQUIRE(n <= remaining(), "netCDF count exceeds the header bytes");
    return n;
  }
  std::int64_t remaining() const { return std::int64_t(bytes_.size() - pos_); }
  /// OFFSET; a CDF-2/5 value with the top bit set is negative, rejected.
  std::int64_t offset() {
    if (version_ == Version::kClassic) return std::int64_t(u32());
    const std::uint64_t v = u64();
    PVR_REQUIRE(v <= std::uint64_t(std::numeric_limits<std::int64_t>::max()),
                "negative netCDF offset");
    return std::int64_t(v);
  }
  std::string name() {
    const std::int64_t len = count();
    PVR_REQUIRE(len < (1 << 20), "unreasonable name length");
    std::string s;
    for (std::int64_t i = 0; i < len; ++i) s.push_back(char(u8()));
    for (std::int64_t i = len; i < pad4(len); ++i) u8();
    return s;
  }
  /// `n` bytes plus padding; `n` must already be checked against remaining().
  std::vector<std::byte> raw_padded(std::int64_t n) {
    std::vector<std::byte> out;
    for (std::int64_t i = 0; i < n; ++i) out.push_back(std::byte{u8()});
    for (std::int64_t i = n; i < pad4(n); ++i) u8();
    return out;
  }

 private:
  std::span<const std::byte> bytes_;
  Version version_;
  std::size_t pos_ = 0;
};

void encode_attr_list(Writer& w, const std::vector<Attr>& attrs) {
  if (attrs.empty()) {
    // ABSENT: ZERO ZERO (tag and nelems both zero-filled).
    w.u32(0);
    w.non_neg(0);
    return;
  }
  w.u32(std::uint32_t(kTagAttribute));
  w.non_neg(std::int64_t(attrs.size()));
  for (const Attr& a : attrs) {
    w.name(a.name);
    w.u32(std::uint32_t(a.type));
    w.non_neg(a.nelems);
    PVR_REQUIRE(std::int64_t(a.values.size()) == a.nelems * type_size(a.type),
                "attribute value size mismatch");
    w.raw_padded(a.values);
  }
}

std::vector<Attr> decode_attr_list(Reader& r) {
  const std::uint32_t tag = r.u32();
  const std::int64_t nelems = r.count();
  if (tag == 0) {
    PVR_REQUIRE(nelems == 0, "ABSENT attr list with nonzero count");
    return {};
  }
  PVR_REQUIRE(tag == std::uint32_t(kTagAttribute), "bad attribute tag");
  std::vector<Attr> attrs;
  for (std::int64_t i = 0; i < nelems; ++i) {
    Attr a;
    a.name = r.name();
    a.type = NcType(r.u32());
    const std::int64_t size = type_size(a.type);
    a.nelems = r.count();
    PVR_REQUIRE(a.nelems <= r.remaining() / size,
                "netCDF attribute exceeds the header bytes");
    a.values = r.raw_padded(a.nelems * size);
    attrs.push_back(std::move(a));
  }
  return attrs;
}

}  // namespace

std::int64_t type_size(NcType t) {
  switch (t) {
    case NcType::kByte:
    case NcType::kChar:
      return 1;
    case NcType::kShort:
      return 2;
    case NcType::kInt:
    case NcType::kFloat:
      return 4;
    case NcType::kDouble:
      return 8;
  }
  throw Error("unknown nc_type");
}

Attr Attr::text(const std::string& name, const std::string& value) {
  Attr a;
  a.name = name;
  a.type = NcType::kChar;
  a.nelems = std::int64_t(value.size());
  a.values.resize(value.size());
  std::memcpy(a.values.data(), value.data(), value.size());
  return a;
}

Attr Attr::real(const std::string& name, std::span<const float> values) {
  Attr a;
  a.name = name;
  a.type = NcType::kFloat;
  a.nelems = std::int64_t(values.size());
  a.values.resize(values.size() * 4);
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::uint32_t bits;
    std::memcpy(&bits, &values[i], 4);
    for (int b = 0; b < 4; ++b) {
      a.values[i * 4 + std::size_t(b)] = std::byte(bits >> (24 - 8 * b));
    }
  }
  return a;
}

File::File(Version version, std::vector<Dim> dims,
           std::vector<Attr> global_attrs, std::vector<Var> vars,
           std::int64_t numrecs)
    : version_(version),
      dims_(std::move(dims)),
      global_attrs_(std::move(global_attrs)),
      vars_(std::move(vars)),
      numrecs_(numrecs) {
  PVR_REQUIRE(numrecs >= 0, "numrecs must be >= 0");
  int record_dims = 0;
  for (const Dim& d : dims_) record_dims += d.is_record() ? 1 : 0;
  PVR_REQUIRE(record_dims <= 1, "at most one record dimension");
  finalize();
}

void File::finalize() {
  // vsize: product of non-record dimension lengths times the type size,
  // padded to 4 bytes. For a record variable the record dimension (which
  // must be the first) is excluded.
  std::int64_t num_record_vars = 0;
  for (Var& v : vars_) {
    std::int64_t elems = 1;
    v.is_record = false;
    for (std::size_t i = 0; i < v.dimids.size(); ++i) {
      const int dimid = v.dimids[i];
      PVR_REQUIRE(dimid >= 0 && dimid < int(dims_.size()),
                  "variable references unknown dimension");
      const Dim& d = dims_[std::size_t(dimid)];
      if (d.is_record()) {
        PVR_REQUIRE(i == 0, "record dimension must be the first dimension");
        v.is_record = true;
        continue;
      }
      elems = checked_mul(elems, d.length);
    }
    v.vsize = pad4(checked_mul(elems, type_size(v.type)));
    if (v.is_record) ++num_record_vars;
    if (!v.is_record && version_ != Version::k64BitData) {
      // The 32-bit vsize field caps non-record variables at 4 GiB in
      // CDF-1/2 — the limit that forces record variables in the paper.
      PVR_REQUIRE(v.vsize <= kNonRecordLimit32,
                  "non-record variable exceeds 4 GiB; CDF-1/2 cannot store "
                  "it (use record variables or CDF-5)");
    }
  }
  // Spec quirk: when there is exactly one record variable, its vsize is not
  // padded, so records pack tightly.
  if (num_record_vars == 1) {
    for (Var& v : vars_) {
      if (!v.is_record) continue;
      std::int64_t elems = 1;
      for (std::size_t i = 1; i < v.dimids.size(); ++i) {
        elems *= dims_[std::size_t(v.dimids[i])].length;
      }
      v.vsize = elems * type_size(v.type);
    }
  }

  // Header size does not depend on the begin values (fixed-width OFFSET
  // fields), so encode once with zeros to measure.
  header_bytes_ = std::int64_t(encode_header().size());

  // Non-record variables first, in definition order; then record variables.
  std::int64_t pos = header_bytes_;
  for (Var& v : vars_) {
    if (v.is_record) continue;
    v.begin = pos;
    pos = checked_add(pos, v.vsize);
  }
  record_size_ = 0;
  for (Var& v : vars_) {
    if (!v.is_record) continue;
    v.begin = checked_add(pos, record_size_);
    record_size_ = checked_add(record_size_, v.vsize);
  }
  // file_bytes() must be representable too.
  checked_add(pos, checked_mul(record_size_, numrecs_));
}

std::int64_t File::file_bytes() const {
  std::int64_t fixed_end = header_bytes_;
  for (const Var& v : vars_) {
    if (!v.is_record) fixed_end = std::max(fixed_end, v.begin + v.vsize);
  }
  return fixed_end + record_size_ * numrecs_;
}

std::int64_t File::data_offset(int var, std::int64_t record) const {
  PVR_REQUIRE(var >= 0 && var < int(vars_.size()), "variable out of range");
  const Var& v = vars_[std::size_t(var)];
  if (!v.is_record) return v.begin;
  PVR_REQUIRE(record >= 0 && record < numrecs_, "record out of range");
  return v.begin + record * record_size_;
}

int File::var_index(const std::string& name) const {
  for (std::size_t i = 0; i < vars_.size(); ++i) {
    if (vars_[i].name == name) return int(i);
  }
  throw Error("no such netCDF variable: " + name);
}

std::vector<std::byte> File::encode_header() const {
  Writer w(version_);
  w.u8('C');
  w.u8('D');
  w.u8('F');
  w.u8(std::uint8_t(version_));
  if (version_ == Version::k64BitData) {
    w.u64(std::uint64_t(numrecs_));
  } else {
    w.u32(std::uint32_t(numrecs_));
  }
  // dim_list
  if (dims_.empty()) {
    w.u32(0);
    w.non_neg(0);
  } else {
    w.u32(std::uint32_t(kTagDimension));
    w.non_neg(std::int64_t(dims_.size()));
    for (const Dim& d : dims_) {
      w.name(d.name);
      w.non_neg(d.length);
    }
  }
  encode_attr_list(w, global_attrs_);
  // var_list
  if (vars_.empty()) {
    w.u32(0);
    w.non_neg(0);
  } else {
    w.u32(std::uint32_t(kTagVariable));
    w.non_neg(std::int64_t(vars_.size()));
    for (const Var& v : vars_) {
      w.name(v.name);
      w.non_neg(std::int64_t(v.dimids.size()));
      for (int dimid : v.dimids) w.u32(std::uint32_t(dimid));
      encode_attr_list(w, v.attrs);
      w.u32(std::uint32_t(v.type));
      w.non_neg(v.vsize);
      w.offset(v.begin);
    }
  }
  return w.take();
}

File File::decode_header(std::span<const std::byte> bytes) {
  PVR_REQUIRE(bytes.size() >= 8, "file too small for a netCDF header");
  PVR_REQUIRE(char(bytes[0]) == 'C' && char(bytes[1]) == 'D' &&
                  char(bytes[2]) == 'F',
              "not a netCDF classic file (bad magic)");
  const auto vbyte = std::uint8_t(bytes[3]);
  PVR_REQUIRE(vbyte == 1 || vbyte == 2 || vbyte == 5,
              "unsupported netCDF version byte");
  const auto version = Version(vbyte);

  Reader r(bytes, version);
  r.u32();  // skip magic+version (4 bytes)
  const std::int64_t numrecs = version == Version::k64BitData
                                   ? std::int64_t(r.u64())
                                   : std::int64_t(r.u32());

  std::vector<Dim> dims;
  {
    const std::uint32_t tag = r.u32();
    const std::int64_t nelems = r.count();
    if (tag != 0) {
      PVR_REQUIRE(tag == std::uint32_t(kTagDimension), "bad dimension tag");
      for (std::int64_t i = 0; i < nelems; ++i) {
        Dim d;
        d.name = r.name();
        d.length = r.non_neg();
        dims.push_back(std::move(d));
      }
    } else {
      PVR_REQUIRE(nelems == 0, "ABSENT dim list with nonzero count");
    }
  }
  std::vector<Attr> gatts = decode_attr_list(r);
  std::vector<Var> vars;
  {
    const std::uint32_t tag = r.u32();
    const std::int64_t nelems = r.count();
    if (tag != 0) {
      PVR_REQUIRE(tag == std::uint32_t(kTagVariable), "bad variable tag");
      for (std::int64_t i = 0; i < nelems; ++i) {
        Var v;
        v.name = r.name();
        const std::int64_t ndims = r.count();
        PVR_REQUIRE(ndims <= 1024, "unreasonable ndims");
        for (std::int64_t d = 0; d < ndims; ++d) {
          v.dimids.push_back(int(r.u32()));
        }
        v.attrs = decode_attr_list(r);
        v.type = NcType(r.u32());
        type_size(v.type);  // validates
        v.vsize = r.non_neg();
        v.begin = r.offset();
        vars.push_back(std::move(v));
      }
    } else {
      PVR_REQUIRE(nelems == 0, "ABSENT var list with nonzero count");
    }
  }

  // Re-deriving the layout must reproduce the parsed begin/vsize values;
  // this cross-checks both the file and the codec.
  File file(version, std::move(dims), std::move(gatts), vars, numrecs);
  for (std::size_t i = 0; i < vars.size(); ++i) {
    PVR_REQUIRE(file.vars_[i].vsize == vars[i].vsize,
                "netCDF header vsize inconsistent with layout rules");
    PVR_REQUIRE(file.vars_[i].begin == vars[i].begin,
                "netCDF header begin inconsistent with layout rules");
  }
  return file;
}

File make_volume_file(Version version, std::int64_t nx, std::int64_t ny,
                      std::int64_t nz, const std::vector<std::string>& names,
                      bool record_z) {
  PVR_REQUIRE(nx > 0 && ny > 0 && nz > 0, "volume dims must be positive");
  PVR_REQUIRE(!names.empty(), "need at least one variable");
  std::vector<Dim> dims = {
      {"z", record_z ? 0 : nz}, {"y", ny}, {"x", nx}};
  std::vector<Attr> gatts = {
      Attr::text("title", "pvr synthetic supernova time step"),
      Attr::text("source", "VH-1-style layout, pvr reproduction")};
  std::vector<Var> vars;
  for (const std::string& name : names) {
    Var v;
    v.name = name;
    v.dimids = {0, 1, 2};  // (z, y, x), z varies slowest
    v.type = NcType::kFloat;
    v.attrs = {Attr::text("units", "code units")};
    vars.push_back(std::move(v));
  }
  return File(version, std::move(dims), std::move(gatts), std::move(vars),
              record_z ? nz : 0);
}

}  // namespace pvr::format::netcdf
