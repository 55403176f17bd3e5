#include "data/upsample.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace pvr::data {

namespace {

/// Clamped source coordinate and interpolation weight for destination index
/// i under the voxel-center convention.
struct Tap {
  std::int64_t i0, i1;
  float w;  ///< weight of i1
};

Tap tap_for(std::int64_t i, int factor, std::int64_t src_extent) {
  const double s = (double(i) + 0.5) / double(factor) - 0.5;
  const double fl = std::floor(s);
  Tap t;
  t.i0 = std::clamp<std::int64_t>(std::int64_t(fl), 0, src_extent - 1);
  t.i1 = std::clamp<std::int64_t>(t.i0 + 1, 0, src_extent - 1);
  t.w = float(std::clamp(s - fl, 0.0, 1.0));
  if (std::int64_t(fl) < 0) t.w = 0.0f;
  if (std::int64_t(fl) >= src_extent - 1) t.w = 0.0f;
  return t;
}

}  // namespace

void upsample_brick(const Brick& src, const Vec3i& src_dims, int factor,
                    Brick* dst) {
  PVR_REQUIRE(dst != nullptr, "null destination");
  PVR_REQUIRE(factor >= 1, "factor must be >= 1");
  const Box3i& d = dst->box();
  const Box3i& s = src.box();
  PVR_REQUIRE(s.lo * std::int64_t(factor) == d.lo &&
                  s.hi * std::int64_t(factor) == d.hi,
              "destination box must be factor * source box");
  (void)src_dims;
  for (std::int64_t z = d.lo.z; z < d.hi.z; ++z) {
    const Tap tz = tap_for(z, factor, s.hi.z);
    const Tap tz_local{std::max(tz.i0, s.lo.z), std::max(tz.i1, s.lo.z),
                       tz.w};
    for (std::int64_t y = d.lo.y; y < d.hi.y; ++y) {
      const Tap ty = tap_for(y, factor, s.hi.y);
      const Tap ty_local{std::max(ty.i0, s.lo.y), std::max(ty.i1, s.lo.y),
                         ty.w};
      for (std::int64_t x = d.lo.x; x < d.hi.x; ++x) {
        const Tap tx = tap_for(x, factor, s.hi.x);
        const Tap tx_local{std::max(tx.i0, s.lo.x), std::max(tx.i1, s.lo.x),
                           tx.w};
        const float c00 =
            src.at(tx_local.i0, ty_local.i0, tz_local.i0) * (1 - tx_local.w) +
            src.at(tx_local.i1, ty_local.i0, tz_local.i0) * tx_local.w;
        const float c10 =
            src.at(tx_local.i0, ty_local.i1, tz_local.i0) * (1 - tx_local.w) +
            src.at(tx_local.i1, ty_local.i1, tz_local.i0) * tx_local.w;
        const float c01 =
            src.at(tx_local.i0, ty_local.i0, tz_local.i1) * (1 - tx_local.w) +
            src.at(tx_local.i1, ty_local.i0, tz_local.i1) * tx_local.w;
        const float c11 =
            src.at(tx_local.i0, ty_local.i1, tz_local.i1) * (1 - tx_local.w) +
            src.at(tx_local.i1, ty_local.i1, tz_local.i1) * tx_local.w;
        const float c0 = c00 + ty_local.w * (c10 - c00);
        const float c1 = c01 + ty_local.w * (c11 - c01);
        dst->at(x, y, z) = c0 + tz_local.w * (c1 - c0);
      }
    }
  }
}

void upsample_dataset(const format::VolumeLayout& src_layout,
                      const format::FileHandle& src_file, int factor,
                      const format::VolumeLayout& dst_layout,
                      format::FileHandle* dst_file) {
  PVR_REQUIRE(dst_file != nullptr, "null destination file");
  PVR_REQUIRE(factor >= 1, "factor must be >= 1");
  const format::DatasetDesc& sd = src_layout.desc();
  const format::DatasetDesc& dd = dst_layout.desc();
  PVR_REQUIRE(dd.dims == sd.dims * std::int64_t(factor),
              "destination dims must be factor * source dims");
  PVR_REQUIRE(dd.variables == sd.variables, "variable sets must match");

  const std::size_t s_elems = std::size_t(sd.dims.x * sd.dims.y);
  std::vector<std::byte> raw(s_elems * 4);
  // Per variable, the two source slices that bracket the destination slice.
  struct Bracket {
    std::vector<float> s0, s1;
    std::int64_t z0 = -1, z1 = -1;
  };
  std::vector<Bracket> loaded(
      std::size_t(sd.num_variables()),
      Bracket{std::vector<float>(s_elems), std::vector<float>(s_elems)});

  const auto load_slice = [&](int var, std::int64_t z, std::vector<float>* out) {
    src_file.read_at(src_layout.element_offset(var, {0, 0, z}), raw);
    if (src_layout.big_endian_data()) {
      format::big_endian_to_floats(raw, *out);
    } else {
      std::memcpy(out->data(), raw.data(), raw.size());
    }
  };

  write_dataset(
      dst_layout,
      [&](std::int64_t z, std::span<const std::span<float>> slices) {
        const Tap tz = tap_for(z, factor, sd.dims.z);
        for (int var = 0; var < int(sd.num_variables()); ++var) {
          Bracket& br = loaded[std::size_t(var)];
          // The bracket moves by at most one source slice per destination
          // slice: the old upper slice becomes the new lower one, so each
          // source slice is read once.
          if (tz.i0 == br.z1) {
            std::swap(br.s0, br.s1);
            std::swap(br.z0, br.z1);
          } else if (tz.i0 != br.z0) {
            load_slice(var, tz.i0, &br.s0);
            br.z0 = tz.i0;
          }
          if (tz.i1 != br.z1) {
            if (tz.i1 == tz.i0) {
              br.s1 = br.s0;
            } else {
              load_slice(var, tz.i1, &br.s1);
            }
            br.z1 = tz.i1;
          }
          const auto src_at = [&](const std::vector<float>& sl,
                                  std::int64_t x, std::int64_t y) {
            return sl[std::size_t(y * sd.dims.x + x)];
          };
          const std::span<float> slice = slices[std::size_t(var)];
          std::size_t i = 0;
          for (std::int64_t y = 0; y < dd.dims.y; ++y) {
            const Tap ty = tap_for(y, factor, sd.dims.y);
            for (std::int64_t x = 0; x < dd.dims.x; ++x) {
              const Tap tx = tap_for(x, factor, sd.dims.x);
              const float a0 = src_at(br.s0, tx.i0, ty.i0) * (1 - tx.w) +
                               src_at(br.s0, tx.i1, ty.i0) * tx.w;
              const float a1 = src_at(br.s0, tx.i0, ty.i1) * (1 - tx.w) +
                               src_at(br.s0, tx.i1, ty.i1) * tx.w;
              const float b0 = src_at(br.s1, tx.i0, ty.i0) * (1 - tx.w) +
                               src_at(br.s1, tx.i1, ty.i0) * tx.w;
              const float b1 = src_at(br.s1, tx.i0, ty.i1) * (1 - tx.w) +
                               src_at(br.s1, tx.i1, ty.i1) * tx.w;
              const float a = a0 + ty.w * (a1 - a0);
              const float b = b0 + ty.w * (b1 - b0);
              slice[i++] = a + tz.w * (b - a);
            }
          }
        }
      },
      dst_file);
}

}  // namespace pvr::data
