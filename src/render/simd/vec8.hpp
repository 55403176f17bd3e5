// 8-lane vector wrapper for the ray-packet raycasting kernel.
//
// One implementation: GCC/Clang `vector_size` types. Every operation is
// element-wise IEEE arithmetic — lane i of `a + b * c` is bit-identical to
// the scalar expression on lane i's values, which is what lets the packet
// kernel promise bitwise equality with its per-ray oracle (the kernel
// translation units are compiled with -ffp-contract=off so neither fuses
// multiply-adds). The PVR_SIMD cmake option picks the target ISA, and the
// wrapper selects instructions for it: AVX-512 forms, AVX on 256-bit
// halves, AVX2 gathers, and below AVX generic per-lane floor, ceil, sqrt,
// any, popcount and gathers. Instruction selection never changes a bit.
//
// Masks come in two widths, both 0 (false) or -1 (all bits, true) per lane:
// Int8 for float and int32 lanes, Mask64 for double lanes (the native width
// of a double comparison). `select(m, a, b)` picks a where m is true —
// exactly one of the two values, never a blend — so masked arithmetic
// preserves bitwise equality lane by lane. Double work selects on Mask64
// and narrows to Int8 only where it meets float or int32 lanes: GCC 12
// lowers each Int8-masked double select to a widening shuffle.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>

#if !defined(__clang__) && !defined(__GNUC__)
#error "vec8.hpp needs the GCC/Clang vector extensions"
#endif

#if defined(__AVX__)
// GCC 12 flags the _mm512_undefined_* temporaries inside the AVX-512
// gather intrinsics that gather_pairs inlines as -Wmaybe-uninitialized
// (GCC bug 105593); silence it for the intrinsics header only.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
#include <immintrin.h>
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
#endif

namespace pvr::render::simd {

inline constexpr int kLanes = 8;

namespace detail {
typedef float vf8 __attribute__((vector_size(32)));
typedef std::int32_t vi8 __attribute__((vector_size(32)));
typedef double vd8 __attribute__((vector_size(64)));
typedef std::int64_t vl8 __attribute__((vector_size(64)));
typedef double vd4 __attribute__((vector_size(32)));
}  // namespace detail

/// 8 int32 lanes; also the mask type of float and int32 lanes.
struct Int8 {
  detail::vi8 v;

  static Int8 broadcast(std::int32_t x) {
    return {detail::vi8{x, x, x, x, x, x, x, x}};
  }
  std::int32_t lane(int i) const { return v[i]; }
  void set_lane(int i, std::int32_t x) { v[i] = x; }

  Int8 operator&(const Int8& o) const { return {v & o.v}; }
  Int8 operator~() const { return {~v}; }

  Int8 operator+(const Int8& o) const { return {v + o.v}; }
  Int8 operator-(const Int8& o) const { return {v - o.v}; }
  Int8 operator*(const Int8& o) const { return {v * o.v}; }
  Int8 operator<(const Int8& o) const { return {(detail::vi8)(v < o.v)}; }
  Int8 operator>(const Int8& o) const { return {(detail::vi8)(v > o.v)}; }
};

/// 8 float lanes.
struct Float8 {
  detail::vf8 v;

  static Float8 broadcast(float x) {
    return {detail::vf8{x, x, x, x, x, x, x, x}};
  }
  /// Lanes p[0..7]; p need not be aligned.
  static Float8 load(const float* p) {
    Float8 r;
    std::memcpy(&r.v, p, sizeof r.v);
    return r;
  }
  float lane(int i) const { return v[i]; }
  void set_lane(int i, float x) { v[i] = x; }

  Float8 operator+(const Float8& o) const { return {v + o.v}; }
  Float8 operator-(const Float8& o) const { return {v - o.v}; }
  Float8 operator*(const Float8& o) const { return {v * o.v}; }
  Float8 operator/(const Float8& o) const { return {v / o.v}; }
  Int8 operator>=(const Float8& o) const {
    return {(detail::vi8)(v >= o.v)};
  }
  Int8 operator<(const Float8& o) const {
    return {(detail::vi8)(v < o.v)};
  }
};

/// 8 double lanes (two 256-bit halves on AVX2; element-wise either way).
struct Double8 {
  detail::vd8 v;

  static Double8 broadcast(double x) {
    return {detail::vd8{x, x, x, x, x, x, x, x}};
  }
  double lane(int i) const { return v[i]; }
  void set_lane(int i, double x) { v[i] = x; }

  Double8 operator+(const Double8& o) const { return {v + o.v}; }
  Double8 operator-(const Double8& o) const { return {v - o.v}; }
  Double8 operator*(const Double8& o) const { return {v * o.v}; }
  Double8 operator/(const Double8& o) const { return {v / o.v}; }
};

/// 8 int64 mask lanes (0 / -1): the native width of a double comparison.
/// Chains of double compares combine in this domain and narrow to an Int8
/// mask once, instead of paying a narrowing shuffle per compare.
struct Mask64 {
  detail::vl8 v;
  Mask64 operator&(const Mask64& o) const { return {v & o.v}; }
  Mask64 operator|(const Mask64& o) const { return {v | o.v}; }
  Mask64 operator~() const { return {~v}; }
};

#if defined(__AVX__) && !defined(__AVX512F__)
#define PVR_SIMD_HALVES 1
// Below AVX-512, GCC 12 splits 8-lane double arithmetic into two 256-bit
// halves but lowers 8-lane double compares and Mask64 selects lane by lane
// (scalar compares and branches). Those are written on the halves, where
// each is one AVX instruction. The helpers return the 8-lane structs, not
// raw 64-byte vectors, whose by-value ABI differs below AVX-512.
namespace detail {
typedef std::int64_t vl4 __attribute__((vector_size(32)));
inline vd4 lo(const vd8& x) {
  return __builtin_shufflevector(x, x, 0, 1, 2, 3);
}
inline vd4 hi(const vd8& x) {
  return __builtin_shufflevector(x, x, 4, 5, 6, 7);
}
inline vl4 lo(const vl8& x) {
  return __builtin_shufflevector(x, x, 0, 1, 2, 3);
}
inline vl4 hi(const vl8& x) {
  return __builtin_shufflevector(x, x, 4, 5, 6, 7);
}
inline Double8 join(const vd4& a, const vd4& b) {
  return {__builtin_shufflevector(a, b, 0, 1, 2, 3, 4, 5, 6, 7)};
}
inline Mask64 join(const vl4& a, const vl4& b) {
  return {__builtin_shufflevector(a, b, 0, 1, 2, 3, 4, 5, 6, 7)};
}
}  // namespace detail
#define PVR_SIMD_MASK64_CMP(a, b, op)                      \
  detail::join(detail::lo(a.v) op detail::lo(b.v),         \
               detail::hi(a.v) op detail::hi(b.v))
#else
#define PVR_SIMD_MASK64_CMP(a, b, op) Mask64{a.v op b.v}
#endif

inline Mask64 mask_gt(const Double8& a, const Double8& b) {
  return PVR_SIMD_MASK64_CMP(a, b, >);
}
inline Mask64 mask_ge(const Double8& a, const Double8& b) {
  return PVR_SIMD_MASK64_CMP(a, b, >=);
}
inline Mask64 mask_lt(const Double8& a, const Double8& b) {
  return PVR_SIMD_MASK64_CMP(a, b, <);
}
#undef PVR_SIMD_MASK64_CMP
inline Int8 narrow(const Mask64& m) {
  return {__builtin_convertvector(m.v, detail::vi8)};
}

inline Float8 select(const Int8& m, const Float8& a, const Float8& b) {
  return {m.v != 0 ? a.v : b.v};
}
inline Double8 select(const Mask64& m, const Double8& a, const Double8& b) {
#if defined(PVR_SIMD_HALVES)
  using detail::hi, detail::lo;
  return detail::join(lo(m.v) != 0 ? lo(a.v) : lo(b.v),
                      hi(m.v) != 0 ? hi(a.v) : hi(b.v));
#else
  return {m.v != 0 ? a.v : b.v};
#endif
}

/// table.lane(idx.lane(i)) per lane: one vpermps on AVX2 and AVX-512.
/// Every idx lane must lie in [0, 8).
inline Float8 permute(const Float8& table, const Int8& idx) {
  return {__builtin_shuffle(table.v, idx.v)};
}

/// Truncation toward zero, exact for |x| < 2^31: one cvttpd2dq (the kernel
/// keeps its index math in int32, whose conversion is native down to
/// SSE2). Lanes outside int32 have no defined result.
inline Int8 to_int(const Double8& x) {
  return {__builtin_convertvector(x.v, detail::vi8)};
}
inline Float8 to_float(const Double8& x) {
  return {__builtin_convertvector(x.v, detail::vf8)};
}

namespace detail {
#if defined(PVR_SIMD_HALVES)
/// Applies a 4-lane AVX intrinsic to both halves of a Double8.
template <typename Op>
inline Double8 by_halves(const Double8& x, Op op) {
  return join(op((__m256d)lo(x.v)), op((__m256d)hi(x.v)));
}
#endif
/// `fn` per lane: the fallback below AVX, where std::floor, std::ceil and
/// std::sqrt are exactly rounded one lane at a time.
template <typename Fn>
inline Double8 per_lane(const Double8& x, Fn fn) {
  Double8 r;
  for (int i = 0; i < kLanes; ++i) r.v[i] = fn(x.v[i]);
  return r;
}
}  // namespace detail

/// Rounding to integral and square root, exactly rounded, so every lane
/// equals std::floor / std::ceil / std::sqrt of its value bitwise (signed
/// zeros, infinities and NaNs included): roundscale/vsqrtpd on AVX-512,
/// vroundpd/vsqrtpd per 256-bit half on AVX. The AVX-512 forms are the
/// zero-masking ones under an all-lanes mask: the unmasked intrinsics pass
/// _mm512_undefined_pd, which GCC 12 reports as used uninitialized.
#if defined(__AVX512F__)
inline constexpr __mmask8 kAllLanes = 0xff;
#endif
inline Double8 floor(const Double8& x) {
#if defined(__AVX512F__)
  return {(detail::vd8)_mm512_maskz_roundscale_pd(
      kAllLanes, (__m512d)x.v, _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC)};
#elif defined(PVR_SIMD_HALVES)
  return detail::by_halves(x, [](__m256d h) {
    return (detail::vd4)_mm256_round_pd(
        h, _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
  });
#else
  return detail::per_lane(x, [](double d) { return std::floor(d); });
#endif
}
inline Double8 ceil(const Double8& x) {
#if defined(__AVX512F__)
  return {(detail::vd8)_mm512_maskz_roundscale_pd(
      kAllLanes, (__m512d)x.v, _MM_FROUND_TO_POS_INF | _MM_FROUND_NO_EXC)};
#elif defined(PVR_SIMD_HALVES)
  return detail::by_halves(x, [](__m256d h) {
    return (detail::vd4)_mm256_round_pd(
        h, _MM_FROUND_TO_POS_INF | _MM_FROUND_NO_EXC);
  });
#else
  return detail::per_lane(x, [](double d) { return std::ceil(d); });
#endif
}
inline Double8 sqrt(const Double8& x) {
#if defined(__AVX512F__)
  return {(detail::vd8)_mm512_maskz_sqrt_pd(kAllLanes, (__m512d)x.v)};
#elif defined(PVR_SIMD_HALVES)
  return detail::by_halves(
      x, [](__m256d h) { return (detail::vd4)_mm256_sqrt_pd(h); });
#else
  return detail::per_lane(x, [](double d) { return std::sqrt(d); });
#endif
}

/// Lane-occupancy tests. Mask lanes are 0 / -1, so the sign bits collected
/// by movmskps are exactly the lane truth bits; without AVX the fallback
/// OR/count loops have the same semantics.
inline bool any(const Int8& m) {
#if defined(__AVX__)
  return _mm256_movemask_ps((__m256)m.v) != 0;
#else
  const detail::vi8 v = m.v;
  return (v[0] | v[1] | v[2] | v[3] | v[4] | v[5] | v[6] | v[7]) != 0;
#endif
}

inline int popcount(const Int8& m) {
#if defined(__AVX__)
  return __builtin_popcount(unsigned(_mm256_movemask_ps((__m256)m.v)));
#else
  int n = 0;
  for (int i = 0; i < kLanes; ++i) n += m.v[i] != 0 ? 1 : 0;
  return n;
#endif
}

/// base[idx.lane(i)] per lane. Indices must be in-bounds for every lane.
/// Loads the same floats either way; the AVX2 path just issues them as one
/// hardware gather instead of eight extract/insert pairs.
inline Float8 gather(const float* base, const Int8& idx) {
#if defined(__AVX2__)
  return {(detail::vf8)_mm256_i32gather_ps(base, (__m256i)idx.v, 4)};
#else
  detail::vf8 r;
  for (int i = 0; i < kLanes; ++i) r[i] = base[idx.v[i]];
  return {r};
#endif
}

/// base[idx.lane(i)] into *lo and base[idx.lane(i) + 1] into *hi, for
/// every lane (indices and their successors must be in-bounds). With AVX2
/// each adjacent pair is one 64-bit gather element and a permute splits the
/// halves, so 8 lanes cost 8 loads, not 16; the floats are the same.
inline void gather_pairs(const float* base, const Int8& idx, Float8* lo,
                         Float8* hi) {
#if defined(__AVX512F__)
  const __m512 g = _mm512_castpd_ps(_mm512_mask_i32gather_pd(
      _mm512_setzero_pd(), kAllLanes, (__m256i)idx.v, base, sizeof(float)));
  const __m512 split = _mm512_permutexvar_ps(
      _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 1, 3, 5, 7, 9, 11, 13, 15),
      g);
  *lo = {(detail::vf8)_mm512_castps512_ps256(split)};
  *hi = {(detail::vf8)_mm256_castpd_ps(
      _mm512_extractf64x4_pd(_mm512_castps_pd(split), 1))};
#elif defined(__AVX2__)
  const __m256i iv = (__m256i)idx.v;
  const double* pairs = reinterpret_cast<const double*>(base);
  const __m256 g0 = _mm256_castpd_ps(
      _mm256_i32gather_pd(pairs, _mm256_castsi256_si128(iv), sizeof(float)));
  const __m256 g1 = _mm256_castpd_ps(_mm256_i32gather_pd(
      pairs, _mm256_extracti128_si256(iv, 1), sizeof(float)));
  // Even floats of g0:g1 are the lo halves, odd ones the hi halves; the
  // in-lane shuffle leaves them in 64-bit order 0, 2, 1, 3.
  *lo = {(detail::vf8)_mm256_castpd_ps(_mm256_permute4x64_pd(
      _mm256_castps_pd(_mm256_shuffle_ps(g0, g1, 0x88)), 0xd8))};
  *hi = {(detail::vf8)_mm256_castpd_ps(_mm256_permute4x64_pd(
      _mm256_castps_pd(_mm256_shuffle_ps(g0, g1, 0xdd)), 0xd8))};
#else
  for (int i = 0; i < kLanes; ++i) {
    lo->set_lane(i, base[idx.lane(i)]);
    hi->set_lane(i, base[idx.lane(i) + 1]);
  }
#endif
}

#undef PVR_SIMD_HALVES

/// The configured PVR_SIMD target, for logs/benches.
inline const char* backend_name() {
#if defined(PVR_SIMD_AVX2)
  return "avx2";
#elif defined(PVR_SIMD_NATIVE)
  return "native";
#else
  return "baseline";
#endif
}

}  // namespace pvr::render::simd
