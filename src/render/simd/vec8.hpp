// Portable 8-lane vector wrapper for the ray-packet raycasting kernel.
//
// Two backends, selected at configure time via the PVR_SIMD cmake option:
//
//   * vector extensions (auto/avx2): GCC/Clang `vector_size` types. Every
//     operation is element-wise IEEE arithmetic — lane i of `a + b * c` is
//     bit-identical to the scalar expression on lane i's values, which is
//     what lets the packet kernel promise bitwise equality with the scalar
//     raycaster (the kernel translation units are compiled with
//     -ffp-contract=off so neither path fuses multiply-adds).
//   * scalar fallback (PVR_SIMD_SCALAR, or a compiler without the
//     extensions): plain arrays and lane loops with identical semantics.
//
// Masks are 32-bit integer lanes holding 0 (false) or -1 (all bits, true),
// matching the result of vector comparisons. `select(m, a, b)` picks a
// where m is true — exactly one of the two values, never a blend — so
// masked arithmetic preserves bitwise equality lane by lane.
#pragma once

#include <cmath>
#include <cstdint>

#if !defined(PVR_SIMD_SCALAR) && (defined(__clang__) || defined(__GNUC__))
#define PVR_SIMD_VECTOR_EXT 1
#endif

#if defined(PVR_SIMD_VECTOR_EXT) && defined(__AVX__)
// GCC 12 flags the _mm512_undefined_* temporaries inside the AVX-512
// intrinsics that gather2 inlines as -Wmaybe-uninitialized (GCC bug
// 105593); silence it for the intrinsics header only.
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

#if defined(PVR_SIMD_VECTOR_EXT)

namespace detail {
typedef float vf8 __attribute__((vector_size(32)));
typedef std::int32_t vi8 __attribute__((vector_size(32)));
typedef double vd8 __attribute__((vector_size(64)));
typedef std::int64_t vl8 __attribute__((vector_size(64)));
}  // namespace detail

/// 8 int32 lanes; also the mask type (0 / -1 per lane).
struct Int8 {
  detail::vi8 v;

  static Int8 broadcast(std::int32_t x) {
    return {detail::vi8{x, x, x, x, x, x, x, x}};
  }
  std::int32_t lane(int i) const { return v[i]; }
  void set_lane(int i, std::int32_t x) { v[i] = x; }

  Int8 operator&(const Int8& o) const { return {v & o.v}; }
  Int8 operator|(const Int8& o) const { return {v | o.v}; }
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

  Int8 operator>(const Double8& o) const {
    return {__builtin_convertvector(v > o.v, detail::vi8)};
  }
  Int8 operator>=(const Double8& o) const {
    return {__builtin_convertvector(v >= o.v, detail::vi8)};
  }
  Int8 operator<(const Double8& o) const {
    return {__builtin_convertvector(v < o.v, detail::vi8)};
  }
};

/// 8 int64 mask lanes (0 / -1): the native width of a double comparison.
/// Chains of double compares AND together in this domain and narrow to an
/// Int8 mask once, instead of paying a narrowing shuffle per compare.
struct Mask64 {
  detail::vl8 v;
  Mask64 operator&(const Mask64& o) const { return {v & o.v}; }
};

inline Mask64 mask_gt(const Double8& a, const Double8& b) {
  return {a.v > b.v};
}
inline Mask64 mask_ge(const Double8& a, const Double8& b) {
  return {a.v >= b.v};
}
inline Mask64 mask_lt(const Double8& a, const Double8& b) {
  return {a.v < b.v};
}
inline Int8 narrow(const Mask64& m) {
  return {__builtin_convertvector(m.v, detail::vi8)};
}

/// 8 int64 lanes (voxel indices).
struct Long8 {
  detail::vl8 v;

  static Long8 broadcast(std::int64_t x) {
    return {detail::vl8{x, x, x, x, x, x, x, x}};
  }
  std::int64_t lane(int i) const { return v[i]; }
  void set_lane(int i, std::int64_t x) { v[i] = x; }

  Long8 operator+(const Long8& o) const { return {v + o.v}; }
  Long8 operator-(const Long8& o) const { return {v - o.v}; }
  Long8 operator*(const Long8& o) const { return {v * o.v}; }
  Int8 operator<(const Long8& o) const {
    return {__builtin_convertvector(v < o.v, detail::vi8)};
  }
  Int8 operator>(const Long8& o) const {
    return {__builtin_convertvector(v > o.v, detail::vi8)};
  }
};

inline Float8 select(const Int8& m, const Float8& a, const Float8& b) {
  return {m.v != 0 ? a.v : b.v};
}
inline Double8 select(const Int8& m, const Double8& a, const Double8& b) {
  return {__builtin_convertvector(m.v, detail::vl8) != 0 ? a.v : b.v};
}
inline Long8 select(const Int8& m, const Long8& a, const Long8& b) {
  return {__builtin_convertvector(m.v, detail::vl8) != 0 ? a.v : b.v};
}
inline Int8 select(const Int8& m, const Int8& a, const Int8& b) {
  return {m.v != 0 ? a.v : b.v};
}

/// Truncation toward zero, exact for |x| < 2^63.
inline Long8 to_long(const Double8& x) {
  return {__builtin_convertvector(x.v, detail::vl8)};
}
inline Double8 to_double(const Long8& x) {
  return {__builtin_convertvector(x.v, detail::vd8)};
}
/// Truncation toward zero, exact for |x| < 2^31. Unlike the int64 pair
/// above, both directions are single native instructions down to SSE2
/// (cvttpd2dq / cvtdq2pd) — the hot kernel keeps all index math in int32
/// for this reason.
inline Int8 to_int(const Double8& x) {
  return {__builtin_convertvector(x.v, detail::vi8)};
}
inline Double8 to_double(const Int8& x) {
  return {__builtin_convertvector(x.v, detail::vd8)};
}
inline Float8 to_float(const Double8& x) {
  return {__builtin_convertvector(x.v, detail::vf8)};
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


#else  // scalar fallback -------------------------------------------------

struct Int8 {
  std::int32_t v[kLanes];

  static Int8 broadcast(std::int32_t x) {
    Int8 r;
    for (int i = 0; i < kLanes; ++i) r.v[i] = x;
    return r;
  }
  std::int32_t lane(int i) const { return v[i]; }
  void set_lane(int i, std::int32_t x) { v[i] = x; }

  Int8 operator&(const Int8& o) const {
    Int8 r;
    for (int i = 0; i < kLanes; ++i) r.v[i] = v[i] & o.v[i];
    return r;
  }
  Int8 operator|(const Int8& o) const {
    Int8 r;
    for (int i = 0; i < kLanes; ++i) r.v[i] = v[i] | o.v[i];
    return r;
  }
  Int8 operator~() const {
    Int8 r;
    for (int i = 0; i < kLanes; ++i) r.v[i] = ~v[i];
    return r;
  }
  Int8 operator+(const Int8& o) const {
    Int8 r;
    for (int i = 0; i < kLanes; ++i) r.v[i] = v[i] + o.v[i];
    return r;
  }
  Int8 operator-(const Int8& o) const {
    Int8 r;
    for (int i = 0; i < kLanes; ++i) r.v[i] = v[i] - o.v[i];
    return r;
  }
  Int8 operator*(const Int8& o) const {
    Int8 r;
    for (int i = 0; i < kLanes; ++i) r.v[i] = v[i] * o.v[i];
    return r;
  }
  Int8 operator<(const Int8& o) const {
    Int8 r;
    for (int i = 0; i < kLanes; ++i) r.v[i] = v[i] < o.v[i] ? -1 : 0;
    return r;
  }
  Int8 operator>(const Int8& o) const {
    Int8 r;
    for (int i = 0; i < kLanes; ++i) r.v[i] = v[i] > o.v[i] ? -1 : 0;
    return r;
  }
};

#define PVR_SIMD_LANEWISE(T, E, expr)                 \
  T r;                                                \
  for (int i = 0; i < kLanes; ++i) r.v[i] = E(expr);  \
  return r

struct Float8 {
  float v[kLanes];

  static Float8 broadcast(float x) {
    Float8 r;
    for (int i = 0; i < kLanes; ++i) r.v[i] = x;
    return r;
  }
  float lane(int i) const { return v[i]; }
  void set_lane(int i, float x) { v[i] = x; }

  Float8 operator+(const Float8& o) const {
    PVR_SIMD_LANEWISE(Float8, float, v[i] + o.v[i]);
  }
  Float8 operator-(const Float8& o) const {
    PVR_SIMD_LANEWISE(Float8, float, v[i] - o.v[i]);
  }
  Float8 operator*(const Float8& o) const {
    PVR_SIMD_LANEWISE(Float8, float, v[i] * o.v[i]);
  }
  Float8 operator/(const Float8& o) const {
    PVR_SIMD_LANEWISE(Float8, float, v[i] / o.v[i]);
  }
  Int8 operator>=(const Float8& o) const {
    PVR_SIMD_LANEWISE(Int8, std::int32_t, v[i] >= o.v[i] ? -1 : 0);
  }
  Int8 operator<(const Float8& o) const {
    PVR_SIMD_LANEWISE(Int8, std::int32_t, v[i] < o.v[i] ? -1 : 0);
  }
};

struct Double8 {
  double v[kLanes];

  static Double8 broadcast(double x) {
    Double8 r;
    for (int i = 0; i < kLanes; ++i) r.v[i] = x;
    return r;
  }
  double lane(int i) const { return v[i]; }
  void set_lane(int i, double x) { v[i] = x; }

  Double8 operator+(const Double8& o) const {
    PVR_SIMD_LANEWISE(Double8, double, v[i] + o.v[i]);
  }
  Double8 operator-(const Double8& o) const {
    PVR_SIMD_LANEWISE(Double8, double, v[i] - o.v[i]);
  }
  Double8 operator*(const Double8& o) const {
    PVR_SIMD_LANEWISE(Double8, double, v[i] * o.v[i]);
  }
  Double8 operator/(const Double8& o) const {
    PVR_SIMD_LANEWISE(Double8, double, v[i] / o.v[i]);
  }
  Int8 operator>(const Double8& o) const {
    PVR_SIMD_LANEWISE(Int8, std::int32_t, v[i] > o.v[i] ? -1 : 0);
  }
  Int8 operator>=(const Double8& o) const {
    PVR_SIMD_LANEWISE(Int8, std::int32_t, v[i] >= o.v[i] ? -1 : 0);
  }
  Int8 operator<(const Double8& o) const {
    PVR_SIMD_LANEWISE(Int8, std::int32_t, v[i] < o.v[i] ? -1 : 0);
  }
};

/// 8 int64 mask lanes; see the vector backend for the rationale. The
/// scalar fallback mirrors the API so kernel code stays backend-agnostic.
struct Mask64 {
  std::int64_t v[kLanes];
  Mask64 operator&(const Mask64& o) const {
    Mask64 r;
    for (int i = 0; i < kLanes; ++i) r.v[i] = v[i] & o.v[i];
    return r;
  }
};

inline Mask64 mask_gt(const Double8& a, const Double8& b) {
  Mask64 r;
  for (int i = 0; i < kLanes; ++i) r.v[i] = a.v[i] > b.v[i] ? -1 : 0;
  return r;
}
inline Mask64 mask_ge(const Double8& a, const Double8& b) {
  Mask64 r;
  for (int i = 0; i < kLanes; ++i) r.v[i] = a.v[i] >= b.v[i] ? -1 : 0;
  return r;
}
inline Mask64 mask_lt(const Double8& a, const Double8& b) {
  Mask64 r;
  for (int i = 0; i < kLanes; ++i) r.v[i] = a.v[i] < b.v[i] ? -1 : 0;
  return r;
}
inline Int8 narrow(const Mask64& m) {
  Int8 r;
  for (int i = 0; i < kLanes; ++i) r.v[i] = m.v[i] != 0 ? -1 : 0;
  return r;
}

struct Long8 {
  std::int64_t v[kLanes];

  static Long8 broadcast(std::int64_t x) {
    Long8 r;
    for (int i = 0; i < kLanes; ++i) r.v[i] = x;
    return r;
  }
  std::int64_t lane(int i) const { return v[i]; }
  void set_lane(int i, std::int64_t x) { v[i] = x; }

  Long8 operator+(const Long8& o) const {
    PVR_SIMD_LANEWISE(Long8, std::int64_t, v[i] + o.v[i]);
  }
  Long8 operator-(const Long8& o) const {
    PVR_SIMD_LANEWISE(Long8, std::int64_t, v[i] - o.v[i]);
  }
  Long8 operator*(const Long8& o) const {
    PVR_SIMD_LANEWISE(Long8, std::int64_t, v[i] * o.v[i]);
  }
  Int8 operator<(const Long8& o) const {
    PVR_SIMD_LANEWISE(Int8, std::int32_t, v[i] < o.v[i] ? -1 : 0);
  }
  Int8 operator>(const Long8& o) const {
    PVR_SIMD_LANEWISE(Int8, std::int32_t, v[i] > o.v[i] ? -1 : 0);
  }
};

#undef PVR_SIMD_LANEWISE

inline Float8 select(const Int8& m, const Float8& a, const Float8& b) {
  Float8 r;
  for (int i = 0; i < kLanes; ++i) r.v[i] = m.v[i] != 0 ? a.v[i] : b.v[i];
  return r;
}
inline Double8 select(const Int8& m, const Double8& a, const Double8& b) {
  Double8 r;
  for (int i = 0; i < kLanes; ++i) r.v[i] = m.v[i] != 0 ? a.v[i] : b.v[i];
  return r;
}
inline Long8 select(const Int8& m, const Long8& a, const Long8& b) {
  Long8 r;
  for (int i = 0; i < kLanes; ++i) r.v[i] = m.v[i] != 0 ? a.v[i] : b.v[i];
  return r;
}
inline Int8 select(const Int8& m, const Int8& a, const Int8& b) {
  Int8 r;
  for (int i = 0; i < kLanes; ++i) r.v[i] = m.v[i] != 0 ? a.v[i] : b.v[i];
  return r;
}

inline Long8 to_long(const Double8& x) {
  Long8 r;
  for (int i = 0; i < kLanes; ++i) r.v[i] = std::int64_t(x.v[i]);
  return r;
}
inline Double8 to_double(const Long8& x) {
  Double8 r;
  for (int i = 0; i < kLanes; ++i) r.v[i] = double(x.v[i]);
  return r;
}
inline Int8 to_int(const Double8& x) {
  Int8 r;
  for (int i = 0; i < kLanes; ++i) r.v[i] = std::int32_t(x.v[i]);
  return r;
}
inline Double8 to_double(const Int8& x) {
  Double8 r;
  for (int i = 0; i < kLanes; ++i) r.v[i] = double(x.v[i]);
  return r;
}
inline Float8 to_float(const Double8& x) {
  Float8 r;
  for (int i = 0; i < kLanes; ++i) r.v[i] = float(x.v[i]);
  return r;
}

inline bool any(const Int8& m) {
  for (int i = 0; i < kLanes; ++i) {
    if (m.v[i] != 0) return true;
  }
  return false;
}

inline int popcount(const Int8& m) {
  int n = 0;
  for (int i = 0; i < kLanes; ++i) n += m.v[i] != 0 ? 1 : 0;
  return n;
}

inline Float8 gather(const float* base, const Int8& idx) {
  Float8 r;
  for (int i = 0; i < kLanes; ++i) r.v[i] = base[idx.v[i]];
  return r;
}

#endif  // backend

/// Shared helpers (element-wise on either backend).

/// Two gathers from the same base, as one 16-lane gather where AVX-512 is
/// available (the packet kernel's eight trilinear-corner gathers pair up
/// into four of these). Identical loads, fewer instructions.
inline void gather2(const float* base, const Int8& ia, const Int8& ib,
                    Float8* ra, Float8* rb) {
#if defined(PVR_SIMD_VECTOR_EXT) && defined(__AVX512F__) && \
    defined(__AVX512DQ__)
  const __m512i idx = _mm512_inserti64x4(
      _mm512_castsi256_si512((__m256i)ia.v), (__m256i)ib.v, 1);
  const __m512 g = _mm512_i32gather_ps(idx, base, 4);
  *ra = {(detail::vf8)_mm512_castps512_ps256(g)};
  *rb = {(detail::vf8)_mm512_extractf32x8_ps(g, 1)};
#else
  *ra = gather(base, ia);
  *rb = gather(base, ib);
#endif
}

inline Long8 min(const Long8& a, const Long8& b) { return select(b < a, b, a); }
inline Long8 max(const Long8& a, const Long8& b) { return select(a < b, b, a); }
inline Int8 min(const Int8& a, const Int8& b) { return select(b < a, b, a); }
inline Int8 max(const Int8& a, const Int8& b) { return select(a < b, b, a); }

/// floor(x) per lane, exact for |x| < 2^53: truncate toward zero, then
/// subtract one where truncation rounded up (negative non-integers). The
/// result is the unique correctly-rounded floor, so it matches std::floor
/// bitwise.
inline Double8 floor(const Double8& x) {
  const Double8 t = to_double(to_long(x));
  return select(t > x, t - Double8::broadcast(1.0), t);
}

/// floor(x) per lane for |x| < 2^31, returned as int32 indices with the
/// double floor value in *fl. Same truncate-then-adjust construction as
/// floor() above (the adjust adds the -1 mask lanes directly), but staying
/// in the int32 domain where both conversion directions are native
/// instructions. Exact: *fl matches std::floor bitwise over the range.
inline Int8 floor_int(const Double8& x, Double8* fl) {
  const Int8 t = to_int(x);
  const Double8 td = to_double(t);
  const Int8 f = t + (td > x);
  *fl = to_double(f);
  return f;
}

/// The configured backend, for logs/benches.
inline const char* backend_name() {
#if defined(PVR_SIMD_AVX2)
  return "avx2";
#elif defined(PVR_SIMD_NATIVE)
  return "native";
#elif defined(PVR_SIMD_VECTOR_EXT)
  return "vector-ext";
#else
  return "scalar";
#endif
}

}  // namespace pvr::render::simd
