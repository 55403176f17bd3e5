// Flattened transfer function for the ray-packet kernel: control points in
// table form with an 8-lane lookup and finish whose per-lane results are
// bitwise-identical to TransferFunction::sample on the same inputs. A
// univariate sample looks up all four channels in one LUT; a bivariate
// sample takes r, g, b from the colour function's LUT and opacity from the
// opacity function's. Either then finishes once: TransferFunction::sample
// or BivariateTransferFunction::sample, bitwise.
//
// Exactness contract (the basis of the scalar/SIMD image-identity tests):
//
//   * Segment selection is the scalar linear scan, vectorized: the control
//     values are sorted, so the scan's stopping segment is the count of
//     interior control values strictly below v — one vector compare per
//     interior point of the function itself.
//   * Each table row holds a control-point column (value, r, g, b or
//     opacity) next to its forward differences tbl[j+1] - tbl[j], the same
//     float subtraction the scalar lerp does per sample. A lane reads its
//     segment's endpoint and difference with one permute per row (a gather
//     when the function has more than 8 segments) and lerps with the
//     scalar expression.
//   * Below-front / above-back lanes select the stored endpoint values
//     directly (no lerp), exactly like the scalar early returns.
//   * The clamp and premultiply are the same float expressions, evaluated
//     element-wise.
//   * Opacity correction: for the common step_voxels == 1 case the
//     1 - pow(1 - a, 1) round trip collapses to 1 - (1 - a), because
//     IEEE 754 makes pow(x, 1) == x exact (GCC folds the call to x at -O2
//     anyway, so no run-time check could observe a libm that differs).
//     Any other step calls the same std::pow per lane.
//   * NaN takes the first control point: the below-front test is
//     !(front < v), which NaN passes, in TransferFunction::lookup too.
//
// lookup8 and finish8 live in the header so the packet kernel inlines them
// — they run once per lattice step and the call/ABI overhead was
// measurable. They apply no lane mask: the march blends member lanes only.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "render/simd/vec8.hpp"
#include "render/transfer_function.hpp"

namespace pvr::render::simd {

class TfLut {
 public:
  /// Flattens `tf` for sampling at a fixed step (one LUT per render pass).
  TfLut(const TransferFunction& tf, float step_voxels);

  /// TransferFunction::lookup for 8 normalized values: channels
  /// [first, last) of each lane's straight r, g, b and uncorrected opacity
  /// (indices 0-3) into c[first..last). A univariate sample looks up all
  /// four and finishes them with finish8: per lane exactly
  /// TransferFunction::sample(value, step), in premultiplied SoA channels.
  /// A bivariate sample takes channels 0-2 from the colour LUT and channel 3
  /// from the opacity LUT. Scanning only the function's own interior values
  /// keeps even two lookups per step within the vector shuffle ports'
  /// budget.
  [[gnu::always_inline]] inline void lookup8(const Float8& value, int first,
                                             int last, Float8* c) const {
    if (wide_) {
      lookup8_impl<true>(value, first, last, c);
    } else {
      lookup8_impl<false>(value, first, last, c);
    }
  }

  /// The finish half of a sample (finish_sample): clamps the opacity c[3],
  /// corrects it for the step and premultiplies c[0..2] by it. A lane whose
  /// opacity is 0 comes back all zero.
  [[gnu::always_inline]] inline void finish8(const Float8* c, Float8* r,
                                             Float8* g, Float8* b,
                                             Float8* a) const {
    const Float8 zero = Float8::broadcast(0.0f);
    const Float8 one = Float8::broadcast(1.0f);
    Float8 op = select(c[3] < zero, zero, c[3]);
    op = select(one < op, one, op);
    Float8 alpha;
    if (unit_step_) {
      alpha = one - (one - op);
    } else {
      const Float8 base = one - op;
      for (int i = 0; i < kLanes; ++i) {
        alpha.set_lane(i, 1.0f - std::pow(base.lane(i), step_));
      }
    }
    *r = c[0] * alpha;
    *g = c[1] * alpha;
    *b = c[2] * alpha;
    *a = alpha;
  }

  bool unit_step() const { return unit_step_; }

 private:
  /// Table rows: each column at an even row, its forward differences in
  /// the next. kColumns lists the four sampled columns (r, g, b, opacity).
  static constexpr int kValue = 0, kR = 2, kG = 4, kB = 6, kOpacity = 8;
  static constexpr int kRows = 10;
  static constexpr int kChannels = 4;
  static constexpr int kColumns[kChannels] = {kR, kG, kB, kOpacity};

  const float* row(int r) const {
    return tables_.data() + std::size_t(r) * stride_;
  }
  float front(int r) const { return row(r)[0]; }
  float back(int r) const { return row(r)[last_]; }

  /// Row `r` at each lane's segment: a permute of the row's 8 entries, or
  /// a gather when there are more than 8 segments.
  template <bool kWide>
  [[gnu::always_inline]] inline Float8 fetch(int r, const Int8& seg) const {
    if constexpr (kWide) {
      return gather(row(r), seg);
    } else {
      return permute(Float8::load(row(r)), seg);
    }
  }

  template <bool kWide>
  [[gnu::always_inline]] inline void lookup8_impl(const Float8& value,
                                                  int first, int last,
                                                  Float8* c) const {
    const Float8 zero = Float8::broadcast(0.0f);
    const Float8 one = Float8::broadcast(1.0f);

    // std::clamp(value, 0, 1) lane-wise, same comparison order.
    Float8 v = select(value < zero, zero, value);
    v = select(one < v, one, v);

    // Scalar early returns: v <= front.value and v >= back.value.
    const Int8 below = ~(Float8::broadcast(front(kValue)) < v);
    const Int8 above = v >= Float8::broadcast(back(kValue));

    // The scalar scan `hi = 1; while (points[hi].value < v) ++hi;` over
    // sorted values stops at segment hi - 1 = the count of interior values
    // below v (each true compare is -1). Lanes outside (front, back) get some
    // in-range segment; their endpoint selects override below.
    Int8 seg = Int8::broadcast(0);
    for (int j = 0; j < inner_count_; ++j) {
      seg = seg - (Float8::broadcast(inner_[std::size_t(j)]) < v);
    }

    // Piecewise-linear lerp factor, exactly the scalar expressions.
    const Float8 av = fetch<kWide>(kValue, seg);
    const Float8 span = fetch<kWide>(kValue + 1, seg);
    const Float8 t = select(zero < span, (v - av) / span, zero);

    // Per channel: lerp, then apply the scalar early-return endpoints
    // (below wins over above).
    for (int ch = first; ch < last; ++ch) {
      const int col = kColumns[ch];
      const Float8 cx =
          fetch<kWide>(col, seg) + t * fetch<kWide>(col + 1, seg);
      c[ch] = select(below, Float8::broadcast(front(col)),
                     select(above, Float8::broadcast(back(col)), cx));
    }
  }

  std::vector<float> tables_;  ///< kRows rows of stride_ floats
  std::vector<float> inner_;   ///< interior control values
  std::size_t stride_ = 0;     ///< row length: max(8, control points)
  std::size_t last_ = 0;       ///< index of the last control point
  int inner_count_ = 0;        ///< interior points: max(0, points - 2)
  bool wide_ = false;          ///< more than 8 segments: gather, not permute
  float step_ = 1.0f;
  bool unit_step_ = false;
};

}  // namespace pvr::render::simd
