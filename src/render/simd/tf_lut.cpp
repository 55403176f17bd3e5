#include "render/simd/tf_lut.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace pvr::render::simd {

TfLut::TfLut(const TransferFunction& tf, float step_voxels)
    : step_(step_voxels) {
  const auto& points = tf.points();
  PVR_REQUIRE(!points.empty(), "transfer function needs control points");
  const std::size_t n = points.size();
  last_ = n - 1;
  wide_ = last_ > std::size_t(kLanes);
  stride_ = std::max(n, std::size_t(kLanes));
  tables_.assign(std::size_t(kRows) * stride_, 0.0f);
  const auto fill = [&](int col, float TransferFunction::ControlPoint::*f) {
    float* at = tables_.data() + std::size_t(col) * stride_;
    float* delta = at + stride_;
    for (std::size_t j = 0; j < n; ++j) at[j] = points[j].*f;
    for (std::size_t j = 0; j + 1 < n; ++j) delta[j] = at[j + 1] - at[j];
  };
  fill(kValue, &TransferFunction::ControlPoint::value);
  fill(kR, &TransferFunction::ControlPoint::r);
  fill(kG, &TransferFunction::ControlPoint::g);
  fill(kB, &TransferFunction::ControlPoint::b);
  fill(kOpacity, &TransferFunction::ControlPoint::opacity);
  inner_count_ = n > 2 ? int(n - 2) : 0;
  for (int j = 0; j < inner_count_; ++j) {
    inner_.push_back(points[std::size_t(j) + 1].value);
  }
  unit_step_ = step_ == 1.0f;
}

}  // namespace pvr::render::simd
