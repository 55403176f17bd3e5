#include "render/transfer_function.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace pvr::render {

TransferFunction::TransferFunction(std::vector<ControlPoint> points)
    : points_(std::move(points)) {
  PVR_REQUIRE(!points_.empty(), "transfer function needs control points");
  for (std::size_t i = 1; i < points_.size(); ++i) {
    PVR_REQUIRE(points_[i - 1].value <= points_[i].value,
                "control points must be sorted by value");
  }
}

TransferFunction::ControlPoint TransferFunction::lookup(float value) const {
  const float v = std::clamp(value, 0.0f, 1.0f);
  // Written so that NaN, which std::clamp passes through, takes the first
  // control point, as TfLut's samplers do.
  if (!(points_.front().value < v)) return points_.front();
  if (v >= points_.back().value) return points_.back();
  std::size_t hi = 1;
  while (points_[hi].value < v) ++hi;
  const ControlPoint& a = points_[hi - 1];
  const ControlPoint& b = points_[hi];
  const float span = b.value - a.value;
  const float t = span > 0.0f ? (v - a.value) / span : 0.0f;
  ControlPoint cp;
  cp.value = v;
  cp.r = a.r + t * (b.r - a.r);
  cp.g = a.g + t * (b.g - a.g);
  cp.b = a.b + t * (b.b - a.b);
  cp.opacity = a.opacity + t * (b.opacity - a.opacity);
  return cp;
}

namespace {

/// Opacity correction + premultiplication shared by both samplers.
Rgba finish_sample(float r, float g, float b, float opacity,
                   float step_voxels) {
  const float alpha =
      1.0f - std::pow(1.0f - std::clamp(opacity, 0.0f, 1.0f), step_voxels);
  return Rgba{r * alpha, g * alpha, b * alpha, alpha};
}

}  // namespace

Rgba TransferFunction::sample(float value, float step_voxels) const {
  const ControlPoint cp = lookup(value);
  return finish_sample(cp.r, cp.g, cp.b, cp.opacity, step_voxels);
}

Rgba BivariateTransferFunction::sample(float color_value, float opacity_value,
                                       float step_voxels) const {
  const TransferFunction::ControlPoint c = color_.lookup(color_value);
  const TransferFunction::ControlPoint o = opacity_.lookup(opacity_value);
  return finish_sample(c.r, c.g, c.b, o.opacity, step_voxels);
}

BivariateTransferFunction BivariateTransferFunction::supernova_bivariate() {
  return BivariateTransferFunction(TransferFunction::supernova(),
                                   TransferFunction::grayscale_ramp(0.12f));
}

TransferFunction TransferFunction::supernova() {
  return TransferFunction({
      {0.00f, 0.00f, 0.00f, 0.00f, 0.000f},
      {0.25f, 0.05f, 0.10f, 0.45f, 0.004f},
      {0.45f, 0.10f, 0.35f, 0.80f, 0.012f},
      {0.62f, 0.90f, 0.45f, 0.10f, 0.060f},
      {0.80f, 1.00f, 0.80f, 0.25f, 0.150f},
      {1.00f, 1.00f, 1.00f, 0.90f, 0.400f},
  });
}

TransferFunction TransferFunction::grayscale_ramp(float max_opacity) {
  return TransferFunction({
      {0.0f, 0.0f, 0.0f, 0.0f, 0.0f},
      {1.0f, 1.0f, 1.0f, 1.0f, max_opacity},
  });
}

TransferFunction TransferFunction::transparent() {
  return TransferFunction({{0.0f, 0.0f, 0.0f, 0.0f, 0.0f}});
}

}  // namespace pvr::render
