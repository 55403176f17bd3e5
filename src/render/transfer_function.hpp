// Transfer functions: map a normalized scalar in [0, 1] to premultiplied
// RGBA. Opacities are defined at a reference sampling step of one voxel and
// corrected for the actual step length (standard opacity correction), so
// images converge as the step shrinks.
#pragma once

#include <vector>

#include "util/color.hpp"

namespace pvr::render {

class TransferFunction {
 public:
  struct ControlPoint {
    float value = 0.0f;  ///< scalar position in [0, 1]
    float r = 0.0f, g = 0.0f, b = 0.0f;  ///< straight (non-premultiplied)
    float opacity = 0.0f;                ///< per reference step
  };

  /// Control points must be sorted by value, with at least one point.
  explicit TransferFunction(std::vector<ControlPoint> points);

  /// Piecewise-linear lookup; returns premultiplied RGBA whose alpha has
  /// been corrected for a step of `step_voxels` reference units.
  Rgba sample(float value, float step_voxels = 1.0f) const;

  /// Raw piecewise-linear lookup: straight (non-premultiplied) color and
  /// uncorrected opacity at `value`. NaN maps to the first control point.
  ControlPoint lookup(float value) const;

  const std::vector<ControlPoint>& points() const { return points_; }

  /// The colormap used for the supernova figures: transparent blue body,
  /// orange shock shell, bright core.
  static TransferFunction supernova();
  /// Fully linear grayscale ramp; handy for tests.
  static TransferFunction grayscale_ramp(float max_opacity = 0.5f);
  /// Everything transparent: renders to exactly kTransparent.
  static TransferFunction transparent();

 private:
  std::vector<ControlPoint> points_;
};

/// Bivariate transfer function: color comes from one variable, opacity from
/// another — the simplest of the "multivariate visualizations" the paper
/// names as the payoff of reading the multi-variable netCDF files directly.
class BivariateTransferFunction {
 public:
  BivariateTransferFunction(TransferFunction color_tf,
                            TransferFunction opacity_tf)
      : color_(std::move(color_tf)), opacity_(std::move(opacity_tf)) {}

  /// Premultiplied RGBA: RGB from color_tf at `color_value`, alpha from
  /// opacity_tf at `opacity_value`, corrected for the step.
  Rgba sample(float color_value, float opacity_value,
              float step_voxels = 1.0f) const;

  const TransferFunction& color_tf() const { return color_; }
  const TransferFunction& opacity_tf() const { return opacity_; }

  /// Paper-style default: supernova colors driven by one variable, opacity
  /// by the other.
  static BivariateTransferFunction supernova_bivariate();

 private:
  TransferFunction color_;
  TransferFunction opacity_;
};

}  // namespace pvr::render
