// Camera and world geometry. The volume occupies the world box
// [0, dims/max(dims)]: a unit-scale axis-aligned box. Rays are generated
// through pixel centers; projection is the exact inverse, so block screen
// footprints computed by projecting box corners are conservative and
// consistent with ray traversal.
#pragma once

#include <optional>

#include "util/image.hpp"
#include "util/vec.hpp"

namespace pvr::render {

struct Ray {
  Vec3d origin;
  Vec3d dir;  ///< normalized

  Vec3d at(double t) const { return origin + dir * t; }
};

/// Entry/exit parameters of a ray against an axis-aligned box.
struct RayBoxHit {
  double t_enter = 0.0;
  double t_exit = 0.0;
};

/// Slab-method ray/box intersection; nullopt when the ray misses. t values
/// are clamped to [0, inf).
std::optional<RayBoxHit> intersect(const Ray& ray, const Box3d& box);

class Camera {
 public:
  /// Perspective camera.
  static Camera look_at(const Vec3d& eye, const Vec3d& target,
                        const Vec3d& up, double fov_y_deg, int width,
                        int height);
  /// Orthographic camera: `view_height` is the world-space height of the
  /// viewport.
  static Camera ortho_look_at(const Vec3d& eye, const Vec3d& target,
                              const Vec3d& up, double view_height, int width,
                              int height);

  /// The default view used across examples and benches: eye on a diagonal,
  /// looking at the center of the world box of a volume with `dims`.
  static Camera default_view(const Vec3i& dims, int width, int height);

  int width() const { return width_; }
  int height() const { return height_; }
  const Vec3d& eye() const { return eye_; }
  const Vec3d& forward() const { return forward_; }
  const Vec3d& right() const { return right_; }
  const Vec3d& up() const { return up_; }
  double tan_half_fov() const { return tan_half_fov_; }
  double view_height() const { return view_height_; }
  bool orthographic() const { return orthographic_; }

  /// Ray through the center of pixel (px, py). The packet kernel's ray
  /// setup (src/render/simd/) replays these expressions over 8 pixels.
  Ray ray(int px, int py) const;

  /// Projects a world point to continuous pixel coordinates; also returns
  /// the view depth. Returns nullopt for points at/behind the eye plane
  /// (perspective only).
  std::optional<Vec3d> project(const Vec3d& world) const;  // (px, py, depth)

  /// Conservative screen-space bounding rectangle of a world box, clipped
  /// to the image; empty when fully off-screen or any corner projects
  /// behind the eye (conservatively expands to the full image then).
  Rect footprint(const Box3d& box) const;

  /// View-depth key of a world point (distance along forward axis); used to
  /// sort blocks into visibility order.
  double depth_of(const Vec3d& world) const {
    return (world - eye_).dot(forward_);
  }

 private:
  Vec3d eye_, forward_, right_, up_;
  double tan_half_fov_ = 1.0;   // perspective
  double view_height_ = 1.0;    // orthographic
  bool orthographic_ = false;
  int width_ = 0, height_ = 0;
};

/// World-space box of the whole volume: [0, dims/max_component(dims)).
Box3d world_box(const Vec3i& dims);
/// World-space box of a voxel region of a volume with `dims`.
Box3d world_box_of(const Box3i& voxels, const Vec3i& dims);
/// World size of one voxel.
double voxel_size(const Vec3i& dims);

}  // namespace pvr::render
