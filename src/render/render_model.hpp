// Analytic render-cost model used at paper scale, where actually casting
// rays through 4480^3 volumes is impossible. The sample count of a block is
// estimated geometrically: every lattice sample inside the block's world box
// is hit by exactly one ray, so
//
//   samples(block) ~= world_volume(block) / (step * pixel_footprint_area)
//
// with the pixel footprint evaluated at the block's view depth (exact for
// orthographic cameras, first-order for perspective). The rank's render time
// is its sample count divided by the machine's calibrated per-core sample
// rate; the BSP render phase costs the straggler's time, inflated by the
// configured load imbalance (paper: "minor deviations ... due to load
// imbalances").
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "machine/config.hpp"
#include "render/camera.hpp"
#include "render/decomposition.hpp"
#include "render/raycaster.hpp"

namespace pvr::render {

struct RenderEstimate {
  std::int64_t total_samples = 0;
  std::int64_t max_rank_samples = 0;
  double seconds = 0.0;  ///< modeled BSP render-phase time
  /// Rank whose (slowdown-weighted) time bounds the phase; lowest rank wins
  /// ties, -1 when nothing renders. Feeds the profiler's per-rank lanes.
  std::int64_t straggler_rank = -1;
};

class RenderModel {
 public:
  explicit RenderModel(const machine::MachineConfig& cfg) : cfg_(&cfg) {}

  /// Samples a single block contributes for the given camera and step.
  std::int64_t block_samples(const Box3d& block_world, const Camera& camera,
                             double step_world) const;
  /// The same, given the camera's pixel_edge_scale: a pass over many blocks
  /// computes it once.
  std::int64_t block_samples(const Box3d& block_world, const Camera& camera,
                             double step_world, double edge_scale) const;

  /// A pixel footprint's edge in world units, from the center pixel's ray
  /// and its right neighbour's: for a perspective camera per unit of view
  /// depth, for an orthographic one at every depth. Depends on the camera
  /// only.
  static double pixel_edge_scale(const Camera& camera);

  /// Estimates the render phase over a whole decomposition with blocks
  /// assigned round-robin to `num_ranks` ranks.
  RenderEstimate estimate(const Decomposition& decomp,
                          std::int64_t num_ranks, const Camera& camera,
                          const RenderConfig& config) const;

  /// Weighted degraded estimate: `rank_slowdown` returns a per-sample time
  /// multiplier for each rank — 1.0 healthy, > 1.0 degraded-but-alive
  /// (thermal throttling), <= 0.0 dead (the rank's blocks are dropped).
  /// The straggler term is the worst rank's *weighted* time, so one slow
  /// node stretches the whole BSP render phase. With a null function, or
  /// one that always returns 1.0, this reproduces the healthy estimate
  /// bit for bit (sample counts stay integer; weighting by exactly 1.0 is
  /// exact in double precision).
  ///
  /// A non-null `rank_seconds` receives, from the same block pass, each
  /// rank's render duration for the async schedule: its weighted time
  /// including the imbalance factor, 0.0 for dead ranks. Each element is
  /// the expression that prices `seconds`, applied to that rank's weight,
  /// so the maximum element equals `seconds` bitwise and the straggler's
  /// element is `seconds` itself.
  RenderEstimate estimate_degraded(
      const Decomposition& decomp, std::int64_t num_ranks,
      const Camera& camera, const RenderConfig& config,
      const std::function<double(std::int64_t rank)>& rank_slowdown,
      std::vector<double>* rank_seconds = nullptr) const;

  /// Converts a per-rank sample count to seconds (without imbalance).
  double seconds_for_samples(std::int64_t samples) const {
    return double(samples) / cfg_->samples_per_second;
  }

 private:
  const machine::MachineConfig* cfg_;
};

}  // namespace pvr::render
