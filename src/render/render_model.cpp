#include "render/render_model.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace pvr::render {

double RenderModel::pixel_edge_scale(const Camera& camera) {
  // Projecting a point one world unit along the camera's right axis would
  // be exact but awkward; instead use the camera intrinsics directly via
  // two neighbouring rays.
  const Ray r0 = camera.ray(camera.width() / 2, camera.height() / 2);
  const Ray r1 = camera.ray(camera.width() / 2 + 1, camera.height() / 2);
  return camera.orthographic() ? (r1.origin - r0.origin).length()
                               : (r1.dir - r0.dir).length();
}

std::int64_t RenderModel::block_samples(const Box3d& block_world,
                                        const Camera& camera,
                                        double step_world) const {
  return block_samples(block_world, camera, step_world,
                       pixel_edge_scale(camera));
}

std::int64_t RenderModel::block_samples(const Box3d& block_world,
                                        const Camera& camera,
                                        double step_world,
                                        double edge_scale) const {
  PVR_REQUIRE(step_world > 0, "step must be positive");
  if (block_world.empty()) return 0;
  // Pixel footprint edge in world units at the block's depth.
  const Vec3d center{block_world.center().x, block_world.center().y,
                     block_world.center().z};
  const double depth = std::max(1e-6, camera.depth_of(center));
  const auto c0 = camera.project(center);
  if (!c0) return 0;
  const double pixel_edge =
      camera.orthographic() ? edge_scale : edge_scale * depth;
  const double pixel_area = pixel_edge * pixel_edge;
  const double volume = double(block_world.volume());
  const double samples = volume / (step_world * pixel_area);
  return std::int64_t(std::llround(samples));
}

RenderEstimate RenderModel::estimate(const Decomposition& decomp,
                                     std::int64_t num_ranks,
                                     const Camera& camera,
                                     const RenderConfig& config) const {
  return estimate_degraded(decomp, num_ranks, camera, config, nullptr);
}

RenderEstimate RenderModel::estimate_degraded(
    const Decomposition& decomp, std::int64_t num_ranks,
    const Camera& camera, const RenderConfig& config,
    const std::function<double(std::int64_t)>& rank_slowdown,
    std::vector<double>* rank_seconds) const {
  PVR_REQUIRE(num_ranks > 0, "need at least one rank");
  const double step_world =
      config.step_voxels * voxel_size(decomp.dims());
  const double edge_scale = pixel_edge_scale(camera);
  std::vector<std::int64_t> rank_samples(std::size_t(num_ranks), 0);
  RenderEstimate est;
  for (std::int64_t b = 0; b < decomp.num_blocks(); ++b) {
    const std::int64_t rank = Decomposition::rank_of_block(b, num_ranks);
    if (rank_slowdown != nullptr && !(rank_slowdown(rank) > 0.0)) continue;
    const Box3d wb = world_box_of(decomp.block_box(b), decomp.dims());
    const std::int64_t s = block_samples(wb, camera, step_world, edge_scale);
    est.total_samples += s;
    rank_samples[std::size_t(rank)] += s;
  }
  // x -> x / rate * (1 + imbalance) is monotone and deterministic, so
  // pricing each rank's weight this way and the worst weight this way agree
  // bitwise on the maximum.
  const auto seconds_of = [this](double weighted) {
    return weighted / cfg_->samples_per_second *
           (1.0 + cfg_->render_imbalance);
  };
  if (rank_seconds != nullptr) {
    rank_seconds->assign(std::size_t(num_ranks), 0.0);
  }
  // max_rank_samples stays the raw straggler count; the *time* straggler
  // weights each rank by its slowdown, so a degraded-but-alive node can set
  // the phase time even without owning the most samples.
  double worst_weighted = 0.0;
  for (std::size_t r = 0; r < rank_samples.size(); ++r) {
    est.max_rank_samples = std::max(est.max_rank_samples, rank_samples[r]);
    const double slowdown =
        rank_slowdown == nullptr ? 1.0 : rank_slowdown(std::int64_t(r));
    if (!(slowdown > 0.0)) continue;  // dead ranks are not stragglers
    const double weighted = double(rank_samples[r]) * slowdown;
    if (rank_seconds != nullptr) (*rank_seconds)[r] = seconds_of(weighted);
    if (weighted > worst_weighted) {  // strict: lowest rank wins ties
      worst_weighted = weighted;
      est.straggler_rank = std::int64_t(r);
    }
  }
  est.seconds = seconds_of(worst_weighted);
  return est;
}

}  // namespace pvr::render
