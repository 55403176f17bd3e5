// A partition is the subset of the machine a job runs on: a set of cores,
// their nodes arranged in a 3D torus, and the I/O nodes serving them. It
// provides the rank -> core -> node -> torus-coordinate mapping used by the
// network model and the ION mapping used by the storage model.
#pragma once

#include <cstdint>

#include "machine/config.hpp"
#include "util/error.hpp"
#include "util/vec.hpp"

namespace pvr::machine {

/// Job partition: rank/node/ION geometry for a given core count.
class Partition {
 public:
  /// Builds a partition of `num_ranks` MPI ranks (one rank per core, as the
  /// paper runs in VN mode). Node count is rounded up to whole nodes and the
  /// torus is shaped as the most cubic factorization of the node count.
  Partition(const MachineConfig& cfg, std::int64_t num_ranks);

  std::int64_t num_ranks() const { return num_ranks_; }
  std::int64_t num_nodes() const { return num_nodes_; }
  std::int64_t num_ions() const { return num_ions_; }
  const Vec3i& torus_dims() const { return torus_dims_; }
  const MachineConfig& config() const { return cfg_; }

  /// Node hosting a rank. Ranks are packed: node = rank / cores_per_node.
  std::int64_t node_of_rank(std::int64_t rank) const {
    PVR_ASSERT(rank >= 0 && rank < num_ranks_);
    return rank / cfg_.cores_per_node;
  }

  /// Torus coordinates of a node (x fastest).
  Vec3i coords_of_node(std::int64_t node) const {
    PVR_ASSERT(node >= 0 && node < num_nodes_);
    const std::int64_t x = node % torus_dims_.x;
    const std::int64_t y = (node / torus_dims_.x) % torus_dims_.y;
    const std::int64_t z = node / (torus_dims_.x * torus_dims_.y);
    return {x, y, z};
  }

  std::int64_t node_of_coords(const Vec3i& c) const {
    PVR_ASSERT(c.x >= 0 && c.x < torus_dims_.x && c.y >= 0 &&
               c.y < torus_dims_.y && c.z >= 0 && c.z < torus_dims_.z);
    return c.x + torus_dims_.x * (c.y + torus_dims_.y * c.z);
  }

  /// ION serving a node (contiguous groups of nodes_per_ion nodes).
  std::int64_t ion_of_node(std::int64_t node) const {
    PVR_ASSERT(node >= 0 && node < num_nodes_);
    return node / cfg_.nodes_per_ion;
  }

  std::int64_t ion_of_rank(std::int64_t rank) const {
    return ion_of_node(node_of_rank(rank));
  }

  /// The most cubic factorization a*b*c = n with a <= b <= c. Exposed for
  /// tests and for the data decomposition, which uses the same shape rule.
  static Vec3i cubic_factorization(std::int64_t n);

 private:
  MachineConfig cfg_;
  std::int64_t num_ranks_ = 0;
  std::int64_t num_nodes_ = 0;
  std::int64_t num_ions_ = 0;
  Vec3i torus_dims_{1, 1, 1};
};

}  // namespace pvr::machine
