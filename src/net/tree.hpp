// BG/P collective (tree) network model. Collectives traverse a binary
// combining tree over the nodes of the partition; the one the library runs,
// the barrier, costs an up-sweep and a down-sweep of per-hop latency.
#pragma once

#include <cstdint>

#include "machine/partition.hpp"

namespace pvr::net {

class TreeModel {
 public:
  explicit TreeModel(const machine::Partition& partition);

  /// Tree depth over the partition's nodes: ceil(log2(nodes)), min 1.
  int depth() const { return depth_; }

  /// Barrier across all ranks.
  double barrier() const;

 private:
  const machine::Partition* partition_;
  int depth_;
};

}  // namespace pvr::net
