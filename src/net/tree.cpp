#include "net/tree.hpp"

#include <algorithm>
#include <cmath>

namespace pvr::net {

TreeModel::TreeModel(const machine::Partition& partition)
    : partition_(&partition) {
  const double n = double(std::max<std::int64_t>(1, partition.num_nodes()));
  depth_ = std::max(1, int(std::ceil(std::log2(std::max(2.0, n)))));
}

double TreeModel::barrier() const {
  // Up-sweep + down-sweep of a zero-byte combine.
  return 2.0 * depth_ * partition_->config().tree_latency;
}

}  // namespace pvr::net
