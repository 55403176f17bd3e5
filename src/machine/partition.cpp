#include "machine/partition.hpp"

#include <cmath>

namespace pvr::machine {

Partition::Partition(const MachineConfig& cfg, std::int64_t num_ranks)
    : cfg_(cfg), num_ranks_(num_ranks) {
  PVR_REQUIRE(valid(cfg), "invalid machine config");
  PVR_REQUIRE(num_ranks > 0, "partition needs at least one rank");
  num_nodes_ = ceil_div(num_ranks, cfg.cores_per_node);
  num_ions_ = ceil_div(num_nodes_, cfg.nodes_per_ion);
  torus_dims_ = cubic_factorization(num_nodes_);
}

Vec3i Partition::cubic_factorization(std::int64_t n) {
  PVR_REQUIRE(n > 0, "factorization needs n > 0");
  // Pick the divisor pair/triple minimizing surface: search c from cbrt(n)
  // downward, then b from sqrt(n/c) downward.
  Vec3i best{1, 1, n};
  const auto cbrt_n = static_cast<std::int64_t>(std::cbrt(double(n)) + 0.5);
  for (std::int64_t a = std::max<std::int64_t>(1, cbrt_n); a >= 1; --a) {
    if (n % a != 0) continue;
    const std::int64_t m = n / a;
    const auto sqrt_m = static_cast<std::int64_t>(std::sqrt(double(m)) + 0.5);
    for (std::int64_t b = std::max(a, sqrt_m); b >= a; --b) {
      if (m % b != 0) continue;
      const std::int64_t c = m / b;
      if (c < b) continue;
      best = {a, b, c};
      // Surface area a*b + b*c + a*c is minimized by the first (most cubic)
      // hit when scanning a downward from cbrt(n) with the inner-most b.
      return best;
    }
    // A divides n but no b >= a worked (cannot happen since b = a, c = m/a
    // is always valid when a | n and m % a == 0); keep scanning smaller a.
    const std::int64_t c = m / a;
    if (c >= a) best = {a, a, c};
  }
  return best;
}

}  // namespace pvr::machine
