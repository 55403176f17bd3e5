// Unit tests for pvr::machine — configs, partitions, torus geometry.
#include <gtest/gtest.h>

#include "machine/config.hpp"
#include "machine/partition.hpp"

namespace pvr::machine {
namespace {

TEST(ConfigTest, DefaultsAreValid) {
  EXPECT_TRUE(valid(MachineConfig{}));
  EXPECT_TRUE(valid(StorageConfig{}));
}

TEST(ConfigTest, InvalidValuesRejected) {
  MachineConfig m;
  m.cores_per_node = 0;
  EXPECT_FALSE(valid(m));
  StorageConfig s;
  s.server_bw = -1;
  EXPECT_FALSE(valid(s));
}

TEST(ConfigTest, PaperHardwareNumbers) {
  const MachineConfig m;
  EXPECT_EQ(m.cores_per_node, 4);
  EXPECT_DOUBLE_EQ(m.torus_link_bw, 3.4e9 / 8.0);
  EXPECT_DOUBLE_EQ(m.tree_link_bw, 6.8e9 / 8.0);
  EXPECT_EQ(m.nodes_per_ion, 64);
  const StorageConfig s;
  EXPECT_EQ(s.num_servers, 17 * 8);
}

TEST(CubicFactorizationTest, ExactCubes) {
  EXPECT_EQ(Partition::cubic_factorization(8), (Vec3i{2, 2, 2}));
  EXPECT_EQ(Partition::cubic_factorization(64), (Vec3i{4, 4, 4}));
  EXPECT_EQ(Partition::cubic_factorization(4096), (Vec3i{16, 16, 16}));
}

TEST(CubicFactorizationTest, NonCubes) {
  EXPECT_EQ(Partition::cubic_factorization(1), (Vec3i{1, 1, 1}));
  EXPECT_EQ(Partition::cubic_factorization(2), (Vec3i{1, 1, 2}));
  EXPECT_EQ(Partition::cubic_factorization(12), (Vec3i{2, 2, 3}));
}

class FactorizationProperty : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(FactorizationProperty, ProductAndOrder) {
  const std::int64_t n = GetParam();
  const Vec3i f = Partition::cubic_factorization(n);
  EXPECT_EQ(f.volume(), n);
  EXPECT_LE(f.x, f.y);
  EXPECT_LE(f.y, f.z);
  // "Near cubic": for powers of two the largest factor is within 4x of the
  // smallest.
  if (is_pow2(n)) {
    EXPECT_LE(f.z, 4 * std::max<std::int64_t>(1, f.x));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, FactorizationProperty,
                         ::testing::Values(1, 2, 3, 4, 6, 7, 16, 30, 64, 97,
                                           128, 256, 512, 1000, 1024, 2048,
                                           4096, 8192, 16384, 32768));

TEST(PartitionTest, PaperScaleGeometry) {
  const MachineConfig cfg;
  const Partition p(cfg, 32768);  // 32K cores in VN mode
  EXPECT_EQ(p.num_ranks(), 32768);
  EXPECT_EQ(p.num_nodes(), 8192);
  EXPECT_EQ(p.num_ions(), 128);
  EXPECT_EQ(p.torus_dims().volume(), 8192);
}

TEST(PartitionTest, SmallPartitionRoundsUpNodes) {
  const MachineConfig cfg;
  const Partition p(cfg, 6);  // 6 ranks -> 2 nodes -> 1 ION
  EXPECT_EQ(p.num_nodes(), 2);
  EXPECT_EQ(p.num_ions(), 1);
}

TEST(PartitionTest, RankToNodeMapping) {
  const MachineConfig cfg;
  const Partition p(cfg, 64);
  EXPECT_EQ(p.node_of_rank(0), 0);
  EXPECT_EQ(p.node_of_rank(3), 0);
  EXPECT_EQ(p.node_of_rank(4), 1);
  EXPECT_EQ(p.node_of_rank(63), 15);
}

TEST(PartitionTest, CoordsRoundTrip) {
  const MachineConfig cfg;
  const Partition p(cfg, 512 * 4);  // 512 nodes = 8x8x8
  for (std::int64_t n = 0; n < p.num_nodes(); ++n) {
    EXPECT_EQ(p.node_of_coords(p.coords_of_node(n)), n);
  }
}

TEST(PartitionTest, IonMapping) {
  const MachineConfig cfg;
  const Partition p(cfg, 1024);  // 256 nodes -> 4 IONs
  EXPECT_EQ(p.num_ions(), 4);
  EXPECT_EQ(p.ion_of_node(0), 0);
  EXPECT_EQ(p.ion_of_node(63), 0);
  EXPECT_EQ(p.ion_of_node(64), 1);
  EXPECT_EQ(p.ion_of_rank(1023), 3);
}

TEST(PartitionTest, InvalidArgsThrow) {
  const MachineConfig cfg;
  EXPECT_THROW(Partition(cfg, 0), Error);
  MachineConfig bad;
  bad.torus_link_bw = 0;
  EXPECT_THROW(Partition(bad, 64), Error);
}

}  // namespace
}  // namespace pvr::machine
