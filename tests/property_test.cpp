// Cross-module property-based tests: randomized invariants over layouts,
// schedules, partitions, the network model, and the codecs. Each suite runs
// over several seeds via TEST_P.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <set>

#include "compose/schedule.hpp"
#include "format/layout.hpp"
#include "format/netcdf.hpp"
#include "machine/partition.hpp"
#include "net/torus.hpp"
#include "render/decomposition.hpp"
#include "render/transfer_function.hpp"
#include "util/rng.hpp"

namespace pvr {
namespace {

class Seeded : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override { rng = Rng(std::uint64_t(GetParam()) * 7919 + 17); }
  Rng rng{0};
};

// ---------------- Layout properties ----------------

using LayoutProperty = Seeded;

TEST_P(LayoutProperty, SlabsCoverExactlyTheRequestedBox) {
  for (const auto fmt :
       {format::FileFormat::kRaw, format::FileFormat::kNetcdfRecord,
        format::FileFormat::kNetcdf64, format::FileFormat::kShdf}) {
    const std::int64_t n = 6 + std::int64_t(rng.next_below(12));
    const format::VolumeLayout layout(format::supernova_desc(fmt, n));
    for (int iter = 0; iter < 10; ++iter) {
      Box3i box;
      for (int a = 0; a < 3; ++a) {
        box.lo[a] = std::int64_t(rng.next_below(std::uint64_t(n)));
        box.hi[a] = box.lo[a] + 1 + std::int64_t(rng.next_below(
                                         std::uint64_t(n - box.lo[a])));
      }
      std::vector<format::SlabRequest> slabs;
      layout.subvolume_slabs(0, box, &slabs);
      std::int64_t useful = 0;
      for (const auto& s : slabs) useful += s.useful_bytes();
      EXPECT_EQ(useful, box.volume() * 4);

      // Every element offset of the box is covered by exactly one slab run.
      const Vec3i probe{box.lo.x + (box.hi.x - box.lo.x) / 2,
                        box.lo.y + (box.hi.y - box.lo.y) / 2,
                        box.lo.z + (box.hi.z - box.lo.z) / 2};
      const std::int64_t off = layout.element_offset(0, probe);
      int covering = 0;
      for (const auto& s : slabs) {
        if (s.useful_bytes_in(off, off + 4) == 4) ++covering;
      }
      EXPECT_EQ(covering, 1);
    }
  }
}

TEST_P(LayoutProperty, ExtentsEqualExpandedSlabs) {
  const std::int64_t n = 8 + std::int64_t(rng.next_below(8));
  const format::VolumeLayout layout(
      format::supernova_desc(format::FileFormat::kNetcdfRecord, n));
  Box3i box{{1, 2, 0}, {n - 1, n - 2, n / 2}};
  // The per-row extents of the box, walked from its slab run (the
  // expansion the layout's callers do arithmetically).
  std::vector<format::Extent> extents;
  const format::SlabRun run = layout.slab_run(2, box);
  for (std::int64_t k = 0; k < run.slices; ++k) {
    const format::SlabRequest s = run.slice(k, layout.slice_stride());
    for (std::int64_t r = 0; r < s.nrows; ++r) {
      extents.push_back({s.first + r * s.row_stride, s.row_bytes});
    }
  }
  std::vector<format::SlabRequest> slabs;
  layout.subvolume_slabs(2, box, &slabs);
  std::size_t k = 0;
  for (const auto& s : slabs) {
    for (std::int64_t r = 0; r < s.nrows; ++r) {
      ASSERT_LT(k, extents.size());
      EXPECT_EQ(extents[k].offset, s.first + r * s.row_stride);
      EXPECT_EQ(extents[k].length, s.row_bytes);
      ++k;
    }
  }
  EXPECT_EQ(k, extents.size());
}

TEST_P(LayoutProperty, CoalescePreservesCoveredBytes) {
  for (int iter = 0; iter < 20; ++iter) {
    std::vector<format::Extent> extents;
    std::set<std::int64_t> covered;
    const int count = 1 + int(rng.next_below(30));
    for (int i = 0; i < count; ++i) {
      const std::int64_t off = std::int64_t(rng.next_below(300));
      const std::int64_t len = 1 + std::int64_t(rng.next_below(40));
      extents.push_back(format::Extent{off, len});
      for (std::int64_t b = off; b < off + len; ++b) covered.insert(b);
    }
    format::coalesce(extents);
    // Disjoint, sorted, and cover exactly the union.
    EXPECT_EQ(format::total_bytes(extents),
              std::int64_t(covered.size()));
    for (std::size_t i = 1; i < extents.size(); ++i) {
      EXPECT_GT(extents[i].offset, extents[i - 1].end());
    }
  }
}

// ---------------- Decomposition / partition properties ----------------

using DecompositionProperty2 = Seeded;

TEST_P(DecompositionProperty2, EveryVoxelOwnedExactlyOnce) {
  const std::int64_t n = 8 + std::int64_t(rng.next_below(20));
  const std::int64_t blocks = 1 + std::int64_t(rng.next_below(40));
  if (blocks > n * n * n) return;
  const render::Decomposition d({n, n, n}, blocks);
  for (int iter = 0; iter < 50; ++iter) {
    const Vec3i v{std::int64_t(rng.next_below(std::uint64_t(n))),
                  std::int64_t(rng.next_below(std::uint64_t(n))),
                  std::int64_t(rng.next_below(std::uint64_t(n)))};
    int owners = 0;
    for (std::int64_t b = 0; b < d.num_blocks(); ++b) {
      if (d.block_box(b).contains(v)) ++owners;
    }
    EXPECT_EQ(owners, 1);
  }
}

TEST_P(DecompositionProperty2, GhostBoxesContainOwnedBoxes) {
  const std::int64_t n = 10 + std::int64_t(rng.next_below(20));
  const render::Decomposition d({n, n, n},
                                1 + std::int64_t(rng.next_below(27)));
  for (std::int64_t b = 0; b < d.num_blocks(); ++b) {
    const Box3i own = d.block_box(b);
    const Box3i ghost = d.ghost_box(b, 1 + int(rng.next_below(3)));
    EXPECT_EQ(ghost.intersect(own), own);
    EXPECT_TRUE(ghost.lo.x >= 0 && ghost.hi.x <= n);
  }
}

// ---------------- Direct-send schedule properties ----------------

using ScheduleProperty = Seeded;

TEST_P(ScheduleProperty, RandomFootprintsConserved) {
  const int width = 32 + int(rng.next_below(64));
  const int height = 32 + int(rng.next_below(64));
  const std::int64_t tiles = 1 + std::int64_t(rng.next_below(16));
  const compose::ImagePartition part(width, height, tiles);

  std::vector<compose::BlockScreenInfo> blocks;
  for (int b = 0; b < 20; ++b) {
    const int x0 = int(rng.next_below(std::uint64_t(width)));
    const int y0 = int(rng.next_below(std::uint64_t(height)));
    const int x1 = x0 + int(rng.next_below(std::uint64_t(width - x0 + 1)));
    const int y1 = y0 + int(rng.next_below(std::uint64_t(height - y0 + 1)));
    blocks.push_back(compose::BlockScreenInfo{b, Rect{x0, y0, x1, y1},
                                              rng.next_double()});
  }
  const auto schedule = compose::build_direct_send_schedule(blocks, part);
  std::map<int, std::int64_t> pixels_by_block;
  for (const auto& msg : schedule) {
    EXPECT_FALSE(msg.rect.empty());
    // Message rect lies inside both footprint and destination tile.
    const auto& fp = blocks[std::size_t(msg.block_index)].footprint;
    EXPECT_EQ(fp.intersect(msg.rect), msg.rect);
    EXPECT_EQ(part.tile(msg.dst_rank).intersect(msg.rect), msg.rect);
    pixels_by_block[msg.block_index] += msg.pixels();
  }
  for (const auto& b : blocks) {
    const auto it = pixels_by_block.find(int(b.rank));
    const std::int64_t got =
        it == pixels_by_block.end() ? 0 : it->second;
    EXPECT_EQ(got, b.footprint.pixel_count());
  }
}

// ---------------- Network model properties ----------------

using NetworkProperty = Seeded;

TEST_P(NetworkProperty, ExchangeCostMonotoneInPayload) {
  const machine::Partition part(machine::MachineConfig{}, 256);
  const net::TorusModel torus(part);
  std::vector<net::Transfer> transfers;
  for (int i = 0; i < 50; ++i) {
    transfers.push_back(net::Transfer{
        std::int64_t(rng.next_below(256)), std::int64_t(rng.next_below(256)),
        std::int64_t(rng.next_below(1 << 16))});
  }
  const double base = torus.exchange(transfers).seconds;
  for (auto& t : transfers) t.bytes *= 4;
  const double bigger = torus.exchange(transfers).seconds;
  EXPECT_GE(bigger, base);
}

TEST_P(NetworkProperty, AddingMessagesNeverSpeedsUp) {
  const machine::Partition part(machine::MachineConfig{}, 512);
  const net::TorusModel torus(part);
  std::vector<net::Transfer> transfers;
  double prev = 0.0;
  for (int round = 0; round < 8; ++round) {
    for (int i = 0; i < 64; ++i) {
      transfers.push_back(net::Transfer{
          std::int64_t(rng.next_below(512)),
          std::int64_t(rng.next_below(512)), 2048});
    }
    const double now = torus.exchange(transfers).seconds;
    EXPECT_GE(now, prev);
    prev = now;
  }
}

TEST_P(NetworkProperty, MoreRoundsNeverSlower) {
  const machine::Partition part(machine::MachineConfig{}, 1024);
  const net::TorusModel torus(part);
  std::vector<net::Transfer> transfers;
  for (int i = 0; i < 4096; ++i) {
    transfers.push_back(net::Transfer{
        std::int64_t(rng.next_below(1024)),
        std::int64_t(rng.next_below(1024)), 512});
  }
  const double one = torus.exchange(transfers, 1).seconds;
  const double four = torus.exchange(transfers, 4).seconds;
  const double sixteen = torus.exchange(transfers, 16).seconds;
  EXPECT_GE(one, four);
  EXPECT_GE(four, sixteen);
}

TEST_P(NetworkProperty, RoutingDeterministicAndBounded) {
  const machine::Partition part(machine::MachineConfig{}, 2048);
  const net::TorusModel torus(part);
  const Vec3i dims = part.torus_dims();
  const std::int64_t max_hops =
      dims.x / 2 + dims.y / 2 + dims.z / 2;
  for (int i = 0; i < 50; ++i) {
    const auto a = std::int64_t(rng.next_below(std::uint64_t(part.num_nodes())));
    const auto b = std::int64_t(rng.next_below(std::uint64_t(part.num_nodes())));
    const std::int64_t h1 = torus.route(a, b, [](const net::LinkId&) {});
    const std::int64_t h2 = torus.route(a, b, [](const net::LinkId&) {});
    EXPECT_EQ(h1, h2);
    EXPECT_LE(h1, max_hops);
  }
}

// ---------------- netCDF codec properties ----------------

using NetcdfProperty = Seeded;

TEST_P(NetcdfProperty, RandomFilesRoundTrip) {
  using namespace format::netcdf;
  for (int iter = 0; iter < 10; ++iter) {
    const auto version = std::array{Version::kClassic, Version::k64BitOffset,
                                    Version::k64BitData}[rng.next_below(3)];
    const bool record = rng.next_below(2) == 0;
    const std::int64_t nx = 1 + std::int64_t(rng.next_below(40));
    const std::int64_t ny = 1 + std::int64_t(rng.next_below(40));
    const std::int64_t nz = 1 + std::int64_t(rng.next_below(40));
    std::vector<std::string> names;
    const int nvars = 1 + int(rng.next_below(6));
    for (int v = 0; v < nvars; ++v) {
      names.push_back("var_" + std::to_string(v) +
                      std::string(rng.next_below(9), 'x'));
    }
    const File f = make_volume_file(version, nx, ny, nz, names, record);
    const File g = File::decode_header(f.encode_header());
    EXPECT_EQ(g.file_bytes(), f.file_bytes());
    EXPECT_EQ(g.record_size(), f.record_size());
    for (std::size_t v = 0; v < names.size(); ++v) {
      EXPECT_EQ(g.data_offset(int(v), 0), f.data_offset(int(v), 0));
    }
  }
}

// ---------------- Transfer function properties ----------------

using TransferFunctionProperty = Seeded;

TEST_P(TransferFunctionProperty, AlphaMonotoneInOpacityAndBounded) {
  const float max_op = float(rng.uniform(0.1, 1.0));
  const render::TransferFunction tf =
      render::TransferFunction::grayscale_ramp(max_op);
  float prev = -1.0f;
  for (float v = 0.0f; v <= 1.0f; v += 0.05f) {
    const Rgba c = tf.sample(v);
    EXPECT_GE(c.a, prev);
    EXPECT_GE(c.a, 0.0f);
    EXPECT_LE(c.a, 1.0f);
    // Premultiplied: channels never exceed alpha for this ramp.
    EXPECT_LE(c.r, c.a + 1e-6f);
    prev = c.a;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LayoutProperty, ::testing::Values(1, 2, 3));
INSTANTIATE_TEST_SUITE_P(Seeds, DecompositionProperty2,
                         ::testing::Values(1, 2, 3, 4, 5));
INSTANTIATE_TEST_SUITE_P(Seeds, ScheduleProperty,
                         ::testing::Values(1, 2, 3, 4, 5));
INSTANTIATE_TEST_SUITE_P(Seeds, NetworkProperty, ::testing::Values(1, 2, 3));
INSTANTIATE_TEST_SUITE_P(Seeds, NetcdfProperty, ::testing::Values(1, 2));
INSTANTIATE_TEST_SUITE_P(Seeds, TransferFunctionProperty,
                         ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace pvr
