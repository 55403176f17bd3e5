// Assorted behaviour coverage across modules: orthographic rendering, early
// termination, runtime re-use, netCDF attribute values, torus route
// contiguity, logging, and compositor internals not covered elsewhere.
#include <gtest/gtest.h>

#include <cstring>

#include "compose/direct_send.hpp"
#include "data/synthetic.hpp"
#include "format/netcdf.hpp"
#include "net/torus.hpp"
#include "render/raycaster.hpp"
#include "runtime/runtime.hpp"
#include "util/log.hpp"

namespace pvr {
namespace {

TEST(OrthographicRenderTest, ProducesSameStructureAsPerspective) {
  const Vec3i dims{24, 24, 24};
  Brick whole(Box3i{{0, 0, 0}, dims});
  data::SupernovaField(6).fill_brick(data::Variable::kPressure, dims,
                                     &whole);
  render::RenderConfig cfg;
  const render::Raycaster rc(dims, cfg);
  const Box3d wb = render::world_box(dims);
  const Vec3d center{wb.center().x, wb.center().y, wb.center().z};
  const Vec3d eye = center + Vec3d{1.5, 1.0, 1.8};

  const render::Camera persp =
      render::Camera::look_at(eye, center, {0, 1, 0}, 40.0, 64, 64);
  const render::Camera ortho =
      render::Camera::ortho_look_at(eye, center, {0, 1, 0}, 1.4, 64, 64);
  const render::TransferFunction tf = render::TransferFunction::supernova();
  const Image a = rc.render_full(whole, persp, tf);
  const Image b = rc.render_full(whole, ortho, tf);
  // Both show the object near the center with transparent corners.
  EXPECT_GT(a.at(32, 32).a, 0.05f);
  EXPECT_GT(b.at(32, 32).a, 0.05f);
  EXPECT_FLOAT_EQ(a.at(0, 0).a, 0.0f);
  EXPECT_FLOAT_EQ(b.at(0, 0).a, 0.0f);
}

TEST(EarlyTerminationTest, SavesSamplesWithoutChangingOpaquePixels) {
  const Vec3i dims{32, 32, 32};
  Brick whole(Box3i{{0, 0, 0}, dims});
  std::fill(whole.data().begin(), whole.data().end(), 0.9f);
  render::RenderConfig full;
  full.early_termination = 1.0;
  render::RenderConfig early;
  early.early_termination = 0.98;
  const render::Camera cam = render::Camera::default_view(dims, 48, 48);
  const render::TransferFunction tf =
      render::TransferFunction::grayscale_ramp(0.5f);

  const render::Raycaster rc_full(dims, full);
  const render::Raycaster rc_early(dims, early);
  const Box3i whole_box{{0, 0, 0}, dims};
  const render::SubImage a =
      rc_full.render_block(whole, whole_box, cam, tf);
  const render::SubImage b =
      rc_early.render_block(whole, whole_box, cam, tf);
  EXPECT_LT(b.samples, a.samples);  // early termination cuts work
  // Opaque pixels match closely (the truncated tail contributes ~nothing).
  float worst = 0.0f;
  for (std::size_t i = 0; i < a.pixels.size(); ++i) {
    if (a.pixels[i].a > 0.99f) {
      worst = std::max(worst, max_channel_diff(a.pixels[i], b.pixels[i]));
    }
  }
  EXPECT_LT(worst, 0.03f);
}

TEST(RuntimeReuseTest, MultipleExchangesAccumulateIndependently) {
  machine::Partition part(machine::MachineConfig{}, 16);
  runtime::Runtime rt(part, runtime::Mode::kExecute);
  int delivered = 0;
  for (int round = 0; round < 3; ++round) {
    std::vector<runtime::Message> msgs;
    for (std::int64_t rank = 0; rank < 16; ++rank) {
      msgs.push_back(
          runtime::Message{rank, (rank + round + 1) % 16, round, 128, {}});
    }
    const net::ExchangeCost cost = rt.exchange_messages(
        std::move(msgs),
        [&](std::int64_t, std::span<const runtime::Message> inbox) {
          delivered += int(inbox.size());
        });
    EXPECT_GT(cost.seconds, 0.0);
  }
  EXPECT_EQ(delivered, 3 * 16);
}

TEST(NetcdfAttrTest, FloatAttributeValuesRoundTripExactly) {
  using namespace format::netcdf;
  const float values[] = {1.0f, -2.5f, 3.14159f};
  Var v;
  v.name = "x";
  v.dimids = {0};
  const File f(Version::kClassic, {{"d", 4}}, {Attr::real("r", values)}, {v},
               0);
  const File g = File::decode_header(f.encode_header());
  ASSERT_EQ(g.global_attrs().size(), 1u);
  const auto& attr = g.global_attrs()[0];
  ASSERT_EQ(attr.nelems, 3);
  // Decode the big-endian floats back.
  for (int i = 0; i < 3; ++i) {
    std::uint32_t bits = 0;
    for (int b = 0; b < 4; ++b) {
      bits = (bits << 8) | std::uint32_t(attr.values[std::size_t(i * 4 + b)]);
    }
    float back;
    std::memcpy(&back, &bits, 4);
    EXPECT_EQ(back, values[i]);
  }
}

TEST(TorusRouteTest, LinksFormContiguousPath) {
  machine::Partition part(machine::MachineConfig{}, 2048);  // 8x8x8 nodes
  const net::TorusModel torus(part);
  std::vector<net::LinkId> links;
  torus.route(7, 300, [&](const net::LinkId& l) { links.push_back(l); });
  // Each link starts where the previous one ended.
  Vec3i cur = part.coords_of_node(7);
  for (const auto& l : links) {
    EXPECT_EQ(l.node, part.node_of_coords(cur));
    const Vec3i dims = part.torus_dims();
    cur[l.dim] = (cur[l.dim] + (l.dir == 0 ? 1 : dims[l.dim] - 1)) %
                 dims[l.dim];
  }
  EXPECT_EQ(part.node_of_coords(cur), 300);
}

TEST(LogTest, LevelsControlOutput) {
  // No crash at any level; default is quiet.
  EXPECT_EQ(log_level(), LogLevel::kQuiet);
  set_log_level(LogLevel::kDebug);
  PVR_LOG_INFO("info message");
  PVR_LOG_DEBUG("debug message");
  set_log_level(LogLevel::kQuiet);
  PVR_LOG_INFO("suppressed");
  EXPECT_EQ(log_level(), LogLevel::kQuiet);
}

TEST(LogTest, MacrosSkipMessageConstructionWhenSuppressed) {
  set_log_level(LogLevel::kQuiet);
  int evaluations = 0;
  const auto expensive = [&evaluations]() {
    ++evaluations;
    return std::string("built");
  };
  PVR_LOG_INFO(expensive());
  PVR_LOG_DEBUG(expensive());
  EXPECT_EQ(evaluations, 0);
  set_log_level(LogLevel::kInfo);
  PVR_LOG_INFO(expensive());
  PVR_LOG_DEBUG(expensive());  // still below kDebug: not evaluated
  EXPECT_EQ(evaluations, 1);
  set_log_level(LogLevel::kQuiet);
}

TEST(DirectSendInternalsTest, DepthTiesBreakBySourceRank) {
  // Two fragments at identical depth: delivery blends in source-rank order,
  // deterministically.
  machine::Partition part(machine::MachineConfig{}, 4);
  runtime::Runtime rt(part, runtime::Mode::kExecute);
  compose::CompositeConfig cc;
  cc.policy = compose::CompositorPolicy::kFixed;
  cc.fixed_compositors = 1;
  compose::DirectSendCompositor compositor(rt, cc);

  const Rect rect{0, 0, 2, 2};
  std::vector<compose::BlockScreenInfo> blocks = {
      {0, rect, 1.0}, {1, rect, 1.0}};  // equal depths
  std::vector<render::SubImage> subs(2);
  for (int i = 0; i < 2; ++i) {
    subs[std::size_t(i)].rect = rect;
    subs[std::size_t(i)].pixels.assign(4, kTransparent);
  }
  // Rank 0 opaque red, rank 1 opaque green: rank 0 must win every pixel.
  subs[0].pixels.assign(4, Rgba{1, 0, 0, 1});
  subs[1].pixels.assign(4, Rgba{0, 1, 0, 1});
  Image out;
  compositor.execute(blocks, subs, 2, 2, &out);
  EXPECT_EQ(out.at(0, 0), (Rgba{1, 0, 0, 1}));
  EXPECT_EQ(out.at(1, 1), (Rgba{1, 0, 0, 1}));
}

TEST(ExchangeCostFieldsTest, BandwidthAndBreakdownConsistent) {
  machine::Partition part(machine::MachineConfig{}, 64);
  const net::TorusModel torus(part);
  const std::vector<net::Transfer> transfers = {{0, 63, 1 << 20},
                                                {4, 60, 1 << 20}};
  const auto cost = torus.exchange(transfers);
  EXPECT_GT(cost.bandwidth(), 0.0);
  EXPECT_DOUBLE_EQ(cost.bandwidth(),
                   double(cost.total_bytes) / cost.seconds);
  EXPECT_GE(cost.seconds, cost.skew_seconds);
  EXPECT_GE(cost.congestion_factor, 1.0);
}

TEST(SubImageTest, VolumeBehindCameraRendersTransparent) {
  const Vec3i dims{16, 16, 16};
  render::RenderConfig cfg;
  const render::Raycaster rc(dims, cfg);
  // Camera looking directly away from the volume: the footprint falls back
  // to the conservative full image (corners project behind the eye), but
  // every ray misses, so no samples are taken and all pixels stay clear.
  const render::Camera cam = render::Camera::look_at(
      {3, 3, 3}, {6, 6, 6}, {0, 1, 0}, 30.0, 32, 32);
  Brick whole(Box3i{{0, 0, 0}, dims});
  const render::SubImage sub = rc.render_block(
      whole, Box3i{{0, 0, 0}, dims}, cam,
      render::TransferFunction::grayscale_ramp());
  EXPECT_EQ(sub.samples, 0);
  for (const Rgba& p : sub.pixels) EXPECT_EQ(p, kTransparent);
}

}  // namespace
}  // namespace pvr
