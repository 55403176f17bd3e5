#include "render/simd/packet_kernel.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "render/simd/vec8.hpp"
#include "render/trilinear.hpp"
#include "util/error.hpp"

namespace pvr::render::simd {

namespace {

/// Fragment state of up to 8 rays (one scanline run of pixels) marched in
/// lockstep. Dead lanes keep their last accumulated color; lanes that never
/// hit the region stay transparent, matching the scalar early returns.
struct Packet {
  Double8 ox, oy, oz;      ///< ray origins (per-lane scalar setup)
  Double8 dx, dy, dz;      ///< ray directions
  Double8 t0;              ///< lattice origin: volume entry t per lane
  Double8 t_exit;          ///< volume exit t (the scalar break bound)
  Int8 k_begin, k_end;     ///< per-lane lattice index range (int32: see
                           ///< setup_packet's clamp note)
  Float8 r, g, b, a;       ///< accumulated premultiplied color
  Int8 alive;              ///< still marching (scalar: loop not broken)
  std::int64_t k_min = 0;  ///< min k_begin over hit lanes
  std::int64_t k_max = -1; ///< max k_end over hit lanes
  std::size_t out_base = 0;  ///< index of lane 0's pixel in the out buffer
  int nlanes = 0;          ///< pixels covered (tail packets may be short)
  bool done = false;       ///< no lane alive (whole packet early-out)
};

/// Per-axis constants of sample_trilinear's edge clamp, broadcast once. All
/// index math is int32 — linear offsets are bounded by the brick's voxel
/// count, which render_rows requires to be below 2^31 — because int32 is
/// the integer width with native SIMD multiply and double<->int conversion
/// down to SSE2 (int64 lane ops scalarize below AVX-512).
struct AxisClamp {
  Int8 lo;         ///< brick.box().lo[a]
  Int8 hm2;        ///< brick.box().hi[a] - 2
  Int8 clampi;     ///< max(lo, hi - 2): the upper-clamp index
  Int8 x1_max;     ///< hi - 1: bound of the +1 stencil neighbor
  Double8 edge_f;  ///< extent > 1 ? 1.0 : 0.0: the upper-clamp fraction
};

/// March constants shared by every packet of a render_rows call.
struct Constants {
  Double8 rlo_x, rlo_y, rlo_z, rhi_x, rhi_y, rhi_z;  // region membership box
  Double8 inv_h, half, dzero;
  AxisClamp ax[3];
  Int8 ex, ey;  // brick extents for linear indexing
  Int8 ione;
  Float8 scale, bias, early, fone;
  const float* data = nullptr;
  const TfLut* lut = nullptr;
};

Constants make_constants(const KernelParams& kp) {
  Constants c;
  c.rlo_x = Double8::broadcast(kp.region.lo.x);
  c.rlo_y = Double8::broadcast(kp.region.lo.y);
  c.rlo_z = Double8::broadcast(kp.region.lo.z);
  c.rhi_x = Double8::broadcast(kp.region.hi.x);
  c.rhi_y = Double8::broadcast(kp.region.hi.y);
  c.rhi_z = Double8::broadcast(kp.region.hi.z);
  c.inv_h = Double8::broadcast(kp.inv_h);
  c.half = Double8::broadcast(0.5);
  c.dzero = Double8::broadcast(0.0);
  const Box3i& b = kp.brick->box();
  const Vec3i e = b.extent();
  for (int axis = 0; axis < 3; ++axis) {
    AxisClamp& ax = c.ax[axis];
    const std::int32_t lo = std::int32_t(b.lo[axis]);
    const std::int32_t hm2 = std::int32_t(b.hi[axis] - 2);
    ax.lo = Int8::broadcast(lo);
    ax.hm2 = Int8::broadcast(hm2);
    ax.clampi = Int8::broadcast(std::max(lo, hm2));
    ax.x1_max = Int8::broadcast(std::int32_t(b.hi[axis] - 1));
    ax.edge_f = Double8::broadcast((b.hi[axis] - b.lo[axis]) > 1 ? 1.0 : 0.0);
  }
  c.ex = Int8::broadcast(std::int32_t(e.x));
  c.ey = Int8::broadcast(std::int32_t(e.y));
  c.ione = Int8::broadcast(1);
  c.scale = Float8::broadcast(kp.value_scale);
  c.bias = Float8::broadcast(kp.value_bias);
  c.early = Float8::broadcast(kp.early_termination);
  c.fone = Float8::broadcast(1.0f);
  c.data = kp.brick->data().data();
  c.lut = kp.lut;
  return c;
}

/// Per-lane scalar ray setup for one packet: camera ray + box intersections
/// + lattice bounds, exactly the per-ray reference march's prologue. Lanes
/// that miss (or pad a short tail packet) get alive = 0 and k_end = -1, so
/// they never sample and stay transparent.
void setup_packet(const KernelParams& kp, int px_begin, int px_count, int py,
                  std::size_t out_base, Packet* pkt) {
  pkt->r = pkt->g = pkt->b = pkt->a = Float8::broadcast(0.0f);
  pkt->out_base = out_base;
  pkt->nlanes = px_count;
  pkt->done = false;
  pkt->k_min = std::numeric_limits<std::int64_t>::max();
  pkt->k_max = -1;
  for (int lane = 0; lane < kLanes; ++lane) {
    double o[3] = {0.0, 0.0, 0.0}, d[3] = {0.0, 0.0, 0.0};
    double t0 = 0.0, t_exit = -1.0;
    std::int64_t kb = 0, ke = -1;
    bool hit = false;
    if (lane < px_count) {
      const Ray ray = kp.camera->ray(px_begin + lane, py);
      const auto vol_hit = intersect(ray, kp.vol);
      if (vol_hit) {
        double reg_enter = vol_hit->t_enter;
        double reg_exit = vol_hit->t_exit;
        hit = true;
        if (!kp.region_is_volume) {
          const auto reg_hit = intersect(ray, kp.region);
          if (reg_hit) {
            reg_enter = reg_hit->t_enter;
            reg_exit = reg_hit->t_exit;
          } else {
            hit = false;
          }
        }
        if (hit) {
          o[0] = ray.origin.x;
          o[1] = ray.origin.y;
          o[2] = ray.origin.z;
          d[0] = ray.dir.x;
          d[1] = ray.dir.y;
          d[2] = ray.dir.z;
          t0 = vol_hit->t_enter;
          t_exit = vol_hit->t_exit;
          kb = std::max<std::int64_t>(
              0, std::int64_t(std::floor((reg_enter - t0) / kp.dt)) - 1);
          ke = std::int64_t(std::ceil((reg_exit - t0) / kp.dt)) + 1;
          // Lattice indices ride in int32 lanes. The `t > t_exit` break
          // ends every march at k ~ (t_exit - t0) / dt <= ke, so a range
          // that exceeds int32 would mean >2^31 samples on one ray — far
          // beyond any renderable configuration. Clamp defensively.
          const std::int64_t k_cap =
              std::numeric_limits<std::int32_t>::max() - 1;
          kb = std::min(kb, k_cap);
          ke = std::min(ke, k_cap);
        }
      }
    }
    pkt->ox.set_lane(lane, o[0]);
    pkt->oy.set_lane(lane, o[1]);
    pkt->oz.set_lane(lane, o[2]);
    pkt->dx.set_lane(lane, d[0]);
    pkt->dy.set_lane(lane, d[1]);
    pkt->dz.set_lane(lane, d[2]);
    pkt->t0.set_lane(lane, t0);
    pkt->t_exit.set_lane(lane, t_exit);
    pkt->k_begin.set_lane(lane, std::int32_t(kb));
    pkt->k_end.set_lane(lane, std::int32_t(ke));
    pkt->alive.set_lane(lane, hit ? -1 : 0);
    if (hit) {
      pkt->k_min = std::min(pkt->k_min, kb);
      pkt->k_max = std::max(pkt->k_max, ke);
    }
  }
  if (pkt->k_max < 0) pkt->done = true;
}

/// One lattice step k for one packet; returns samples taken. `kd` is the
/// precomputed double(k) * dt — the same product every scalar lane computes.
/// Force-inlined (with sample8) into the tile loop: at ~100 ns per call the
/// out-of-line ABI — 10 vector outputs through pointers — was measurable.
[[gnu::always_inline]] inline std::int64_t march_step(const Constants& c,
                                                      Packet* pkt,
                                                      std::int64_t k,
                                                      double kd) {
  const Int8 kv = Int8::broadcast(std::int32_t(k));
  const Double8 t = pkt->t0 + Double8::broadcast(kd);
  // Scalar loop exit conditions: k ran past k_end, or t left the volume
  // (the `t > t_exit` break). Both are permanent — the lane is dead.
  pkt->alive = pkt->alive & ~(kv > pkt->k_end) & ~narrow(mask_gt(t, pkt->t_exit));
  if (!any(pkt->alive)) {
    pkt->done = true;
    return 0;
  }
  // Lanes whose lattice range started; half-open region membership is the
  // scalar `continue` (the lane stays alive, it just skips this sample).
  Int8 member = pkt->alive & ~(kv < pkt->k_begin);
  if (!any(member)) return 0;
  const Double8 px = pkt->ox + pkt->dx * t;
  const Double8 py = pkt->oy + pkt->dy * t;
  const Double8 pz = pkt->oz + pkt->dz * t;
  // Six double compares AND together in the 64-bit mask domain and narrow
  // once (a narrowing shuffle per compare was measurable).
  member = member &
           narrow(mask_ge(px, c.rlo_x) & mask_lt(px, c.rhi_x) &
                  mask_ge(py, c.rlo_y) & mask_lt(py, c.rhi_y) &
                  mask_ge(pz, c.rlo_z) & mask_lt(pz, c.rhi_z));
  if (!any(member)) return 0;

  // sample_trilinear, vectorized. The edge clamp bounds every lane's indices
  // into the brick (even non-member lanes, whose positions are finite), so
  // the corner gathers below are unconditionally in-bounds.
  Int8 i0[3];
  Double8 frac[3];
  const Double8 p[3] = {px, py, pz};
  for (int axis = 0; axis < 3; ++axis) {
    const AxisClamp& ax = c.ax[axis];
    const Double8 v = p[axis] * c.inv_h - c.half;
    Double8 fl;
    Int8 iv = floor_int(v, &fl);
    Double8 f = v - fl;
    const Int8 below = iv < ax.lo;
    const Int8 above = iv > ax.hm2;
    iv = select(below, ax.lo, select(above, ax.clampi, iv));
    f = select(below, c.dzero, select(above, ax.edge_f, f));
    i0[axis] = iv;
    frac[axis] = f;
  }
  const Int8 x1 = min(i0[0] + c.ione, c.ax[0].x1_max);
  const Int8 y1 = min(i0[1] + c.ione, c.ax[1].x1_max);
  const Int8 z1 = min(i0[2] + c.ione, c.ax[2].x1_max);
  // Linear indices: ((z - lo.z) * ey + (y - lo.y)) * ex + (x - lo.x).
  const Int8 rx0 = i0[0] - c.ax[0].lo, rx1 = x1 - c.ax[0].lo;
  const Int8 ry0 = i0[1] - c.ax[1].lo, ry1 = y1 - c.ax[1].lo;
  const Int8 rz0 = i0[2] - c.ax[2].lo, rz1 = z1 - c.ax[2].lo;
  const Int8 b00 = (rz0 * c.ey + ry0) * c.ex;
  const Int8 b10 = (rz0 * c.ey + ry1) * c.ex;
  const Int8 b01 = (rz1 * c.ey + ry0) * c.ex;
  const Int8 b11 = (rz1 * c.ey + ry1) * c.ex;
  const Int8 i000 = b00 + rx0, i100 = b00 + rx1;
  const Int8 i010 = b10 + rx0, i110 = b10 + rx1;
  const Int8 i001 = b01 + rx0, i101 = b01 + rx1;
  const Int8 i011 = b11 + rx0, i111 = b11 + rx1;
  const float* data = c.data;
  Float8 c000, c100, c010, c110, c001, c101, c011, c111;
  gather2(data, i000, i100, &c000, &c100);
  gather2(data, i010, i110, &c010, &c110);
  gather2(data, i001, i101, &c001, &c101);
  gather2(data, i011, i111, &c011, &c111);
  const Float8 fx = to_float(frac[0]);
  const Float8 fy = to_float(frac[1]);
  const Float8 fz = to_float(frac[2]);
  const Float8 c00 = c000 + fx * (c100 - c000);
  const Float8 c10 = c010 + fx * (c110 - c010);
  const Float8 c01 = c001 + fx * (c101 - c001);
  const Float8 c11 = c011 + fx * (c111 - c011);
  const Float8 c0 = c00 + fy * (c10 - c00);
  const Float8 c1 = c01 + fy * (c11 - c01);
  const Float8 raw = c0 + fz * (c1 - c0);

  const Float8 vn = raw * c.scale + c.bias;
  Float8 sr, sg, sb, sa;
  c.lut->sample8(vn, member, &sr, &sg, &sb, &sa);

  // Front-to-back "over" accumulation (Rgba::blend_under), masked so
  // non-member lanes keep their color bit-for-bit.
  const Float8 tt = c.fone - pkt->a;
  const Float8 na = pkt->a + tt * sa;
  pkt->r = select(member, pkt->r + tt * sr, pkt->r);
  pkt->g = select(member, pkt->g + tt * sg, pkt->g);
  pkt->b = select(member, pkt->b + tt * sb, pkt->b);
  pkt->a = select(member, na, pkt->a);
  // Scalar early termination: break after the sample that saturates.
  pkt->alive = pkt->alive & ~(member & (na >= c.early));
  return popcount(member);
}

/// Below this many live lanes a packet switches to the scalar tail: most
/// lanes die early (termination / exit), and marching a nearly-empty packet
/// pays full vector-step cost for one or two useful samples. The tail is
/// the scalar reference march written on the packet's lane state — the same
/// expressions in the same order — so the switch is invisible bit-for-bit.
constexpr int kScalarTailMax = 2;

/// Cache tile shape in pixels: 32x8 rays traverse the same brick slabs, so
/// a tile's working set stays cache-resident. Tiling orders the work only;
/// pixels and sample counts do not depend on it.
constexpr int kTileW = 32;
constexpr int kTileH = 8;

/// One ray's state, extracted from a packet lane for the scalar tail.
struct LaneRay {
  double ox, oy, oz, dx, dy, dz, t0, t_exit;
  std::int64_t k_begin, k_end;
  Rgba acc;
};

/// Marches one extracted lane alone from lattice step `k` to completion:
/// the per-ray reference march (t lattice, t_exit break, k_begin skip,
/// half-open membership, sample_trilinear, TfLut::sample1, blend_under,
/// early termination) on the lane's state. Takes the lane state by value
/// rather than a Packet pointer so the march loop's packet can live
/// entirely in registers (an escaping address would force it to memory).
/// Returns the final color; `*samples` accumulates.
Rgba finish_lane_scalar(const KernelParams& kp, const LaneRay ln,
                        std::int64_t k, std::int64_t* samples) {
  const double ox = ln.ox, oy = ln.oy, oz = ln.oz;
  const double dx = ln.dx, dy = ln.dy, dz = ln.dz;
  const double t0 = ln.t0, t_exit = ln.t_exit;
  const std::int64_t k_begin = ln.k_begin, k_end = ln.k_end;
  float r = ln.acc.r, g = ln.acc.g, b = ln.acc.b, a = ln.acc.a;
  for (; k <= k_end; ++k) {
    const double t = t0 + double(k) * kp.dt;
    if (t > t_exit) break;
    if (k < k_begin) continue;
    const double px = ox + dx * t;
    const double py = oy + dy * t;
    const double pz = oz + dz * t;
    if (px < kp.region.lo.x || px >= kp.region.hi.x ||
        py < kp.region.lo.y || py >= kp.region.hi.y ||
        pz < kp.region.lo.z || pz >= kp.region.hi.z) {
      continue;
    }
    const float raw = sample_trilinear(*kp.brick, kp.inv_h, {px, py, pz});
    const float vn = raw * kp.value_scale + kp.value_bias;
    const Rgba s = kp.lut->sample1(vn);
    const float tt = 1.0f - a;
    r = r + tt * s.r;
    g = g + tt * s.g;
    b = b + tt * s.b;
    a = a + tt * s.a;
    ++*samples;
    if (a >= kp.early_termination) break;
  }
  return Rgba{r, g, b, a};
}

}  // namespace

std::int64_t render_rows(const KernelParams& kp, const Rect& rect,
                         std::int64_t row_begin, std::int64_t row_end,
                         Rgba* out) {
  const int width = rect.width();
  if (width <= 0 || row_begin >= row_end) return 0;
  // The kernel's index math rides in int32 lanes, which limits the
  // renderer to bricks under 2^31 voxels (8 GiB of float data).
  PVR_REQUIRE(kp.brick->data().size() <
                  std::size_t(std::numeric_limits<std::int32_t>::max()),
              "brick too large for int32 kernel indexing");
  const Constants c = make_constants(kp);
  const int packets_per_row = (std::min(kTileW, width) + kLanes - 1) / kLanes;
  std::vector<Packet> packets;
  packets.reserve(std::size_t(kTileH) * std::size_t(packets_per_row));

  std::int64_t samples = 0;
  for (std::int64_t ty = row_begin; ty < row_end; ty += kTileH) {
    const std::int64_t ty_end = std::min<std::int64_t>(row_end, ty + kTileH);
    for (int tx = 0; tx < width; tx += kTileW) {
      const int tx_end = std::min(width, tx + kTileW);

      // Build the tile's packets: scanline runs of up to 8 pixels.
      packets.clear();
      for (std::int64_t row = ty; row < ty_end; ++row) {
        const int py = rect.y0 + int(row);
        for (int x = tx; x < tx_end; x += kLanes) {
          Packet pkt;
          setup_packet(kp, rect.x0 + x, std::min(kLanes, tx_end - x), py,
                       std::size_t(row) * std::size_t(width) + std::size_t(x),
                       &pkt);
          packets.push_back(pkt);
        }
      }

      // March each of the tile's packets through its own depth range. The
      // tile bounds the working set — its rays traverse the same brick
      // slabs — while packet-major order lets the packet's state live in
      // registers across the whole march instead of being reloaded per
      // step. Results are per-ray and order-independent, so this ordering
      // choice is invisible in pixels and sample counts.
      for (Packet& slot : packets) {
        if (slot.done) continue;
        // March a local copy: with march_step inlined, a packet whose
        // address never escapes can be scalar-replaced into registers for
        // the whole depth loop instead of reloading state every step.
        Packet pkt = slot;
        for (std::int64_t k = pkt.k_min; !pkt.done && k <= pkt.k_max; ++k) {
          // Nearly-empty packets (lane deaths are staggered, so the last
          // survivor would otherwise drag the whole packet through the
          // remaining depth range) finish their live lanes scalar.
          if (popcount(pkt.alive) <= kScalarTailMax) {
            for (int lane = 0; lane < kLanes; ++lane) {
              if (pkt.alive.lane(lane) != 0) {
                const LaneRay ln{pkt.ox.lane(lane),      pkt.oy.lane(lane),
                                 pkt.oz.lane(lane),      pkt.dx.lane(lane),
                                 pkt.dy.lane(lane),      pkt.dz.lane(lane),
                                 pkt.t0.lane(lane),      pkt.t_exit.lane(lane),
                                 pkt.k_begin.lane(lane), pkt.k_end.lane(lane),
                                 Rgba{pkt.r.lane(lane), pkt.g.lane(lane),
                                      pkt.b.lane(lane), pkt.a.lane(lane)}};
                const Rgba fin = finish_lane_scalar(kp, ln, k, &samples);
                pkt.r.set_lane(lane, fin.r);
                pkt.g.set_lane(lane, fin.g);
                pkt.b.set_lane(lane, fin.b);
                pkt.a.set_lane(lane, fin.a);
              }
            }
            break;
          }
          samples += march_step(c, &pkt, k, double(k) * kp.dt);
        }
        slot = pkt;
      }

      for (const Packet& pkt : packets) {
        for (int lane = 0; lane < pkt.nlanes; ++lane) {
          out[pkt.out_base + std::size_t(lane)] =
              Rgba{pkt.r.lane(lane), pkt.g.lane(lane), pkt.b.lane(lane),
                   pkt.a.lane(lane)};
        }
      }
    }
  }
  return samples;
}

}  // namespace pvr::render::simd
