#include "render/simd/packet_kernel.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "render/simd/vec8.hpp"
#include "util/error.hpp"

namespace pvr::render::simd {

namespace {

/// Fragment state of up to 8 rays (one scanline run of pixels) marched in
/// lockstep. Dead lanes keep their last accumulated color; lanes that never
/// hit the region stay transparent, matching the scalar early returns.
struct Packet {
  Double8 ox, oy, oz;      ///< ray origins
  Double8 dx, dy, dz;      ///< ray directions
  Double8 t0;              ///< lattice origin: volume entry t per lane
  Double8 t_exit;          ///< volume exit t (the scalar break bound)
  Int8 k_begin, k_end;     ///< per-lane lattice index range (int32: the
                           ///< Raycaster bounds the lattice to fit)
  Float8 r, g, b, a;       ///< accumulated premultiplied color
  Int8 alive;              ///< still marching (scalar: loop not broken)
  std::int64_t k_min = 0;  ///< min k_begin over hit lanes
  std::int64_t k_max = -1; ///< max k_end over hit lanes
  std::size_t out_base = 0;  ///< index of lane 0's pixel in the out buffer
  int nlanes = 0;          ///< pixels covered (tail packets may be short)
  bool done = false;       ///< no lane alive (whole packet early-out)
};

/// Per-axis constants of sample_trilinear's edge clamp, broadcast once. The
/// floor is compared against the clamp bounds as doubles (exact: both sides
/// are integers) and converted to int32 once, after the clamp. Linear
/// offsets are int32 — bounded by the brick's voxel count, which
/// render_rows requires to be below 2^31 — because int32 is the integer
/// width with native SIMD multiply and double->int conversion down to SSE2.
struct AxisClamp {
  Double8 lo;      ///< brick.box().lo[a]
  Double8 hm2;     ///< brick.box().hi[a] - 2
  Double8 clampi;  ///< max(lo, hi - 2): the upper-clamp index
  Double8 edge_f;  ///< extent > 1 ? 1.0 : 0.0: the upper-clamp fraction
  Int8 lo_i;       ///< lo, for the brick-relative offsets
};

/// One axis of a world box, broadcast for the vectorized intersect.
struct Slab {
  Double8 lo, hi;
};

/// Camera::ray and intersect's constants, broadcast once. The scalar
/// camera's per-pixel expressions are reproduced operation for operation;
/// terms that do not vary along a scanline (the v coordinate and the up
/// vector's contribution) are computed as the same scalar expressions.
struct RayConstants {
  bool ortho = false;
  double height = 0.0;
  double scale = 0.0;  ///< tan_half_fov, or half the orthographic height
  Double8 lane;        ///< 0, 1, ..., 7
  Double8 width, aspect, scale8;  ///< scale8: scale, broadcast
  Double8 eye[3], forward[3], right[3];
  Vec3d up;
  Slab vol[3];  ///< whole-volume box (the lattice origin)
};

/// March constants shared by every packet of a render_rows call.
struct Constants {
  Slab region[3];  // half-open region membership box
  Double8 inv_h, half, dzero, one, two;
  AxisClamp ax[3];
  Int8 ex, exy;  // linear-index strides of y and z
  bool x_pairs = false;  // x extent > 1: the x neighbors are adjacent
  std::ptrdiff_t step_y = 0, step_z = 0;  // offsets of the y, z neighbors
  Float8 scale, bias, early, fone;
  RayConstants ray;
  const float* data = nullptr;
  const TfLut* lut = nullptr;
  const float* opacity_data = nullptr;  // bivariate renders only
  const TfLut* opacity_lut = nullptr;
};

/// Force-inlined into each render_rows_impl instantiation, so the march
/// sees the broadcast constants (zeros, ones) as constants, not as loads.
[[gnu::always_inline]] inline Constants make_constants(
    const KernelParams& kp) {
  Constants c;
  for (int axis = 0; axis < 3; ++axis) {
    c.region[axis] = {Double8::broadcast(kp.region.lo[axis]),
                      Double8::broadcast(kp.region.hi[axis])};
  }
  c.inv_h = Double8::broadcast(kp.inv_h);
  c.half = Double8::broadcast(0.5);
  c.dzero = Double8::broadcast(0.0);
  c.one = Double8::broadcast(1.0);
  c.two = Double8::broadcast(2.0);
  const Box3i& b = kp.brick->box();
  const Vec3i e = b.extent();
  for (int axis = 0; axis < 3; ++axis) {
    AxisClamp& ax = c.ax[axis];
    const std::int64_t lo = b.lo[axis], hm2 = b.hi[axis] - 2;
    ax.lo = Double8::broadcast(double(lo));
    ax.hm2 = Double8::broadcast(double(hm2));
    ax.clampi = Double8::broadcast(double(std::max(lo, hm2)));
    ax.edge_f = Double8::broadcast((b.hi[axis] - b.lo[axis]) > 1 ? 1.0 : 0.0);
    ax.lo_i = Int8::broadcast(std::int32_t(lo));
  }
  c.ex = Int8::broadcast(std::int32_t(e.x));
  c.exy = Int8::broadcast(std::int32_t(e.x * e.y));
  c.x_pairs = e.x > 1;
  c.step_y = e.y > 1 ? std::ptrdiff_t(e.x) : 0;
  c.step_z = e.z > 1 ? std::ptrdiff_t(e.x * e.y) : 0;
  c.scale = Float8::broadcast(kp.value_scale);
  c.bias = Float8::broadcast(kp.value_bias);
  c.early = Float8::broadcast(kp.early_termination);
  c.fone = Float8::broadcast(1.0f);

  const Camera& cam = *kp.camera;
  RayConstants& rc = c.ray;
  rc.ortho = cam.orthographic();
  rc.height = double(cam.height());
  rc.scale = rc.ortho ? cam.view_height() * 0.5 : cam.tan_half_fov();
  for (int i = 0; i < kLanes; ++i) rc.lane.set_lane(i, double(i));
  rc.width = Double8::broadcast(double(cam.width()));
  rc.aspect = Double8::broadcast(double(cam.width()) / double(cam.height()));
  rc.scale8 = Double8::broadcast(rc.scale);
  for (int axis = 0; axis < 3; ++axis) {
    rc.eye[axis] = Double8::broadcast(cam.eye()[axis]);
    rc.forward[axis] = Double8::broadcast(cam.forward()[axis]);
    rc.right[axis] = Double8::broadcast(cam.right()[axis]);
    rc.vol[axis] = {Double8::broadcast(kp.vol.lo[axis]),
                    Double8::broadcast(kp.vol.hi[axis])};
  }
  rc.up = cam.up();
  c.data = kp.brick->data().data();
  c.lut = kp.lut;
  if (kp.opacity_brick != nullptr) {
    c.opacity_data = kp.opacity_brick->data().data();
    c.opacity_lut = kp.opacity_lut;
  }
  return c;
}

/// intersect() over 8 rays: the slab method with the same expressions,
/// its `|d| < 1e-300` branch and its swap as mask selects, and std::max /
/// std::min as the selects they are defined as. The scalar exits after the
/// first axis that empties the interval; t0 only grows and t1 only shrinks,
/// so one `t0 > t1` test after the last axis decides the same lanes.
/// Returns the lanes that hit; *t_enter / *t_exit are defined on those.
Mask64 intersect8(const Double8 o[3], const Double8 d[3], const Slab box[3],
                  Double8* t_enter, Double8* t_exit) {
  const Double8 tiny = Double8::broadcast(1e-300);
  const Double8 neg_tiny = Double8::broadcast(-1e-300);
  Double8 t0 = Double8::broadcast(0.0);
  Double8 t1 = Double8::broadcast(std::numeric_limits<double>::infinity());
  Mask64 miss{};
  for (int a = 0; a < 3; ++a) {
    const Slab& s = box[a];
    // std::fabs(d) < 1e-300, without the fabs.
    const Mask64 flat = mask_lt(d[a], tiny) & mask_gt(d[a], neg_tiny);
    miss = miss | (flat & (mask_lt(o[a], s.lo) | mask_ge(o[a], s.hi)));
    const Double8 ta = (s.lo - o[a]) / d[a];
    const Double8 tb = (s.hi - o[a]) / d[a];
    const Mask64 swap = mask_gt(ta, tb);
    const Double8 near = select(swap, tb, ta);
    const Double8 far = select(swap, ta, tb);
    t0 = select(flat, t0, select(mask_lt(t0, near), near, t0));
    t1 = select(flat, t1, select(mask_lt(far, t1), far, t1));
  }
  *t_enter = t0;
  *t_exit = t1;
  return ~(miss | mask_gt(t0, t1));
}

/// Ray setup for one packet in Double8 lanes: Camera::ray, the volume and
/// region intersections and the lattice bounds — the per-ray reference
/// march's prologue, expression for expression. Lanes that miss (or pad a
/// short tail packet) get alive = 0 and k_end = -1, so they never sample
/// and stay transparent. Force-inlined: it runs once per packet in both
/// render_rows_impl instantiations.
[[gnu::always_inline]] inline void setup_packet(const KernelParams& kp,
                                                const Constants& c,
                                                int px_begin, int px_count,
                                                int py, std::size_t out_base,
                                                Packet* pkt) {
  const RayConstants& rc = c.ray;
  pkt->r = pkt->g = pkt->b = pkt->a = Float8::broadcast(0.0f);
  pkt->out_base = out_base;
  pkt->nlanes = px_count;
  pkt->done = false;

  // Camera::ray: u per lane; v is one scalar for the whole scanline.
  const Double8 px = Double8::broadcast(double(px_begin)) + rc.lane;
  const Double8 u = ((px + c.half) / rc.width) * c.two - c.one;
  const double v = 1.0 - ((py + 0.5) / rc.height) * 2.0;
  const Double8 su = (u * rc.scale8) * rc.aspect;
  const double sv = v * rc.scale;
  Double8 o[3], d[3];
  if (rc.ortho) {
    for (int a = 0; a < 3; ++a) {
      o[a] = (rc.eye[a] + rc.right[a] * su) +
             Double8::broadcast(rc.up[a] * sv);
      d[a] = rc.forward[a];
    }
  } else {
    Double8 raw[3];
    for (int a = 0; a < 3; ++a) {
      o[a] = rc.eye[a];
      raw[a] = (rc.forward[a] + rc.right[a] * su) +
               Double8::broadcast(rc.up[a] * sv);
    }
    // Vec3d::normalized(): divide by the length where it is positive.
    const Double8 len = sqrt((raw[0] * raw[0] + raw[1] * raw[1]) +
                             raw[2] * raw[2]);
    const Mask64 pos = mask_gt(len, c.dzero);
    for (int a = 0; a < 3; ++a) d[a] = select(pos, raw[a] / len, c.dzero);
  }

  Double8 t0, t_exit;
  Mask64 hit = mask_lt(rc.lane, Double8::broadcast(double(px_count))) &
               intersect8(o, d, rc.vol, &t0, &t_exit);
  Double8 reg_enter = t0, reg_exit = t_exit;
  if (!kp.region_is_volume) {
    hit = hit & intersect8(o, d, c.region, &reg_enter, &reg_exit);
  }
  // Lattice bounds: max(0, floor((enter - t0) / dt) - 1) and
  // ceil((exit - t0) / dt) + 1, in doubles (exact: the Raycaster keeps
  // every lattice index below 2^31), converted once on hit lanes.
  const Double8 dt = Double8::broadcast(kp.dt);
  const Double8 kb = floor((reg_enter - t0) / dt) - c.one;
  const Double8 ke = ceil((reg_exit - t0) / dt) + c.one;
  pkt->k_begin = to_int(select(hit, select(mask_lt(c.dzero, kb), kb, c.dzero),
                               c.dzero));
  pkt->k_end = to_int(select(hit, ke, Double8::broadcast(-1.0)));
  pkt->ox = select(hit, o[0], c.dzero);
  pkt->oy = select(hit, o[1], c.dzero);
  pkt->oz = select(hit, o[2], c.dzero);
  pkt->dx = select(hit, d[0], c.dzero);
  pkt->dy = select(hit, d[1], c.dzero);
  pkt->dz = select(hit, d[2], c.dzero);
  pkt->t0 = select(hit, t0, c.dzero);
  pkt->t_exit = select(hit, t_exit, Double8::broadcast(-1.0));
  pkt->alive = narrow(hit);
  pkt->k_min = std::numeric_limits<std::int64_t>::max();
  pkt->k_max = -1;
  for (int lane = 0; lane < kLanes; ++lane) {
    if (pkt->alive.lane(lane) != 0) {
      pkt->k_min = std::min<std::int64_t>(pkt->k_min, pkt->k_begin.lane(lane));
      pkt->k_max = std::max<std::int64_t>(pkt->k_max, pkt->k_end.lane(lane));
    }
  }
  if (pkt->k_max < 0) pkt->done = true;
}

/// sample_trilinear's corner reads and lerps for 8 lanes: each lane's
/// eight cell corners, read from `data` at `base` plus the brick-constant
/// neighbor offsets, blended along x, then y, then z.
[[gnu::always_inline]] inline Float8 trilerp8(const Constants& c,
                                              const float* data,
                                              const Int8& base,
                                              const Float8& fx,
                                              const Float8& fy,
                                              const Float8& fz) {
  Float8 c000, c100, c010, c110, c001, c101, c011, c111;
  const auto x_pair = [&](const float* at, Float8* x0, Float8* x1) {
    if (c.x_pairs) {
      gather_pairs(at, base, x0, x1);
    } else {
      *x0 = *x1 = gather(at, base);
    }
  };
  x_pair(data, &c000, &c100);
  x_pair(data + c.step_y, &c010, &c110);
  x_pair(data + c.step_z, &c001, &c101);
  x_pair(data + c.step_y + c.step_z, &c011, &c111);
  const Float8 c00 = c000 + fx * (c100 - c000);
  const Float8 c10 = c010 + fx * (c110 - c010);
  const Float8 c01 = c001 + fx * (c101 - c001);
  const Float8 c11 = c011 + fx * (c111 - c011);
  const Float8 c0 = c00 + fy * (c10 - c00);
  const Float8 c1 = c01 + fy * (c11 - c01);
  return c0 + fz * (c1 - c0);
}

/// One lattice step k for one packet; returns samples taken. `kd` is the
/// precomputed double(k) * dt — the same product every scalar lane computes.
/// Force-inlined (with the LUT's lookup8 and finish8) into the tile loop:
/// at ~100 ns per call the out-of-line ABI — 10 vector outputs through
/// pointers — was measurable. A univariate step looks up all four channels
/// in one LUT; a bivariate step reads the opacity brick at the colour
/// brick's corners and takes r, g, b from the colour LUT and opacity from
/// the opacity LUT. Either finishes once, and non-member lanes never blend.
template <bool kBivariate>
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
  const Slab* r = c.region;
  member = member &
           narrow(mask_ge(px, r[0].lo) & mask_lt(px, r[0].hi) &
                  mask_ge(py, r[1].lo) & mask_lt(py, r[1].hi) &
                  mask_ge(pz, r[2].lo) & mask_lt(pz, r[2].hi));
  if (!any(member)) return 0;

  // sample_trilinear, vectorized. The edge clamp bounds every lane's indices
  // into the brick (non-member lanes too), so the corner gathers below are
  // unconditionally in-bounds.
  Int8 i0[3];
  Double8 frac[3];
  const Double8 p[3] = {px, py, pz};
  for (int axis = 0; axis < 3; ++axis) {
    const AxisClamp& ax = c.ax[axis];
    const Double8 v = p[axis] * c.inv_h - c.half;
    const Double8 fl = floor(v);
    const Double8 f = v - fl;
    // The scalar `i < lo` / `i > hi - 2` tests on the floor itself. Written
    // !(fl >= lo), the lower test also sends a NaN lane to the clamp, so
    // every lane's corner index stays inside the brick.
    const Mask64 below = ~mask_ge(fl, ax.lo);
    const Mask64 above = mask_gt(fl, ax.hm2);
    i0[axis] = to_int(select(below, ax.lo, select(above, ax.clampi, fl)));
    frac[axis] = select(below, c.dzero, select(above, ax.edge_f, f));
  }
  // The clamp keeps i0 <= hi - 2 on an axis of extent >= 2, so the +1
  // neighbor min(i0 + 1, hi - 1) is i0 + 1; on an axis of extent 1 it is
  // i0. Either way its linear offset is a brick constant, and the eight
  // corners are one base index read at eight fixed offsets. The x
  // neighbors are adjacent floats, read as pairs.
  const Int8 base = (i0[2] - c.ax[2].lo_i) * c.exy +
                    (i0[1] - c.ax[1].lo_i) * c.ex + (i0[0] - c.ax[0].lo_i);
  const Float8 fx = to_float(frac[0]);
  const Float8 fy = to_float(frac[1]);
  const Float8 fz = to_float(frac[2]);
  const Float8 vn = trilerp8(c, c.data, base, fx, fy, fz) * c.scale + c.bias;
  Float8 ch[4];
  if constexpr (kBivariate) {
    // The bricks share one box, so base and offsets address both.
    const Float8 on =
        trilerp8(c, c.opacity_data, base, fx, fy, fz) * c.scale + c.bias;
    c.lut->lookup8(vn, 0, 3, ch);
    c.opacity_lut->lookup8(on, 3, 4, ch);
  } else {
    c.lut->lookup8(vn, 0, 4, ch);
  }
  Float8 sr, sg, sb, sa;
  c.lut->finish8(ch, &sr, &sg, &sb, &sa);

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

/// Cache tile shape in pixels: 32x8 rays traverse the same brick slabs, so
/// a tile's working set stays cache-resident. Tiling orders the work only;
/// pixels and sample counts do not depend on it.
constexpr int kTileW = 32;
constexpr int kTileH = 8;

/// render_rows for one transfer-function kind: the univariate and the
/// bivariate instantiations share every line but the sample itself.
template <bool kBivariate>
std::int64_t render_rows_impl(const KernelParams& kp, const Rect& rect,
                              std::int64_t row_begin, std::int64_t row_end,
                              Rgba* out) {
  const int width = rect.width();
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
          setup_packet(kp, c, rect.x0 + x, std::min(kLanes, tx_end - x), py,
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
          samples += march_step<kBivariate>(c, &pkt, k, double(k) * kp.dt);
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

}  // namespace

std::int64_t render_rows(const KernelParams& kp, const Rect& rect,
                         std::int64_t row_begin, std::int64_t row_end,
                         Rgba* out) {
  if (rect.width() <= 0 || row_begin >= row_end) return 0;
  // The kernel's index math rides in int32 lanes, which limits the
  // renderer to bricks under 2^31 voxels (8 GiB of float data).
  PVR_REQUIRE(kp.brick->data().size() <
                  std::size_t(std::numeric_limits<std::int32_t>::max()),
              "brick too large for int32 kernel indexing");
  if (kp.opacity_brick == nullptr) {
    return render_rows_impl<false>(kp, rect, row_begin, row_end, out);
  }
  // A bivariate step reads both bricks at one base index.
  PVR_REQUIRE(kp.opacity_lut != nullptr &&
                  kp.opacity_brick->box() == kp.brick->box(),
              "colour and opacity bricks must share one box");
  return render_rows_impl<true>(kp, rect, row_begin, row_end, out);
}

}  // namespace pvr::render::simd
