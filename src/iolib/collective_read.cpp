// The two-phase collective I/O engine behind both CollectiveReader and
// CollectiveWriter. One private plan (plan_two_phase) computes everything
// the two directions share: the global request, the stripe-aligned file
// domains and their aggregators, the cb-buffer windows that hold wanted
// bytes, and the per-(aggregator, rank) shuffle volume. Each direction keeps
// only what really differs: the order in which storage and shuffle are
// priced, which bytes a window touches, and which way the bytes move.
// IndependentReader, the unaggregated baseline, shares the brick checks,
// the storage pricing and the row mapping.
#include "iolib/collective_read.hpp"
#include "iolib/collective_write.hpp"
#include "iolib/independent_read.hpp"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <unordered_set>
#include <utility>

#include "obs/trace.hpp"
#include "util/error.hpp"

namespace pvr::iolib {

namespace {

/// One z-slice of one block's request. The slice's row shape and owner are
/// its brick's (TwoPhasePlan::bricks), so an entry is 16 bytes.
struct SlabEntry {
  std::int64_t first;        ///< file offset of the slice's first row
  std::int32_t brick_index;  ///< into the (block, variable) brick array
  std::int32_t z;
};
static_assert(sizeof(SlabEntry) == 16);

/// What every z-slice of one (block, variable) shares: its row shape and
/// the rank that owns the block.
struct BrickRows {
  std::int64_t row_bytes = 0, row_stride = 0, nrows = 0;
  std::int64_t rank = 0;
};

/// One cb_buffer_bytes window of a file domain that holds wanted bytes.
struct Window {
  std::int64_t lo = 0, hi = 0;  ///< window extent
  std::int64_t agg = 0;         ///< its domain's aggregator rank
  std::int64_t wanted = 0;      ///< wanted bytes inside the window
  std::int64_t trim_lo = std::numeric_limits<std::int64_t>::max();
  std::int64_t trim_hi = 0;     ///< [first, last) wanted byte
  std::vector<std::int32_t> entries;  ///< execute mode only
};

/// Bytes one brick exchanges with one aggregator (one run of them).
struct PairBytes {
  std::int32_t agg = 0, rank = 0;
  std::int64_t bytes = 0;
};

/// The two-phase plan of one collective operation, direction-independent.
struct TwoPhasePlan {
  std::vector<SlabEntry> entries;  ///< in file order, ties by brick index
  std::vector<BrickRows> bricks;   ///< per brick index
  std::int64_t useful_bytes = 0;
  std::int64_t num_aggs = 0;
  std::vector<std::int64_t> domain_agg;  ///< aggregator rank per domain
  /// Windows in (domain, window within the domain) order: file order. A
  /// window's `lo` identifies it, since domains never overlap.
  std::vector<Window> windows;
  std::vector<PairBytes> pairs;
  std::int64_t rounds = 1;  ///< cb-buffer rounds of the largest domain

  format::SlabRequest slab(const SlabEntry& e) const {
    const BrickRows& s = bricks[std::size_t(e.brick_index)];
    return format::SlabRequest{e.first, s.row_bytes, s.row_stride, s.nrows};
  }
};

/// One brick's slab run in sweep coordinates: slice k sits at file offset
/// (q0 + k) * stride + r, so the brick is live for q in [q0, q_end).
struct LiveRun {
  std::int64_t q0 = 0, q_end = 0, r = 0;
  std::int64_t z0 = 0;  ///< z of the slice at q0
  std::int32_t brick = 0;
};

TwoPhasePlan plan_two_phase(runtime::Runtime& rt,
                            const storage::StorageModel& sm,
                            const Hints& hints,
                            const format::VolumeLayout& layout,
                            std::span<const int> vars,
                            std::span<const RankBlock> blocks, bool execute) {
  TwoPhasePlan p;
  const auto& part = rt.partition();
  constexpr std::int64_t kMax32 = std::numeric_limits<std::int32_t>::max();
  PVR_REQUIRE(std::int64_t(blocks.size() * vars.size()) <= kMax32 &&
                  part.num_ranks() <= kMax32 &&
                  layout.desc().dims.z <= kMax32,
              "two-phase plan indexes bricks, ranks and slices with 32 bits");
  // ---- Phase 1: the global request as slab entries in file order; one
  // entry per (block, variable, z slice). Offset o = q * stride + r with
  // r in [0, stride), so file order is (q, r) order, and a brick's slices
  // share r and take consecutive q. Sweeping q upward over the runs, with
  // the live bricks kept in (r, brick index) order, emits the entries in
  // file order; equal offsets (overlapping blocks) come in brick order.
  const std::int64_t stride = layout.slice_stride();
  std::vector<LiveRun> runs;
  runs.reserve(blocks.size() * vars.size());
  p.bricks.resize(blocks.size() * vars.size());
  std::size_t num_entries = 0;
  std::int64_t range_lo = std::numeric_limits<std::int64_t>::max();
  std::int64_t range_hi = 0;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    for (std::size_t v = 0; v < vars.size(); ++v) {
      const format::SlabRun run = layout.slab_run(vars[v], blocks[i].box);
      if (run.slices == 0) continue;
      const std::size_t b = i * vars.size() + v;
      const format::SlabRequest& s = run.first;
      p.bricks[b] = {s.row_bytes, s.row_stride, s.nrows, blocks[i].rank};
      p.useful_bytes += s.useful_bytes() * run.slices;
      range_lo = std::min(range_lo, s.first);
      range_hi = std::max(range_hi,
                          run.slice(run.slices - 1, stride).hull_end());
      num_entries += std::size_t(run.slices);
      const std::int64_t q0 = s.first / stride;
      runs.push_back(LiveRun{q0, q0 + run.slices, s.first % stride, run.z0,
                             std::int32_t(b)});
    }
  }
  if (runs.empty()) return p;
  const auto by_r = [](const LiveRun& a, const LiveRun& b) {
    return std::tie(a.r, a.brick) < std::tie(b.r, b.brick);
  };
  std::sort(runs.begin(), runs.end(), [&](const LiveRun& a, const LiveRun& b) {
    return a.q0 != b.q0 ? a.q0 < b.q0 : by_r(a, b);
  });
  p.entries.reserve(num_entries);
  std::vector<LiveRun> active, merged;  ///< live bricks in (r, brick) order
  std::size_t next = 0;                 ///< the first run not yet live
  for (std::int64_t q = runs[0].q0; !active.empty() || next < runs.size();
       ++q) {
    if (active.empty()) q = runs[next].q0;  // jump over q holding no slice
    std::size_t stop = next;
    while (stop < runs.size() && runs[stop].q0 == q) ++stop;
    if (stop > next) {
      merged.clear();
      std::merge(active.begin(), active.end(),
                 runs.begin() + std::ptrdiff_t(next),
                 runs.begin() + std::ptrdiff_t(stop),
                 std::back_inserter(merged), by_r);
      active.swap(merged);
      next = stop;
    }
    // Each live brick's slice at q; bricks whose run ends at q leave.
    std::size_t kept = 0;
    for (std::size_t j = 0; j < active.size(); ++j) {
      const LiveRun& l = active[j];
      p.entries.push_back(SlabEntry{q * stride + l.r, l.brick,
                                    std::int32_t(l.z0 + (q - l.q0))});
      if (q + 1 < l.q_end) active[kept++] = l;
    }
    active.resize(kept);
  }

  // ---- Phase 2: file domains over the aggregators, stripe-aligned.
  const std::int64_t stripe = sm.config().stripe_bytes;
  p.num_aggs =
      std::clamp<std::int64_t>(part.num_ions() * hints.aggregators_per_ion,
                               1, part.num_ranks());
  // Domain boundaries: an even split, aligned down to stripe boundaries
  // when domains are large enough that alignment cannot collapse them.
  const bool align = (range_hi - range_lo) >= p.num_aggs * 2 * stripe;
  std::vector<std::int64_t> dom_start(std::size_t(p.num_aggs) + 1);
  const double span = double(range_hi - range_lo);
  for (std::int64_t d = 0; d <= p.num_aggs; ++d) {
    std::int64_t b = range_lo +
                     std::int64_t(span * double(d) / double(p.num_aggs));
    if (align && d != 0 && d != p.num_aggs) b = b / stripe * stripe;
    dom_start[std::size_t(d)] = b;
  }
  dom_start[std::size_t(p.num_aggs)] = range_hi;
  for (std::size_t d = 1; d < dom_start.size(); ++d) {
    dom_start[d] = std::max(dom_start[d], dom_start[d - 1]);
  }
  // Aggregator of each file domain: spread across nodes/IONs; a domain
  // whose aggregator rank sits on a failed node is reassigned to the next
  // live rank so no file domain goes unserved.
  const fault::FaultPlan* plan = rt.fault_plan();
  fault::FaultStats* fstats = rt.fault_stats();
  obs::Tracer* tracer = rt.tracer();
  const bool faulty = plan != nullptr && !plan->empty();
  p.domain_agg.resize(std::size_t(p.num_aggs));
  for (std::int64_t d = 0; d < p.num_aggs; ++d) {
    std::int64_t r = d * part.num_ranks() / p.num_aggs;
    if (faulty && plan->rank_failed(r, part)) {
      const std::int64_t failed = r;
      r = plan->next_live_rank(r, part);
      if (fstats != nullptr) ++fstats->reassigned_aggregators;
      if (tracer != nullptr) {
        tracer->instant("fault.aggregator_reassigned", obs::Category::kFault,
                        {{"domain", double(d)},
                         {"from_rank", double(failed)},
                         {"to_rank", double(r)}});
      }
    }
    p.domain_agg[std::size_t(d)] = r;
  }

  // ---- Phase 3: every (domain, window) holding wanted bytes, plus the
  // bytes each slab entry exchanges with each domain's aggregator. Entries
  // arrive in offset order, so the domain and the window holding an entry's
  // first byte only move forward: `dom` is the last domain starting at or
  // before it, [win_lo, win_hi) its window there, and windows before `live`
  // are final.
  const std::int64_t cb = hints.cb_buffer_bytes;
  p.pairs.reserve(p.entries.size());
  // A brick's entries arrive in offset order, so its bytes for one
  // aggregator come in a row: they fold into the brick's last pair.
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> last_pair(p.bricks.size(), kNone);
  const auto add_pair = [&](std::size_t brick, std::int64_t agg,
                            std::int64_t bytes) {
    std::size_t& last = last_pair[brick];
    if (last != kNone && p.pairs[last].agg == agg) {
      p.pairs[last].bytes += bytes;
      return;
    }
    last = p.pairs.size();
    p.pairs.push_back(PairBytes{std::int32_t(agg),
                                std::int32_t(p.bricks[brick].rank), bytes});
  };
  std::size_t dom = 0;
  std::int64_t win_lo = 0;
  std::int64_t win_hi = 0;
  std::size_t live = 0;
  for (std::size_t ei = 0; ei < p.entries.size(); ++ei) {
    const SlabEntry& e = p.entries[ei];
    const format::SlabRequest slab = p.slab(e);
    const std::int64_t h_lo = slab.first;
    const std::int64_t h_hi = slab.hull_end();
    while (dom + 1 < std::size_t(p.num_aggs) && dom_start[dom + 1] <= h_lo) {
      ++dom;
      win_hi = 0;
    }
    if (h_lo >= win_hi) {
      win_lo = dom_start[dom] + (h_lo - dom_start[dom]) / cb * cb;
      win_hi = std::min(dom_start[dom + 1], win_lo + cb);
      while (live < p.windows.size() && p.windows[live].lo < win_lo) ++live;
    }
    // Adds wanted bytes [fw, lw) to the window [w_lo, w_hi) of domain d,
    // creating it in file order; `w` walks forward over the entry's windows.
    std::size_t w = live;
    const auto add = [&](std::size_t d, std::int64_t w_lo, std::int64_t w_hi,
                         std::int64_t fw, std::int64_t lw,
                         std::int64_t wanted) {
      while (w < p.windows.size() && p.windows[w].lo < w_lo) ++w;
      if (w == p.windows.size() || p.windows[w].lo != w_lo) {
        Window fresh;
        fresh.lo = w_lo;
        fresh.hi = w_hi;
        fresh.agg = p.domain_agg[d];
        p.windows.insert(p.windows.begin() + std::ptrdiff_t(w),
                         std::move(fresh));
      }
      Window& win = p.windows[w];
      win.wanted += wanted;
      win.trim_lo = std::min(win.trim_lo, fw);
      win.trim_hi = std::max(win.trim_hi, lw);
      if (execute) win.entries.push_back(std::int32_t(ei));
    };
    if (h_hi <= win_hi) {
      // The hull lies inside one window: all of it is wanted there, exactly
      // what the per-window queries below would return.
      add(dom, win_lo, win_hi, h_lo, h_hi, slab.useful_bytes());
      add_pair(std::size_t(e.brick_index), p.domain_agg[dom],
               slab.useful_bytes());
      continue;
    }
    for (std::size_t d = dom;
         d < std::size_t(p.num_aggs) && dom_start[d] < h_hi; ++d) {
      const std::int64_t d_lo = dom_start[d];
      const std::int64_t d_hi = dom_start[d + 1];
      const std::int64_t o_lo = std::max(h_lo, d_lo);
      const std::int64_t o_hi = std::min(h_hi, d_hi);
      if (o_lo >= o_hi) continue;
      std::int64_t slab_agg_bytes = 0;
      for (std::int64_t c = (o_lo - d_lo) / cb; c <= (o_hi - 1 - d_lo) / cb;
           ++c) {
        const std::int64_t w_lo = d_lo + c * cb;
        const std::int64_t w_hi = std::min(d_hi, w_lo + cb);
        const std::int64_t fw =
            slab.first_wanted_at_or_after(std::max(w_lo, h_lo));
        const std::int64_t lw = slab.last_wanted_before(std::min(w_hi, h_hi));
        if (fw >= lw) continue;  // a hole-only window
        const std::int64_t wanted = slab.useful_bytes_in(w_lo, w_hi);
        add(d, w_lo, w_hi, fw, lw, wanted);
        slab_agg_bytes += wanted;
      }
      if (slab_agg_bytes > 0) {
        add_pair(std::size_t(e.brick_index), p.domain_agg[d], slab_agg_bytes);
      }
    }
  }
  // The shuffle is pipelined: each aggregator processes its domain one
  // cb-buffer round at a time, so only ~1/rounds of the messages are in
  // flight at once.
  std::int64_t max_domain = 0;
  for (std::size_t d = 0; d + 1 < dom_start.size(); ++d) {
    max_domain = std::max(max_domain, dom_start[d + 1] - dom_start[d]);
  }
  p.rounds = std::max<std::int64_t>(1, ceil_div(max_domain, cb));
  return p;
}

void require_valid(const Hints& hints) {
  PVR_REQUIRE(hints.cb_buffer_bytes > 0, "cb_buffer_bytes must be positive");
  PVR_REQUIRE(hints.aggregators_per_ion > 0,
              "aggregators_per_ion must be positive");
}

/// Checks that every block names a rank of the partition and, when this
/// call moves real bytes, the brick list; returns whether it moves bytes.
bool moves_bytes(const runtime::Runtime& rt,
                 const format::VolumeLayout& layout, std::size_t num_vars,
                 std::span<const RankBlock> blocks,
                 const format::FileHandle* file,
                 std::span<const Brick> bricks) {
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    const std::int64_t rank = blocks[i].rank;
    if (rank < 0 || rank >= rt.num_ranks()) {
      throw Error("block " + std::to_string(i) + " names rank " +
                  std::to_string(rank) + ", outside [0, " +
                  std::to_string(rt.num_ranks()) + ")");
    }
  }
  if (rt.mode() != runtime::Mode::kExecute || file == nullptr ||
      bricks.empty()) {
    return false;
  }
  PVR_REQUIRE(bricks.size() == blocks.size() * num_vars,
              "need one brick per (block, variable) in execute mode");
  PVR_REQUIRE(layout.desc().element_bytes == 4,
              "execute-mode I/O supports float32 only");
  for (std::size_t i = 0; i < bricks.size(); ++i) {
    PVR_REQUIRE(bricks[i].box() == blocks[i / num_vars].box,
                "brick box must match its block");
  }
  return true;
}

/// Prices one batch of physical accesses inside an io.storage span and
/// books it in `result` and `log`.
void price_storage(runtime::Runtime& rt, const storage::StorageModel& sm,
                   const std::vector<storage::PhysicalAccess>& accesses,
                   storage::AccessLog* log, ReadResult* result) {
  obs::Tracer* tracer = rt.tracer();
  {
    obs::ScopedSpan span(tracer, "io.storage", obs::Category::kStorage);
    const storage::IoCost& c = result->storage_cost = sm.read_cost(
        accesses, rt.fault_plan(), rt.fault_stats(),
        tracer != nullptr ? &tracer->metrics() : nullptr);
    if (tracer != nullptr) {
      span.arg("accesses", double(c.accesses));
      span.arg("physical_bytes", double(c.physical_bytes));
      span.arg("server_seconds", c.server_seconds);
      span.arg("ion_seconds", c.ion_seconds);
      span.arg("cap_seconds", c.cap_seconds);
      span.arg("client_seconds", c.client_seconds);
      tracer->advance(c.seconds);
    }
  }
  result->accesses = result->storage_cost.accesses;
  result->physical_bytes = result->storage_cost.physical_bytes;
  if (log != nullptr) {
    log->record_all(accesses);
    log->set_useful_bytes(result->useful_bytes);
  }
}

/// Stable counting sort of `in` into `out` by key(pair) in [0, keys).
template <class Key>
void counting_sort(std::span<const PairBytes> in, std::span<PairBytes> out,
                   std::int64_t keys, Key&& key) {
  std::vector<std::size_t> start(std::size_t(keys) + 1, 0);
  for (const PairBytes& b : in) ++start[std::size_t(key(b)) + 1];
  for (std::size_t k = 1; k < start.size(); ++k) start[k] += start[k - 1];
  for (const PairBytes& b : in) out[start[std::size_t(key(b))]++] = b;
}

/// Prices the shuffle on the torus: one message per (aggregator, rank)
/// pair, ordered by (source, destination). Reads ship aggregator -> rank,
/// writes rank -> aggregator. Two stable counting passes (by destination,
/// then by source) order the pairs in O(pairs + ranks); equal pairs then
/// coalesce straight into the transfer list.
net::ExchangeCost price_shuffle(runtime::Runtime& rt, TwoPhasePlan& p,
                                bool to_aggregators) {
  const auto src = [to_aggregators](const PairBytes& b) {
    return to_aggregators ? b.rank : b.agg;
  };
  const auto dst = [to_aggregators](const PairBytes& b) {
    return to_aggregators ? b.agg : b.rank;
  };
  {
    const auto by_dst = std::make_unique_for_overwrite<PairBytes[]>(
        p.pairs.size());
    const std::span<PairBytes> spare(by_dst.get(), p.pairs.size());
    counting_sort(p.pairs, spare, rt.num_ranks(), dst);
    counting_sort(spare, p.pairs, rt.num_ranks(), src);
  }
  std::vector<net::Transfer> shuffle;
  shuffle.reserve(p.pairs.size());
  for (std::size_t i = 0; i < p.pairs.size();) {
    const std::int32_t s = src(p.pairs[i]);
    const std::int32_t d = dst(p.pairs[i]);
    std::int64_t bytes = 0;
    for (; i < p.pairs.size() && src(p.pairs[i]) == s && dst(p.pairs[i]) == d;
         ++i) {
      bytes += p.pairs[i].bytes;
    }
    shuffle.push_back(net::Transfer{s, d, bytes});
  }
  std::vector<PairBytes>().swap(p.pairs);  // not needed past this point
  return rt.exchange_transfers(shuffle, p.rounds);
}

/// Calls copy(buffer byte, brick voxel, floats) for every row of `slab`
/// (z-slice `z` of `brick`) inside the window buffer that covers file range
/// [buf_lo, buf_hi). Slab rows cover the brick's box clipped to the volume,
/// whose low corner is the box's raised to 0, so row r starts at voxel
/// (x0, y0 + r, z).
template <class Copy>
void for_each_row(const format::SlabRequest& slab, std::int64_t z,
                  std::int64_t buf_lo, std::int64_t buf_hi,
                  const Brick& brick, Copy&& copy) {
  const Vec3i& lo = brick.box().lo;
  const std::int64_t x0 = std::max<std::int64_t>(lo.x, 0);
  const std::int64_t y0 = std::max<std::int64_t>(lo.y, 0);
  for (std::int64_t r = 0; r < slab.nrows; ++r) {
    const std::int64_t row_start = slab.first + r * slab.row_stride;
    const std::int64_t s = std::max(row_start, buf_lo);
    const std::int64_t end = std::min(row_start + slab.row_bytes, buf_hi);
    if (s >= end) continue;
    copy(std::size_t(s - buf_lo),
         brick.row_index(y0 + r, z) +
             std::size_t(x0 - lo.x + (s - row_start) / 4),
         std::size_t((end - s) / 4));
  }
}

/// Copies the rows of `slab` (z-slice `z` of `brick`) that lie in `buf`,
/// which holds file bytes from offset `buf_lo` on, into the brick.
void scatter_rows(const format::VolumeLayout& layout,
                  const format::SlabRequest& slab, std::int64_t z,
                  std::span<const std::byte> buf, std::int64_t buf_lo,
                  Brick& brick) {
  for_each_row(slab, z, buf_lo, buf_lo + std::int64_t(buf.size()), brick,
               [&](std::size_t at, std::size_t voxel, std::size_t n) {
                 float* dst = brick.data().data() + voxel;
                 if (layout.big_endian_data()) {
                   format::big_endian_to_floats({&buf[at], n * 4}, {dst, n});
                 } else {
                   std::memcpy(dst, &buf[at], n * 4);
                 }
               });
}

/// The io.collective_read / io.collective_write args both directions share.
void annotate(obs::ScopedSpan& span, std::span<const RankBlock> blocks,
              std::span<const int> vars, const TwoPhasePlan& p,
              const ReadResult& result) {
  span.arg("blocks", double(blocks.size()));
  span.arg("variables", double(vars.size()));
  span.arg("aggregators", double(p.num_aggs));
  span.arg("useful_bytes", double(result.useful_bytes));
  span.arg("physical_bytes", double(result.physical_bytes));
}

/// The distinct ranks of `blocks`, in order of first appearance.
std::vector<std::int64_t> distinct_ranks(std::span<const RankBlock> blocks) {
  std::unordered_set<std::int64_t> seen;
  std::vector<std::int64_t> ranks;
  for (const RankBlock& b : blocks) {
    if (seen.insert(b.rank).second) ranks.push_back(b.rank);
  }
  return ranks;
}

}  // namespace

double model_open_cost(const format::VolumeLayout& layout,
                       std::span<const RankBlock> blocks,
                       const storage::StorageModel& sm,
                       storage::AccessLog* log) {
  const std::vector<format::Extent> meta = layout.open_metadata_accesses();
  if (meta.empty() || blocks.empty()) return 0.0;
  // Every process reads the metadata once, however many blocks it holds;
  // the reads are absorbed by server caches, so they cost per-access
  // metadata latency serialized per rank, all ranks in parallel.
  const double per_rank =
      double(meta.size()) * sm.config().metadata_access_latency;
  if (log != nullptr) {
    for (const std::int64_t rank : distinct_ranks(blocks)) {
      for (const format::Extent& e : meta) {
        log->record(storage::PhysicalAccess{e.offset, e.length, rank});
      }
    }
  }
  return per_rank;
}

CollectiveReader::CollectiveReader(runtime::Runtime& rt,
                                   const storage::StorageModel& sm,
                                   const Hints& hints)
    : rt_(&rt), storage_(&sm), hints_(hints) {
  require_valid(hints);
}

ReadResult CollectiveReader::read(const format::VolumeLayout& layout, int var,
                                  std::span<const RankBlock> blocks,
                                  format::FileHandle* file,
                                  std::span<Brick> bricks,
                                  storage::AccessLog* log) {
  const int vars[] = {var};
  return read_vars(layout, vars, blocks, file, bricks, log);
}

ReadResult CollectiveReader::read_vars(const format::VolumeLayout& layout,
                                       std::span<const int> vars,
                                       std::span<const RankBlock> blocks,
                                       format::FileHandle* file,
                                       std::span<Brick> bricks,
                                       storage::AccessLog* log) {
  PVR_REQUIRE(hints_.collective_buffering,
              "CollectiveReader requires collective_buffering; use "
              "IndependentReader otherwise");
  PVR_REQUIRE(!vars.empty(), "need at least one variable");
  const bool execute =
      moves_bytes(*rt_, layout, vars.size(), blocks, file, bricks);

  obs::Tracer* tracer = rt_->tracer();
  obs::ScopedSpan io_span(tracer, "io.collective_read", obs::Category::kIo);

  ReadResult result;
  result.open_seconds = model_open_cost(layout, blocks, *storage_, log);
  if (tracer != nullptr) {
    // Per-rank open-time metadata reads (netCDF header, SHDF objects).
    obs::ScopedSpan open_span(tracer, "io.open", obs::Category::kStorage);
    open_span.arg("ranks", double(distinct_ranks(blocks).size()));
    tracer->advance(result.open_seconds);
  }

  TwoPhasePlan p = plan_two_phase(*rt_, *storage_, hints_, layout, vars,
                                  blocks, execute);
  result.useful_bytes = p.useful_bytes;
  if (p.entries.empty()) {
    result.seconds = result.open_seconds;
    return result;
  }

  // ROMIO reads the *whole* buffer window once any byte in it is wanted
  // (data sieving at window granularity); hole-only windows are skipped.
  // This is what makes untuned record-variable reads touch most of the file
  // (paper Fig 9).
  std::vector<storage::PhysicalAccess> accesses;
  accesses.reserve(p.windows.size());
  for (const Window& w : p.windows) {
    accesses.push_back(storage::PhysicalAccess{w.lo, w.hi - w.lo, w.agg});
  }
  price_storage(*rt_, *storage_, accesses, log, &result);
  result.shuffle_cost = price_shuffle(*rt_, p, /*to_aggregators=*/false);

  if (execute) {
    std::vector<std::byte> buf;
    for (const Window& w : p.windows) {
      buf.resize(std::size_t(w.hi - w.lo));
      file->read_at(w.lo, buf);
      for (const std::int32_t ei : w.entries) {
        const SlabEntry& e = p.entries[std::size_t(ei)];
        scatter_rows(layout, p.slab(e), e.z, buf, w.lo,
                     bricks[std::size_t(e.brick_index)]);
      }
    }
  }

  result.seconds = result.open_seconds + result.storage_cost.seconds +
                   result.shuffle_cost.seconds;
  if (tracer != nullptr) {
    annotate(io_span, blocks, vars, p, result);
    io_span.arg("data_density", result.data_density());
  }
  return result;
}

IndependentReader::IndependentReader(runtime::Runtime& rt,
                                     const storage::StorageModel& sm,
                                     const Hints& hints)
    : rt_(&rt), storage_(&sm), hints_(hints) {}

ReadResult IndependentReader::read(const format::VolumeLayout& layout,
                                   int var,
                                   std::span<const RankBlock> blocks,
                                   format::FileHandle* file,
                                   std::span<Brick> bricks,
                                   storage::AccessLog* log) {
  const bool execute = moves_bytes(*rt_, layout, 1, blocks, file, bricks);

  obs::Tracer* tracer = rt_->tracer();
  obs::ScopedSpan io_span(tracer, "io.independent_read", obs::Category::kIo);

  ReadResult result;
  result.open_seconds = model_open_cost(layout, blocks, *storage_, log);
  if (tracer != nullptr) {
    obs::ScopedSpan open_span(tracer, "io.open", obs::Category::kStorage);
    tracer->advance(result.open_seconds);
  }

  // Every rank requests its own slabs: one access per slab hull (holes
  // included) under data sieving or for a contiguous slab, else one per row.
  const std::int64_t stride = layout.slice_stride();
  std::vector<storage::PhysicalAccess> accesses;
  std::vector<std::byte> buf;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    const format::SlabRun run = layout.slab_run(var, blocks[i].box);
    for (std::int64_t k = 0; k < run.slices; ++k) {
      const format::SlabRequest slab = run.slice(k, stride);
      result.useful_bytes += slab.useful_bytes();
      if (hints_.data_sieving || slab.contiguous()) {
        accesses.push_back(storage::PhysicalAccess{
            slab.first, slab.hull().length, blocks[i].rank});
      } else {
        for (std::int64_t r = 0; r < slab.nrows; ++r) {
          accesses.push_back(storage::PhysicalAccess{
              slab.first + r * slab.row_stride, slab.row_bytes,
              blocks[i].rank});
        }
      }
      if (execute) {
        // Read the hull once and scatter its rows.
        const format::Extent hull = slab.hull();
        buf.resize(std::size_t(hull.length));
        file->read_at(hull.offset, buf);
        scatter_rows(layout, slab, run.z0 + k, buf, hull.offset, bricks[i]);
      }
    }
  }
  price_storage(*rt_, *storage_, accesses, log, &result);

  result.seconds = result.open_seconds + result.storage_cost.seconds;
  if (tracer != nullptr) {
    io_span.arg("blocks", double(blocks.size()));
    io_span.arg("useful_bytes", double(result.useful_bytes));
    io_span.arg("physical_bytes", double(result.physical_bytes));
  }
  return result;
}

CollectiveWriter::CollectiveWriter(runtime::Runtime& rt,
                                   const storage::StorageModel& sm,
                                   const Hints& hints)
    : rt_(&rt), storage_(&sm), hints_(hints) {
  require_valid(hints);
}

ReadResult CollectiveWriter::write(const format::VolumeLayout& layout,
                                   int var,
                                   std::span<const RankBlock> blocks,
                                   format::FileHandle* file,
                                   std::span<const Brick> bricks,
                                   storage::AccessLog* log) {
  const int vars[] = {var};
  return write_vars(layout, vars, blocks, file, bricks, log);
}

ReadResult CollectiveWriter::write_vars(const format::VolumeLayout& layout,
                                        std::span<const int> vars,
                                        std::span<const RankBlock> blocks,
                                        format::FileHandle* file,
                                        std::span<const Brick> bricks,
                                        storage::AccessLog* log) {
  PVR_REQUIRE(!vars.empty(), "need at least one variable");
  const bool execute =
      moves_bytes(*rt_, layout, vars.size(), blocks, file, bricks);

  obs::Tracer* tracer = rt_->tracer();
  obs::ScopedSpan io_span(tracer, "io.collective_write", obs::Category::kIo);

  ReadResult result;
  TwoPhasePlan p = plan_two_phase(*rt_, *storage_, hints_, layout, vars,
                                  blocks, execute);
  result.useful_bytes = p.useful_bytes;
  if (p.entries.empty()) return result;

  result.shuffle_cost = price_shuffle(*rt_, p, /*to_aggregators=*/true);
  // Each window writes the span its ranks touch. A span its wanted bytes
  // fully cover is one pure write; a partially covered one needs
  // read-modify-write sieving: read the span, merge, write it back.
  std::vector<storage::PhysicalAccess> accesses;
  for (const Window& w : p.windows) {
    const storage::PhysicalAccess span{w.trim_lo, w.trim_hi - w.trim_lo,
                                       w.agg};
    if (w.wanted < span.bytes) accesses.push_back(span);
    accesses.push_back(span);
  }
  price_storage(*rt_, *storage_, accesses, log, &result);

  if (execute) {
    std::vector<std::byte> buf;
    for (const Window& w : p.windows) {
      const std::int64_t len = w.trim_hi - w.trim_lo;
      buf.resize(std::size_t(len));
      if (w.wanted < len) {
        // Keep the holes: read what the file already holds of the span and
        // zero only the part past its end.
        const std::int64_t have =
            std::clamp<std::int64_t>(file->size() - w.trim_lo, 0, len);
        if (have > 0) file->read_at(w.trim_lo, {buf.data(), std::size_t(have)});
        std::fill(buf.begin() + have, buf.end(), std::byte{0});
      }
      for (const std::int32_t ei : w.entries) {
        const SlabEntry& e = p.entries[std::size_t(ei)];
        const Brick& brick = bricks[std::size_t(e.brick_index)];
        for_each_row(p.slab(e), e.z, w.trim_lo, w.trim_hi, brick,
                     [&](std::size_t at, std::size_t voxel, std::size_t n) {
                       const float* src = brick.data().data() + voxel;
                       if (layout.big_endian_data()) {
                         format::floats_to_big_endian({src, n},
                                                      {&buf[at], n * 4});
                       } else {
                         std::memcpy(&buf[at], src, n * 4);
                       }
                     });
      }
      file->write_at(w.trim_lo, buf);
    }
  }

  result.seconds = result.storage_cost.seconds + result.shuffle_cost.seconds;
  if (tracer != nullptr) annotate(io_span, blocks, vars, p, result);
  return result;
}

}  // namespace pvr::iolib
