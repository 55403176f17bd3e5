// The two-phase collective I/O engine behind both CollectiveReader and
// CollectiveWriter. One private plan (plan_two_phase) computes everything
// the two directions share: the global request, the stripe-aligned file
// domains and their aggregators, the cb-buffer windows that hold wanted
// bytes, and the per-(aggregator, rank) shuffle volume. Each direction keeps
// only what really differs: the order in which storage and shuffle are
// priced, which bytes a window touches, and which way the bytes move.
#include "iolib/collective_read.hpp"
#include "iolib/collective_write.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <utility>

#include "obs/trace.hpp"
#include "util/error.hpp"

namespace pvr::iolib {

namespace {

/// One z-slice of one block's request, tagged with its owner.
struct SlabEntry {
  format::SlabRequest slab;
  std::int32_t brick_index = 0;  ///< into the (block, variable) brick array
  std::int64_t z = 0;
};

/// One cb_buffer_bytes window of a file domain that holds wanted bytes.
struct Window {
  std::int64_t lo = 0, hi = 0;  ///< window extent
  std::int64_t wanted = 0;      ///< wanted bytes inside the window
  std::int64_t trim_lo = std::numeric_limits<std::int64_t>::max();
  std::int64_t trim_hi = 0;     ///< [first, last) wanted byte
  std::vector<std::int32_t> entries;  ///< execute mode only
};

/// Bytes one slab entry exchanges with one domain's aggregator.
struct PairBytes {
  std::int64_t agg = 0, rank = 0, bytes = 0;
};

/// The two-phase plan of one collective operation, direction-independent.
struct TwoPhasePlan {
  std::vector<SlabEntry> entries;  ///< sorted by file offset
  std::int64_t useful_bytes = 0;
  std::int64_t num_aggs = 0;
  std::vector<std::int64_t> domain_agg;  ///< aggregator rank per domain
  /// Keyed by (domain, window within the domain): file order.
  std::map<std::pair<std::int64_t, std::int64_t>, Window> windows;
  std::vector<PairBytes> pairs;
  int rounds = 1;  ///< cb-buffer rounds of the largest domain
};

TwoPhasePlan plan_two_phase(runtime::Runtime& rt,
                            const storage::StorageModel& sm,
                            const Hints& hints,
                            const format::VolumeLayout& layout,
                            std::span<const int> vars,
                            std::span<const RankBlock> blocks, bool execute) {
  TwoPhasePlan p;
  // ---- Phase 1: the global request as sorted slab entries; one entry per
  // (block, variable, z slice).
  std::vector<format::SlabRequest> slabs;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    const Box3i clipped =
        blocks[i].box.intersect(Box3i{{0, 0, 0}, layout.desc().dims});
    for (std::size_t v = 0; v < vars.size(); ++v) {
      slabs.clear();
      layout.subvolume_slabs(vars[v], blocks[i].box, &slabs);
      for (std::size_t s = 0; s < slabs.size(); ++s) {
        p.useful_bytes += slabs[s].useful_bytes();
        p.entries.push_back(
            SlabEntry{slabs[s], std::int32_t(i * vars.size() + v),
                      clipped.lo.z + std::int64_t(s)});
      }
    }
  }
  if (p.entries.empty()) return p;
  std::sort(p.entries.begin(), p.entries.end(),
            [](const SlabEntry& a, const SlabEntry& b) {
              return a.slab.first < b.slab.first;
            });

  // ---- Phase 2: file domains over the aggregators, stripe-aligned.
  const auto& part = rt.partition();
  const std::int64_t stripe = sm.config().stripe_bytes;
  p.num_aggs =
      std::clamp<std::int64_t>(part.num_ions() * hints.aggregators_per_ion,
                               1, part.num_ranks());
  std::int64_t range_lo = std::numeric_limits<std::int64_t>::max();
  std::int64_t range_hi = 0;
  for (const SlabEntry& e : p.entries) {
    range_lo = std::min(range_lo, e.slab.first);
    range_hi = std::max(range_hi, e.slab.hull_end());
  }
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
  // bytes each slab entry exchanges with each domain's aggregator.
  const std::int64_t cb = hints.cb_buffer_bytes;
  const auto domain_of = [&](std::int64_t offset) {
    const auto it =
        std::upper_bound(dom_start.begin(), dom_start.end() - 1, offset);
    return std::int64_t(it - dom_start.begin()) - 1;
  };
  for (std::size_t ei = 0; ei < p.entries.size(); ++ei) {
    const SlabEntry& e = p.entries[ei];
    const std::int64_t h_lo = e.slab.first;
    const std::int64_t h_hi = e.slab.hull_end();
    const std::int64_t rank =
        blocks[std::size_t(e.brick_index) / vars.size()].rank;
    for (std::int64_t d = domain_of(h_lo);
         d < p.num_aggs && dom_start[std::size_t(d)] < h_hi; ++d) {
      const std::int64_t d_lo = dom_start[std::size_t(d)];
      const std::int64_t d_hi = dom_start[std::size_t(d) + 1];
      const std::int64_t o_lo = std::max(h_lo, d_lo);
      const std::int64_t o_hi = std::min(h_hi, d_hi);
      if (o_lo >= o_hi) continue;
      std::int64_t slab_agg_bytes = 0;
      for (std::int64_t c = (o_lo - d_lo) / cb; c <= (o_hi - 1 - d_lo) / cb;
           ++c) {
        const std::int64_t w_lo = d_lo + c * cb;
        const std::int64_t w_hi = std::min(d_hi, w_lo + cb);
        const std::int64_t fw = e.slab.first_wanted_at_or_after(
            std::max(w_lo, h_lo));
        const std::int64_t lw =
            e.slab.last_wanted_before(std::min(w_hi, h_hi));
        if (fw >= lw) continue;  // a hole-only window
        const std::int64_t wanted = e.slab.useful_bytes_in(w_lo, w_hi);
        Window& w = p.windows[{d, c}];
        w.lo = w_lo;
        w.hi = w_hi;
        w.wanted += wanted;
        w.trim_lo = std::min(w.trim_lo, fw);
        w.trim_hi = std::max(w.trim_hi, lw);
        if (execute) w.entries.push_back(std::int32_t(ei));
        slab_agg_bytes += wanted;
      }
      if (slab_agg_bytes > 0) {
        p.pairs.push_back(
            PairBytes{p.domain_agg[std::size_t(d)], rank, slab_agg_bytes});
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
  p.rounds = int(std::max<std::int64_t>(1, ceil_div(max_domain, cb)));
  return p;
}

void require_valid(const Hints& hints) {
  PVR_REQUIRE(hints.cb_buffer_bytes > 0, "cb_buffer_bytes must be positive");
  PVR_REQUIRE(hints.aggregators_per_ion > 0,
              "aggregators_per_ion must be positive");
}

/// Validates the brick list when this call moves real bytes; returns
/// whether it does.
bool moves_bytes(const runtime::Runtime& rt,
                 const format::VolumeLayout& layout, std::size_t num_vars,
                 std::span<const RankBlock> blocks,
                 const format::FileHandle* file,
                 std::span<const Brick> bricks) {
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

/// Prices the shuffle on the torus: one message per (aggregator, rank)
/// pair, ordered by (source, destination). Reads ship aggregator -> rank,
/// writes rank -> aggregator.
net::ExchangeCost price_shuffle(runtime::Runtime& rt, TwoPhasePlan& p,
                                bool to_aggregators) {
  const auto ends = [to_aggregators](const PairBytes& b) {
    return to_aggregators ? std::pair(b.rank, b.agg) : std::pair(b.agg, b.rank);
  };
  std::sort(p.pairs.begin(), p.pairs.end(),
            [&](const PairBytes& a, const PairBytes& b) {
              return ends(a) < ends(b);
            });
  std::vector<runtime::Message> shuffle;
  for (std::size_t i = 0; i < p.pairs.size();) {
    const auto [src, dst] = ends(p.pairs[i]);
    std::int64_t bytes = 0;
    for (; i < p.pairs.size() && ends(p.pairs[i]) == std::pair(src, dst); ++i) {
      bytes += p.pairs[i].bytes;
    }
    shuffle.push_back(runtime::Message{src, dst, 0, bytes, {}});
  }
  return rt.exchange_messages(std::move(shuffle), nullptr, p.rounds);
}

/// Calls copy(buffer byte, brick voxel, floats) for every row of `e` inside
/// the window buffer that covers file range [buf_lo, buf_hi).
template <class Copy>
void for_each_row(const SlabEntry& e, std::int64_t buf_lo,
                  std::int64_t buf_hi, const Brick& brick, Copy&& copy) {
  const format::SlabRequest& slab = e.slab;
  for (std::int64_t r = 0; r < slab.nrows; ++r) {
    const std::int64_t row_start = slab.first + r * slab.row_stride;
    const std::int64_t s = std::max(row_start, buf_lo);
    const std::int64_t end = std::min(row_start + slab.row_bytes, buf_hi);
    if (s >= end) continue;
    copy(std::size_t(s - buf_lo),
         brick.row_index(brick.box().lo.y + r, e.z) +
             std::size_t((s - row_start) / 4),
         std::size_t((end - s) / 4));
  }
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

}  // namespace

double model_open_cost(const format::VolumeLayout& layout,
                       std::span<const RankBlock> blocks,
                       const storage::StorageModel& sm,
                       storage::AccessLog* log) {
  const std::vector<format::Extent> meta = layout.open_metadata_accesses();
  if (meta.empty() || blocks.empty()) return 0.0;
  // Every process reads the metadata; the reads are absorbed by server
  // caches, so they cost per-access metadata latency serialized per rank,
  // all ranks in parallel.
  const double per_rank =
      double(meta.size()) * sm.config().metadata_access_latency;
  if (log != nullptr) {
    for (const RankBlock& b : blocks) {
      for (const format::Extent& e : meta) {
        log->record(storage::PhysicalAccess{e.offset, e.length, b.rank});
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
    open_span.arg("ranks", double(blocks.size()));
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
  for (const auto& [key, w] : p.windows) {
    accesses.push_back(storage::PhysicalAccess{
        w.lo, w.hi - w.lo, p.domain_agg[std::size_t(key.first)]});
  }
  price_storage(*rt_, *storage_, accesses, log, &result);
  result.shuffle_cost = price_shuffle(*rt_, p, /*to_aggregators=*/false);

  if (execute) {
    std::vector<std::byte> buf;
    for (const auto& [key, w] : p.windows) {
      buf.resize(std::size_t(w.hi - w.lo));
      file->read_at(w.lo, buf);
      for (const std::int32_t ei : w.entries) {
        const SlabEntry& e = p.entries[std::size_t(ei)];
        Brick& brick = bricks[std::size_t(e.brick_index)];
        for_each_row(e, w.lo, w.hi, brick,
                     [&](std::size_t at, std::size_t voxel, std::size_t n) {
                       float* dst = brick.data().data() + voxel;
                       if (layout.big_endian_data()) {
                         format::big_endian_to_floats({&buf[at], n * 4},
                                                      {dst, n});
                       } else {
                         std::memcpy(dst, &buf[at], n * 4);
                       }
                     });
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
  for (const auto& [key, w] : p.windows) {
    const storage::PhysicalAccess span{w.trim_lo, w.trim_hi - w.trim_lo,
                                       p.domain_agg[std::size_t(key.first)]};
    if (w.wanted < span.bytes) accesses.push_back(span);
    accesses.push_back(span);
  }
  price_storage(*rt_, *storage_, accesses, log, &result);

  if (execute) {
    std::vector<std::byte> buf;
    for (const auto& [key, w] : p.windows) {
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
        for_each_row(e, w.trim_lo, w.trim_hi, brick,
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
