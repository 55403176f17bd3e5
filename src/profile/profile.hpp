// Critical-path profiler over the obs::Tracer timeline.
//
// The paper's core contribution is an *end-to-end analysis*: decomposing
// frame time into I/O, rendering, and compositing and finding which
// component bounds the whole (Figures 5-9). The tracer already records the
// exact simulated timeline of every frame; this subsystem turns that span
// stream into answers:
//
//   * timeline reconstruction — the sequential superstep span stream is
//     regrouped into lanes keyed by (rank, category), using span args
//     (straggler_rank, round, bottleneck link/node ids) where the emitting
//     layer identified the rank that bounds the span;
//   * critical-path extraction — in a BSP timeline every advance of the
//     simulated clock is on the critical path, so the path is the in-order
//     sequence of span *self times* (a span's duration minus its
//     children's); their sum telescopes exactly to the frame duration;
//   * bottleneck attribution — every self-time slice is assigned to exactly
//     one bucket (storage, torus link, tree collectives, compute,
//     sync-skew/straggler, fault recovery, checkpoint, steal, other) by an
//     ordered first-match rule, so the buckets are disjoint and exhaustive
//     and sum exactly to the total.
//
// Exactness: durations are accumulated in integer picoseconds (Picos), so
// bucket and lane sums are associative and exact — `Attribution::total_ps`
// equals the sum of its buckets by construction, and both equal the frame
// span's duration to well under the 1e-9 s tolerance the tests assert.
// The profiler is a pure function of the trace, which is byte-identical
// across runs and host thread counts; so are all profiler outputs.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace pvr::profile {

/// Where a slice of simulated time went. Ordered first-match taxonomy
/// (DESIGN.md §7): a slice under a checkpoint or steal ancestor belongs to
/// that activity no matter which layer priced it; otherwise the slice's own
/// category decides, with exchange and render slices split by their cost
/// args into link/skew/retry and compute/straggler shares.
enum class Bucket {
  kStorage,        ///< physical storage batches and file opens
  kTorusLink,      ///< torus serialization, contention, endpoint, latency
  kCollective,     ///< tree-network collectives (barrier/allreduce/...)
  kCompute,        ///< useful computation: raycasting, blending, aggregation
  kSkew,           ///< BSP synchronization skew + render straggler excess
  kFaultRecovery,  ///< retries, partner discovery, recovery stalls
  kCheckpoint,     ///< checkpoint writes, restart reads, lost work
  kSteal,          ///< work-stealing claim and block-replication traffic
  kOther,          ///< residual self time not matching any rule
};
inline constexpr int kNumBuckets = 9;

const char* to_string(Bucket bucket);

/// Integer picoseconds: the profiler's exact time unit. Doubles of simulated
/// seconds convert with sub-picosecond rounding error; integer sums are
/// associative, so decomposition invariants hold exactly.
using Picos = std::int64_t;

Picos to_picos(double seconds);
double to_seconds(Picos ps);

/// Deterministic breakdown of a subtree's time into disjoint buckets.
/// Invariant (asserted in tests): sum_ps() == total_ps, and total_ps equals
/// the subtree root's duration in picoseconds exactly.
struct Attribution {
  std::array<Picos, kNumBuckets> bucket_ps{};
  Picos total_ps = 0;

  void add(Bucket bucket, Picos ps) {
    bucket_ps[static_cast<std::size_t>(bucket)] += ps;
    total_ps += ps;
  }
  void add(const Attribution& other) {
    for (int b = 0; b < kNumBuckets; ++b) {
      bucket_ps[std::size_t(b)] += other.bucket_ps[std::size_t(b)];
    }
    total_ps += other.total_ps;
  }
  Picos sum_ps() const {
    Picos sum = 0;
    for (const Picos ps : bucket_ps) sum += ps;
    return sum;
  }
  Picos ps(Bucket bucket) const {
    return bucket_ps[static_cast<std::size_t>(bucket)];
  }
  double seconds(Bucket bucket) const { return to_seconds(ps(bucket)); }
  double total_seconds() const { return to_seconds(total_ps); }
  double fraction(Bucket bucket) const {
    return total_ps != 0 ? double(ps(bucket)) / double(total_ps) : 0.0;
  }
};

/// One element of the critical path: a span's self time (duration minus
/// children), in timeline order. `slack_seconds` is the span's distance to
/// the slowest sibling of the same (parent, name) group — 0 for the local
/// bottleneck (e.g. the slowest stage under the frame, or the slowest
/// composite round), positive for spans that could grow that much before
/// becoming the new within-group maximum.
struct Slice {
  std::int32_t span = -1;  ///< index into tracer.spans()
  Picos self_ps = 0;
  double slack_seconds = 0.0;
  Bucket bucket = Bucket::kOther;  ///< largest share when the slice splits
};

/// One reconstructed timeline lane: the spans bounded by one rank (from the
/// straggler_rank arg the emitting layer attached), or the global lane
/// (rank -1) for collective phases no single rank bounds, split by
/// category. Lane self times sum exactly to the subtree total.
struct Lane {
  std::int64_t rank = -1;
  obs::Category cat = obs::Category::kOther;
  std::vector<std::int32_t> spans;
  Picos self_ps = 0;

  double seconds() const { return to_seconds(self_ps); }
};

/// Full analysis of one frame span's subtree.
struct FrameProfile {
  std::int32_t frame_span = -1;
  double frame_seconds = 0.0;  ///< the frame span's duration (double clock)
  /// Barrier skew the async runtime turned into overlap, read
  /// from the frame span's `overlap_reclaimed_seconds` arg (DESIGN.md §9).
  /// 0 for BSP frames: skew that disappears shows up here, it never just
  /// vanishes from the books.
  double overlap_reclaimed_seconds = 0.0;
  Attribution attribution;
  /// Self-time slices in timeline order; sum of self_ps equals
  /// attribution.total_ps exactly.
  std::vector<Slice> critical_path;
  /// Lanes sorted by (rank, category); lane self times also sum to the
  /// total exactly.
  std::vector<Lane> lanes;

  Picos critical_ps() const {
    Picos sum = 0;
    for (const Slice& s : critical_path) sum += s.self_ps;
    return sum;
  }
  double critical_seconds() const { return to_seconds(critical_ps()); }
};

/// Whole-timeline analysis: one FrameProfile per root `frame` span, plus a
/// run-level attribution covering *every* root span — so checkpoint writes,
/// restart reads, and lost-work stalls between frames are attributed too.
struct Profile {
  std::vector<FrameProfile> frames;
  Attribution run;
};

/// Analyzes the subtree rooted at `frame_span` (any closed span; typically
/// a kFrame root). Throws pvr::Error on an out-of-range id.
FrameProfile analyze_frame(const obs::Tracer& tracer,
                           obs::Tracer::SpanId frame_span);

/// Analyzes the whole timeline: every root kFrame span becomes a
/// FrameProfile; every root span (frames included) contributes to `run`.
Profile analyze(const obs::Tracer& tracer);

/// Human report: attribution table, top-N critical-path slices by self
/// time, reconstructed lanes. Deterministic (fixed formats, stable sorts).
std::string report(const obs::Tracer& tracer, const FrameProfile& profile,
                   int top_n = 10);

/// Deterministic JSON rendering of one frame profile (buckets, lanes, and
/// the full critical path with span names and slack).
std::string to_json(const obs::Tracer& tracer, const FrameProfile& profile);

}  // namespace pvr::profile
