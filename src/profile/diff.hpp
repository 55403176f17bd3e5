// A/B comparison, perf gating, and scaling decomposition.
//
// Three consumers of profiles and bench JSON dumps:
//
//   * diff_profiles — per-bucket deltas between two attributions (two
//     configs, two commits, healthy vs faulted); a run diffed against
//     itself reports exactly zero everywhere.
//   * perf_gate — CI regression gate: compares a fresh bench dump against a
//     committed baseline, matching rows by name. "seconds" and profile
//     bucket times are one-sided (slower beyond tolerance fails; faster is
//     a note), other counters are two-sided drift checks (the model is
//     deterministic, so any drift means the model changed — which must be
//     acknowledged by regenerating the baseline). Failures name the
//     offending row/bucket and both values. The host section (wall clock,
//     thread count) is deliberately ignored: it is the only
//     machine-dependent part of a bench dump.
//   * scaling decomposition — for a strong-scaling proc sweep (bench_fig5
//     rows), splits the efficiency loss at each point into I/O, render
//     imbalance, communication (compositing), and residual terms against
//     the perfectly-scaled smallest-proc baseline, mirroring the paper's
//     Figure 5 discussion of which component stops scaling first.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "profile/json.hpp"
#include "profile/profile.hpp"

namespace pvr::profile {

// ---------------------------------------------------------------------------
// Profile A/B diff

/// Per-bucket delta between a base and an "other" attribution.
struct BucketDelta {
  Bucket bucket = Bucket::kOther;
  double base_seconds = 0.0;
  double other_seconds = 0.0;

  double delta_seconds() const { return other_seconds - base_seconds; }
};

struct ProfileDiff {
  std::array<BucketDelta, kNumBuckets> buckets{};
  double base_total = 0.0;
  double other_total = 0.0;

  double delta_total() const { return other_total - base_total; }
};

ProfileDiff diff_profiles(const Attribution& base, const Attribution& other);

/// Human rendering: bucket, base, other, delta rows (non-zero rows plus
/// total; all rows when everything is zero).
std::string report(const ProfileDiff& diff);

// ---------------------------------------------------------------------------
// Bench JSON model

/// One model row of a bench dump: deterministic simulated results.
struct BenchRow {
  std::string name;
  double seconds = 0.0;
  std::vector<std::pair<std::string, double>> counters;

  /// Pointer into `counters`, or null when absent.
  const double* counter(const std::string& key) const;
};

/// One profile section entry: a named frame's bucket breakdown.
struct BenchProfile {
  std::string label;
  std::array<double, kNumBuckets> bucket_seconds{};
  double total_seconds = 0.0;
};

/// A parsed bench dump (the subset the gate compares; the "host" section is
/// parsed into nothing on purpose).
struct BenchRun {
  std::string bench;
  std::int64_t schema_version = 0;
  std::string git_describe;
  std::vector<BenchRow> rows;
  std::vector<BenchProfile> profiles;

  const BenchRow* row(const std::string& name) const;
  const BenchProfile* profile(const std::string& label) const;
};

/// Parses a bench dump DOM; throws pvr::Error naming the missing/ill-typed
/// key. Accepts schema_version >= 2 dumps (earlier dumps lack the stamp and
/// parse with schema_version 0 — the gate then fails loudly on mismatch).
BenchRun parse_bench_run(const JsonPtr& doc);
BenchRun load_bench_run(const std::string& path);

// ---------------------------------------------------------------------------
// Perf gate

struct GateConfig {
  /// Relative tolerance for one-sided seconds checks (fresh may exceed
  /// baseline by this fraction) and two-sided counter drift.
  double rel_tol = 0.02;
  /// Absolute floor below which differences never fail (absorbs printf
  /// rounding of near-zero values).
  double abs_tol = 1e-9;
};

struct GateIssue {
  std::string row;      ///< row name or "profile:<label>"
  std::string key;      ///< "seconds", counter name, or bucket name
  std::string message;  ///< human sentence with both values
};

struct GateResult {
  std::vector<GateIssue> failures;
  std::vector<std::string> notes;  ///< improvements, new rows, etc.

  bool passed() const { return failures.empty(); }
};

/// Compares `fresh` against `baseline`. Fails on: schema_version mismatch,
/// bench-name mismatch, a baseline row/profile missing from fresh, seconds
/// or profile buckets slower than tolerance, counters drifting either way.
/// Rows only in fresh are notes (new coverage, not a regression).
GateResult perf_gate(const BenchRun& baseline, const BenchRun& fresh,
                     const GateConfig& config = {});

std::string report(const GateResult& result);

// ---------------------------------------------------------------------------
// Scaling decomposition

/// One point of a strong-scaling sweep.
struct ScalingPoint {
  std::int64_t procs = 0;
  double io_seconds = 0.0;
  double render_seconds = 0.0;
  double composite_seconds = 0.0;
  /// The row's reported wall seconds. In a pure-BSP sweep this equals the
  /// stage sum; a run mixing BSP pricing with overlapped/async exchanges
  /// reports *less* than the stage sum (overlap hides stage time). 0 means
  /// "not reported": total_seconds() falls back to the stage sum.
  double reported_seconds = 0.0;

  double total_seconds() const {
    return reported_seconds > 0.0
               ? reported_seconds
               : io_seconds + render_seconds + composite_seconds;
  }
};

/// Efficiency loss decomposition at one sweep point, relative to the
/// smallest-proc point scaled perfectly. Loss terms are fractions of the
/// actual time and sum to 1 - efficiency + overlap_credit: the residual
/// absorbs rounding and cross-stage interaction, and is clamped at zero —
/// when a run mixes BSP and overlapped exchanges the stage sum can exceed
/// the reported total, which would otherwise drive the residual negative;
/// that surplus is reported as overlap_credit instead of being silently
/// summed away.
struct ScalingLoss {
  std::int64_t procs = 0;
  double efficiency = 1.0;  ///< ideal_total / actual_total
  double io_loss = 0.0;
  double imbalance_loss = 0.0;      ///< render stage excess
  double communication_loss = 0.0;  ///< composite stage excess
  double residual_loss = 0.0;       ///< clamped at 0; see overlap_credit
  /// Stage time hidden by overlap: max(0, -(raw residual)). 0 for pure-BSP
  /// sweeps, positive when reported seconds < stage-sum seconds.
  double overlap_credit = 0.0;
};

/// Extracts sweep points from bench rows whose name starts with `prefix`
/// and that carry a "procs" counter plus io_s/render_s/composite_s
/// counters (the bench_fig5 schema). Sorted by procs; throws when fewer
/// than two points match.
std::vector<ScalingPoint> extract_scaling(const BenchRun& run,
                                          const std::string& prefix);

/// Decomposes each point against the smallest-proc point.
std::vector<ScalingLoss> scaling_decomposition(
    const std::vector<ScalingPoint>& points);

std::string report(const std::vector<ScalingLoss>& losses);

}  // namespace pvr::profile
