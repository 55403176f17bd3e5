// Metrics registry: named counters, gauges, histograms, and indexed
// counters that instrumented layers (torus exchange, storage batches, the
// compositors) feed while a tracer is attached. Everything is deterministic:
// metrics are keyed by name in sorted order, histograms use fixed power-of-
// two buckets, and no host time or addresses ever enter a metric — two runs
// of the same configuration produce byte-identical exports.
//
// The registry is deliberately simple (single-threaded, like the superstep
// runtime that feeds it): lookup is by string name and creates on first use.
// Instrumented code must only touch it behind an `if (tracer)` guard so an
// untraced run pays nothing.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace pvr::obs {

/// Monotonically accumulating integer metric (bytes moved, retries, ...).
struct Counter {
  std::int64_t value = 0;
  void add(std::int64_t v) { value += v; }
};

/// Last-value / extremum metric. `set` overwrites, `max`/`min` keep the
/// extremum seen so far (used for e.g. busiest-link bytes per frame).
struct Gauge {
  double value = 0.0;
  bool seen = false;
  void set(double v) {
    value = v;
    seen = true;
  }
  void max(double v) {
    value = seen ? (v > value ? v : value) : v;
    seen = true;
  }
  void min(double v) {
    value = seen ? (v < value ? v : value) : v;
    seen = true;
  }
};

/// Power-of-two bucketed histogram for non-negative sizes (message bytes,
/// access bytes). Bucket i counts values in [2^(i-1), 2^i), bucket 0 counts
/// zeros and ones.
struct Histogram {
  static constexpr int kBuckets = 64;
  std::int64_t counts[kBuckets] = {};
  std::int64_t count = 0;
  std::int64_t sum = 0;
  std::int64_t max_value = 0;

  void record(std::int64_t v);
  double mean() const { return count > 0 ? double(sum) / double(count) : 0.0; }
  /// Index of the highest non-empty bucket, -1 when empty.
  int top_bucket() const;
};

/// Counter family indexed by a small integer id (rank, link, server).
/// Sparse: only touched indices are stored, in index order.
struct IndexedCounter {
  std::map<std::int64_t, std::int64_t> by_index;
  void add(std::int64_t index, std::int64_t v) { by_index[index] += v; }
  std::int64_t total() const;
  /// (index, value) of the largest entry; {-1, 0} when empty.
  std::pair<std::int64_t, std::int64_t> busiest() const;
  /// All entries hottest-first with a deterministic tie-break: value
  /// descending, then index ascending. Two counters holding the same
  /// contents always rank identically — the human report depends on this
  /// ordering being total.
  std::vector<std::pair<std::int64_t, std::int64_t>> hottest() const;
};

class MetricsRegistry {
 public:
  Counter& counter(const std::string& name) { return counters_[name]; }
  Gauge& gauge(const std::string& name) { return gauges_[name]; }
  Histogram& histogram(const std::string& name) { return histograms_[name]; }
  IndexedCounter& indexed(const std::string& name) { return indexed_[name]; }

  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }
  const std::map<std::string, IndexedCounter>& indexed_counters() const {
    return indexed_;
  }

  bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty() &&
           indexed_.empty();
  }
  void clear();

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
  std::map<std::string, IndexedCounter> indexed_;
};

}  // namespace pvr::obs
