// pvr_e2e: host-time end-to-end benchmark of the pvr library (README.md).
//
// Shared pieces: the digest every verified output reduces to, a JSON writer
// that is valid for any label, the bench-side span log of the traced run,
// and the workload interface implemented in workloads.cpp. Nothing here
// includes bench/*.hpp, so edits to the figure harness cannot change what
// this benchmark measures.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/pipeline.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;

/// FNV-1a, 64-bit.
class Fnv1a {
 public:
  void add(const void* data, std::size_t bytes);
  void add(std::string_view text) { add(text.data(), text.size()); }
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Every modeled field of a frame (or of a run and each of its frames) as
/// "key=value" lines, doubles printed with %.17g: two outputs produce the
/// same text only if they agree bit for bit.
std::string stats_text(const pvr::core::FrameStats& f);
std::string stats_text(const pvr::core::RunStats& r);

/// A JSON string literal for any text: escapes the quote, the backslash,
/// and every control character (as \u00XX).
std::string json_string(std::string_view s);
/// A JSON number with all 17 significant digits; NaN and infinities, which
/// JSON cannot hold, become null.
std::string json_number(double v);

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Nearest-rank percentile (rank ceil(p * n), 1-based) of unsorted samples;
/// always an observed sample. 0 for no samples.
double percentile(std::vector<double> samples, double p);
inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5);
}

/// What a span measures. kOp spans decompose a traced op (the children of
/// its "e2e.op" span); kProbe spans run the op's inputs through lower-level
/// calls beside it; kSetup spans time set-up steps.
enum class Kind { kOp, kProbe, kSetup };

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;          ///< index of the enclosing span; -1 at top level
  std::int64_t op_id = -1;  ///< traced op; -1 for set-up
  Kind kind = Kind::kOp;
};

/// Spans and per-op counts of a traced run, kept in memory and written once
/// at exit as Chrome trace JSON.
class SpanLog {
 public:
  /// Closes its span when it goes out of scope.
  class Scope {
   public:
    Scope(SpanLog* log, int index) : log_(log), index_(index) {}
    ~Scope() { log_->close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    int index_;
  };

  SpanLog() : origin_(Clock::now()) {}

  /// Opens a span nested in the innermost open one.
  [[nodiscard]] Scope span(std::string name, std::int64_t op_id, Kind kind);
  /// Records a count (or ratio) observed in one traced op.
  void count(const std::string& name, double value, const std::string& unit);

  /// Median self time of one span of `name`, over every occurrence (ms).
  double span_median_ms(const std::string& name) const;
  /// Median over ops of the op's summed self time of `name` spans (ms).
  double op_total_ms(const std::string& name) const;
  /// Median over ops of the summed duration of the op's decomposition: the
  /// children of its "e2e.op" span (ms).
  double op_decomposed_ms() const;
  /// Every span name as "<name>_ms" (span_median_ms) and every count (its
  /// median over ops), except the "e2e.op" wrapper.
  Metrics metrics() const;
  /// Chrome trace_event JSON (Perfetto-loadable) of the set-up spans and
  /// those of ops below `max_op`; short ops run thousands of times a run.
  std::string chrome_json(std::int64_t max_op) const;

 private:
  std::int64_t now_ns() const;
  void close(int index);
  std::int64_t self_ns(std::size_t index) const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::int64_t> child_ns_;  ///< per span: children's duration
  int open_ = -1;
  struct Count {
    std::string unit;
    std::vector<double> values;
  };
  std::map<std::string, Count> counts_;
};

/// Inputs a workload builds itself from.
struct Inputs {
  std::uint64_t seed = 1;
  std::string data_dir;  ///< where set-up writes dataset files
};

/// One benchmark workload: a fixed op on fixed inputs, run through the
/// library's public entry points.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Writes dataset files and builds the renderers (host_threads 1 and 2)
  /// and every other input from the seed. Called several times per run to
  /// time set-up; `log` (traced runs) receives set-up spans.
  virtual void setup(SpanLog* log) = 0;
  /// The timed op, on the renderer with `threads` host threads (1 or 2).
  virtual void op(int threads) = 0;
  /// Digest of the last op's output, computed outside the timer.
  virtual std::string digest() const = 0;
  /// The last op re-expressed as the public-call sequence core makes, each
  /// call in a span, followed by probes of the op's inputs. Returns the
  /// number of checks that failed: decomposed outputs that disagree with
  /// the last op's, which the caller has verified.
  virtual int traced_op(SpanLog& log, std::int64_t op_id) = 0;
  /// Metrics computed from several spans or counts (rates, differences).
  virtual void derive(const SpanLog& log, Metrics* m) const = 0;
};

const std::vector<std::string>& workload_names();
/// Throws pvr::Error for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Inputs& inputs);

}  // namespace e2e
