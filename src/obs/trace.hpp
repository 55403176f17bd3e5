// Simulated-clock tracer: the observability backbone of the pipeline.
//
// Every modeled duration in the library is a double of *simulated* seconds;
// the tracer strings those durations onto a single monotonic timeline so a
// frame becomes a tree of timestamped spans (stage begin/end, each exchange
// round with its full cost breakdown, each tree collective, each storage
// batch, each fault-recovery action) instead of one end-of-frame aggregate.
//
// Clock semantics: `now()` is simulated time, not host time. Leaf
// instrumentation calls `advance(seconds)` with the modeled cost it just
// computed; enclosing spans simply bracket their children, so a parent's
// [begin, end) exactly covers the sum of its children's advances. Because
// the superstep runtime executes ranks sequentially and all costs are
// deterministic, two runs of the same configuration produce byte-identical
// timelines.
//
// Attachment: one tracer serves the whole pipeline. Pass it to
// core::ParallelVolumeRenderer::set_tracer (which forwards it to the
// runtime, and through the runtime to I/O, storage, and the compositors).
// A null tracer is the default everywhere, and every instrumentation site
// is guarded, so untraced runs pay nothing.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace pvr::obs {

/// Span/event taxonomy; also the "cat" field of the Chrome trace export.
enum class Category {
  kFrame,       ///< one whole frame
  kIo,          ///< I/O stage and its open/storage/shuffle phases
  kRender,      ///< ray-casting stage
  kComposite,   ///< compositing stage and its rounds
  kExchange,    ///< one priced torus exchange round
  kCollective,  ///< one tree-network collective
  kStorage,     ///< one physical storage batch
  kCompute,     ///< a superstep compute phase (incl. blending)
  kFault,       ///< fault census / recovery actions
  kCheckpoint,  ///< checkpoint write / restart read / rollback phases
  kSteal,       ///< work-stealing claim / block-replication phases
  kOther,
};

const char* to_string(Category cat);

/// One closed span on the simulated timeline. `parent` indexes the tracer's
/// span vector (-1 for roots); spans are stored in begin order.
struct Span {
  std::string name;
  Category cat = Category::kOther;
  double start = 0.0;
  double end = 0.0;
  std::int32_t parent = -1;
  std::int32_t depth = 0;
  std::vector<std::pair<std::string, double>> args;

  double seconds() const { return end - start; }
};

/// A zero-duration event pinned to the simulated clock (fault recovery
/// actions, epoch markers).
struct Instant {
  std::string name;
  Category cat = Category::kOther;
  double time = 0.0;
  std::vector<std::pair<std::string, double>> args;
};

class Tracer {
 public:
  using SpanId = std::int32_t;

  /// Current simulated time (seconds since the tracer was created/reset).
  double now() const { return now_; }

  /// Moves the simulated clock forward by a non-negative modeled duration.
  void advance(double seconds);

  /// Opens a span at `now()`. Spans must be closed innermost-first.
  SpanId begin(std::string name, Category cat);
  /// Closes the innermost open span, which must be `id`.
  void end(SpanId id);
  /// Attaches a numeric argument to an open or closed span.
  void arg(SpanId id, std::string key, double value);

  /// Records a zero-duration event at `now()`.
  void instant(std::string name, Category cat,
               std::vector<std::pair<std::string, double>> args = {});

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<Instant>& instants() const { return instants_; }
  /// Number of currently open (un-ended) spans.
  std::int64_t open_depth() const { return std::int64_t(stack_.size()); }

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  /// Drops all spans, events, and metrics and rewinds the clock to zero.
  void reset();

 private:
  double now_ = 0.0;
  std::vector<Span> spans_;
  std::vector<Instant> instants_;
  std::vector<SpanId> stack_;
  MetricsRegistry metrics_;
};

/// RAII span that tolerates a null tracer, so instrumentation sites read as
/// one line and cost nothing when tracing is off:
///
///   obs::ScopedSpan span(tracer, "io.open", obs::Category::kIo);
///   ... work, tracer->advance(cost) ...
///   span.arg("bytes", double(bytes));   // no-op when tracer == nullptr
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, Category cat)
      : tracer_(tracer) {
    if (tracer_ != nullptr) id_ = tracer_->begin(name, cat);
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void arg(const char* key, double value) {
    if (tracer_ != nullptr) tracer_->arg(id_, key, value);
  }
  bool active() const { return tracer_ != nullptr; }

  /// Ends the span now instead of at scope exit (callers that need the
  /// closed span's id, e.g. to summarize it). Returns the id, -1 untraced.
  Tracer::SpanId close() {
    if (tracer_ != nullptr) {
      tracer_->end(id_);
      tracer_ = nullptr;
    }
    return id_;
  }

 private:
  Tracer* tracer_;
  Tracer::SpanId id_ = -1;
};

/// Pointer-free per-frame trace summary embedded in core::FrameStats: how
/// much of the frame the span tree accounts for, split by stage. All zeros
/// (enabled == false) when no tracer was attached.
struct FrameTrace {
  bool enabled = false;
  std::int64_t spans = 0;
  std::int64_t instants = 0;
  double frame_seconds = 0.0;      ///< duration of the frame span
  double io_seconds = 0.0;         ///< top-level kIo stage spans
  double render_seconds = 0.0;     ///< top-level kRender stage spans
  double composite_seconds = 0.0;  ///< top-level kComposite stage spans
  double exchange_seconds = 0.0;   ///< all kExchange leaf spans in the frame
  double collective_seconds = 0.0; ///< all kCollective spans in the frame
  double storage_seconds = 0.0;    ///< all kStorage spans in the frame

  /// Fraction of the frame span covered by its stage children, in [0, 1].
  double coverage() const {
    return frame_seconds > 0.0
               ? (io_seconds + render_seconds + composite_seconds) /
                     frame_seconds
               : 0.0;
  }
};

/// Summarizes the subtree rooted at `frame_span` (a closed kFrame span).
FrameTrace summarize_frame(const Tracer& tracer, Tracer::SpanId frame_span);

}  // namespace pvr::obs
