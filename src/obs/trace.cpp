#include "obs/trace.hpp"

#include "util/error.hpp"

namespace pvr::obs {

const char* to_string(Category cat) {
  switch (cat) {
    case Category::kFrame: return "frame";
    case Category::kIo: return "io";
    case Category::kRender: return "render";
    case Category::kComposite: return "composite";
    case Category::kExchange: return "exchange";
    case Category::kCollective: return "collective";
    case Category::kStorage: return "storage";
    case Category::kCompute: return "compute";
    case Category::kFault: return "fault";
    case Category::kCheckpoint: return "ckpt";
    case Category::kSteal: return "steal";
    case Category::kOther: return "other";
  }
  return "other";
}

void Tracer::advance(double seconds) {
  PVR_REQUIRE(seconds >= 0.0, "simulated time cannot move backwards");
  now_ += seconds;
}

Tracer::SpanId Tracer::begin(std::string name, Category cat) {
  Span span;
  span.name = std::move(name);
  span.cat = cat;
  span.start = now_;
  span.end = now_;  // provisional; fixed by end()
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.depth = std::int32_t(stack_.size());
  const SpanId id = SpanId(spans_.size());
  spans_.push_back(std::move(span));
  stack_.push_back(id);
  return id;
}

void Tracer::end(SpanId id) {
  PVR_REQUIRE(!stack_.empty() && stack_.back() == id,
              "spans must be ended innermost-first");
  spans_[std::size_t(id)].end = now_;
  stack_.pop_back();
}

void Tracer::arg(SpanId id, std::string key, double value) {
  PVR_ASSERT(id >= 0 && std::size_t(id) < spans_.size());
  spans_[std::size_t(id)].args.emplace_back(std::move(key), value);
}

void Tracer::instant(std::string name, Category cat,
                     std::vector<std::pair<std::string, double>> args) {
  Instant event;
  event.name = std::move(name);
  event.cat = cat;
  event.time = now_;
  event.args = std::move(args);
  instants_.push_back(std::move(event));
}

void Tracer::reset() {
  PVR_REQUIRE(stack_.empty(), "cannot reset a tracer with open spans");
  now_ = 0.0;
  spans_.clear();
  instants_.clear();
  metrics_.clear();
}

FrameTrace summarize_frame(const Tracer& tracer, Tracer::SpanId frame_span) {
  const auto& spans = tracer.spans();
  PVR_REQUIRE(frame_span >= 0 && std::size_t(frame_span) < spans.size(),
              "frame span id out of range");
  const Span& frame = spans[std::size_t(frame_span)];

  FrameTrace summary;
  summary.enabled = true;
  summary.frame_seconds = frame.seconds();

  // Membership in the frame's subtree, walkable in one pass because parents
  // always precede children in the span vector.
  std::vector<bool> in_frame(spans.size(), false);
  in_frame[std::size_t(frame_span)] = true;
  for (std::size_t i = std::size_t(frame_span) + 1; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.parent >= 0 && in_frame[std::size_t(s.parent)]) {
      in_frame[i] = true;
    }
  }

  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (!in_frame[i]) continue;
    const Span& s = spans[i];
    ++summary.spans;
    const bool stage_child = s.parent == frame_span;
    switch (s.cat) {
      case Category::kIo:
        if (stage_child) summary.io_seconds += s.seconds();
        break;
      case Category::kRender:
        if (stage_child) summary.render_seconds += s.seconds();
        break;
      case Category::kComposite:
        if (stage_child) summary.composite_seconds += s.seconds();
        break;
      case Category::kExchange:
        summary.exchange_seconds += s.seconds();
        break;
      case Category::kCollective:
        summary.collective_seconds += s.seconds();
        break;
      case Category::kStorage:
        summary.storage_seconds += s.seconds();
        break;
      default:
        break;
    }
  }
  for (const Instant& e : tracer.instants()) {
    if (e.time >= frame.start && e.time <= frame.end) ++summary.instants;
  }
  return summary;
}

}  // namespace pvr::obs
