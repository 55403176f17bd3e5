#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "e2e.hpp"

namespace e2e {

void Fnv1a::add(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h_ ^= p[i];
    h_ *= 0x100000001b3ULL;
  }
}

std::string Fnv1a::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h_);
  return buf;
}

namespace {

class Text {
 public:
  Text& num(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return line(key, buf);
  }
  Text& count(const char* key, std::int64_t v) {
    return line(key, std::to_string(v));
  }
  void set_prefix(std::string prefix) { prefix_ = std::move(prefix); }
  std::string take() { return std::move(out_); }

 private:
  Text& line(const char* key, const std::string& value) {
    out_ += prefix_;
    out_ += key;
    out_ += '=';
    out_ += value;
    out_ += '\n';
    return *this;
  }

  std::string prefix_;
  std::string out_;
};

void frame_text(const pvr::core::FrameStats& f, Text& t) {
  t.num("io_s", f.io_seconds)
      .num("render_s", f.render_seconds)
      .num("composite_s", f.composite_seconds)
      .num("io.seconds", f.io.seconds)
      .num("io.open_s", f.io.open_seconds)
      .num("io.storage_s", f.io.storage_cost.seconds)
      .num("io.shuffle_s", f.io.shuffle_cost.seconds)
      .count("io.useful_bytes", f.io.useful_bytes)
      .count("io.physical_bytes", f.io.physical_bytes)
      .count("io.accesses", f.io.accesses)
      .count("io.shuffle_messages", f.io.shuffle_cost.messages)
      .count("io.shuffle_bytes", f.io.shuffle_cost.total_bytes)
      .num("render.seconds", f.render.seconds)
      .count("render.total_samples", f.render.total_samples)
      .count("render.max_rank_samples", f.render.max_rank_samples)
      .count("render.straggler_rank", f.render.straggler_rank)
      .num("composite.seconds", f.composite.seconds)
      .num("composite.exchange_s", f.composite.exchange.seconds)
      .num("composite.skew_s", f.composite.exchange.skew_seconds)
      .num("composite.blend_s", f.composite.blend_seconds)
      .count("composite.compositors", f.composite.num_compositors)
      .count("composite.messages", f.composite.messages)
      .count("composite.bytes", f.composite.bytes)
      .num("write_s", f.write_seconds)
      .count("write.useful_bytes", f.write_io.useful_bytes)
      .count("faults.failed_nodes", f.faults.failed_nodes)
      .count("faults.failed_links", f.faults.failed_links)
      .count("faults.failed_servers", f.faults.failed_servers)
      .count("faults.undeliverable", f.faults.undeliverable_messages)
      .count("faults.retries", f.faults.retries)
      .count("faults.rerouted_messages", f.faults.rerouted_messages)
      .count("faults.rerouted_hops", f.faults.rerouted_hops)
      .count("faults.reassigned_partitions", f.faults.reassigned_partitions)
      .count("faults.reassigned_aggregators", f.faults.reassigned_aggregators)
      .count("faults.dropped_blocks", f.faults.dropped_blocks)
      .count("faults.rerouted_clients", f.faults.rerouted_clients)
      .count("faults.failover_extents", f.faults.failover_extents)
      .num("faults.coverage", f.faults.coverage)
      .count("async.tasks", f.async.tasks)
      .count("async.edges", f.async.edges)
      .num("async.bsp_s", f.async.bsp_seconds)
      .num("async.reclaimed_s", f.async.reclaimed_seconds)
      .num("async.readahead_s", f.async.readahead_seconds);
}

}  // namespace

std::string stats_text(const pvr::core::FrameStats& f) {
  Text t;
  frame_text(f, t);
  return t.take();
}

std::string stats_text(const pvr::core::RunStats& r) {
  Text t;
  t.count("frames_completed", r.frames_completed)
      .count("faults_struck", r.faults_struck)
      .count("checkpoints_written", r.checkpoints_written)
      .count("checkpoints_read", r.checkpoints_read)
      .num("frame_s", r.frame_seconds)
      .num("checkpoint_s", r.checkpoint_seconds)
      .num("lost_work_s", r.lost_work_seconds)
      .num("total_s", r.total_seconds)
      .num("ideal_s", r.ideal_seconds)
      .num("min_coverage", r.min_coverage);
  for (std::size_t i = 0; i < r.frames.size(); ++i) {
    t.set_prefix("frame" + std::to_string(i) + ".");
    frame_text(r.frames[i], t);
  }
  return t.take();
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (u < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", unsigned(u));
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto n = std::int64_t(samples.size());
  auto rank = std::int64_t(std::ceil(p * double(n)));
  rank = std::clamp<std::int64_t>(rank, 1, n);
  return samples[std::size_t(rank - 1)];
}

SpanLog::Scope SpanLog::span(std::string name, std::int64_t op_id,
                             Kind kind) {
  Span s;
  s.name = std::move(name);
  s.parent = open_;
  s.op_id = op_id;
  s.kind = kind;
  spans_.push_back(std::move(s));
  child_ns_.push_back(0);
  open_ = int(spans_.size()) - 1;
  // Read the clock last, so the bookkeeping above is not inside the span.
  spans_.back().start_ns = now_ns();
  return Scope(this, open_);
}

std::int64_t SpanLog::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

void SpanLog::close(int index) {
  const std::int64_t now = now_ns();
  Span& s = spans_[std::size_t(index)];
  s.end_ns = now;
  open_ = s.parent;
  if (s.parent >= 0) child_ns_[std::size_t(s.parent)] += now - s.start_ns;
}

void SpanLog::count(const std::string& name, double value,
                    const std::string& unit) {
  Count& c = counts_[name];
  c.unit = unit;
  c.values.push_back(value);
}

std::int64_t SpanLog::self_ns(std::size_t index) const {
  const Span& s = spans_[index];
  return s.end_ns - s.start_ns - child_ns_[index];
}

double SpanLog::span_median_ms(const std::string& name) const {
  std::vector<double> ms;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) ms.push_back(double(self_ns(i)) * 1e-6);
  }
  return median(std::move(ms));
}

double SpanLog::op_total_ms(const std::string& name) const {
  std::map<std::int64_t, double> per_op;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) {
      per_op[spans_[i].op_id] += double(self_ns(i)) * 1e-6;
    }
  }
  std::vector<double> ms;
  for (const auto& [op, total] : per_op) ms.push_back(total);
  return median(std::move(ms));
}

double SpanLog::op_decomposed_ms() const {
  std::vector<double> ms;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == "e2e.op") {
      ms.push_back(double(child_ns_[i]) * 1e-6);
    }
  }
  return median(std::move(ms));
}

Metrics SpanLog::metrics() const {
  Metrics m;
  for (const Span& s : spans_) {
    if (s.name == "e2e.op" || m.count(s.name + "_ms") > 0) continue;
    m[s.name + "_ms"] = Metric{span_median_ms(s.name), "ms"};
  }
  for (const auto& [name, c] : counts_) {
    m[name] = Metric{median(c.values), c.unit};
  }
  return m;
}

std::string SpanLog::chrome_json(std::int64_t max_op) const {
  static const char* const kCategory[] = {"op", "probe", "setup"};
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.op_id >= max_op) continue;
    out += first ? "\n" : ",\n";
    first = false;
    out += "{\"name\": " + json_string(s.name) + ", \"cat\": \"" +
           kCategory[int(s.kind)] + "\", \"ph\": \"X\", \"pid\": 1, " +
           "\"tid\": 1, \"ts\": " + json_number(double(s.start_ns) * 1e-3) +
           ", \"dur\": " + json_number(double(s.end_ns - s.start_ns) * 1e-3) +
           ", \"args\": {\"op_id\": " + std::to_string(s.op_id) +
           ", \"parent\": " + std::to_string(s.parent) +
           ", \"self_us\": " + json_number(double(self_ns(i)) * 1e-3) + "}}";
  }
  out += "\n]}\n";
  return out;
}

}  // namespace e2e
