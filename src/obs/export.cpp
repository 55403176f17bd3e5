#include "obs/export.hpp"

#include <algorithm>
#include <cstdio>
#include <map>

#include "util/error.hpp"
#include "util/table.hpp"

namespace pvr::obs {

namespace {

/// Fixed-format double for byte-identical output across runs. Values here
/// are simulated seconds/bytes, well within %.9f's exact range.
std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9f", v);
  return buf;
}

/// Simulated seconds -> trace microseconds (Chrome trace time unit).
std::string fmt_us(double seconds) { return fmt_double(seconds * 1e6); }

void append_args(std::string* out,
                 const std::vector<std::pair<std::string, double>>& args) {
  *out += "\"args\":{";
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (i > 0) *out += ',';
    *out += '"';
    *out += json_escape(args[i].first);
    *out += "\":";
    *out += fmt_double(args[i].second);
  }
  *out += '}';
}

/// Perfetto lane assignment: pid groups events by the rank that bounds them
/// (the emitting layer's "straggler_rank" arg; pid 0 is the global lane for
/// collective phases), tid separates stage categories within a rank.
std::int64_t event_pid(const std::vector<std::pair<std::string, double>>& args) {
  for (const auto& [key, value] : args) {
    if (key == "straggler_rank" && value >= 0.0) {
      return std::int64_t(value) + 1;
    }
  }
  return 0;
}

std::int64_t event_tid(Category cat) { return std::int64_t(cat); }

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string to_chrome_trace_json(const Tracer& tracer) {
  // Metadata pass: name every (pid, tid) lane the events will use, so
  // Perfetto groups per-rank lanes instead of one flat track. std::map keeps
  // the metadata block deterministic.
  std::map<std::int64_t, std::map<std::int64_t, Category>> lanes;
  for (const Span& s : tracer.spans()) {
    lanes[event_pid(s.args)][event_tid(s.cat)] = s.cat;
  }
  for (const Instant& e : tracer.instants()) {
    lanes[event_pid(e.args)][event_tid(e.cat)] = e.cat;
  }

  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto sep = [&] {
    if (!first) out += ",\n";
    first = false;
  };
  for (const auto& [pid, tids] : lanes) {
    sep();
    const std::string pname =
        pid == 0 ? "global" : "rank " + std::to_string(pid - 1);
    out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
           std::to_string(pid) +
           ",\"tid\":0,\"args\":{\"name\":\"" + pname + "\"}}";
    for (const auto& [tid, cat] : tids) {
      sep();
      out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" +
             std::to_string(pid) + ",\"tid\":" + std::to_string(tid) +
             ",\"args\":{\"name\":\"" + to_string(cat) + "\"}}";
    }
  }
  for (const Span& s : tracer.spans()) {
    sep();
    out += "{\"name\":\"" + json_escape(s.name) + "\",\"cat\":\"";
    out += to_string(s.cat);
    out += "\",\"ph\":\"X\",\"pid\":" + std::to_string(event_pid(s.args)) +
           ",\"tid\":" + std::to_string(event_tid(s.cat)) +
           ",\"ts\":" + fmt_us(s.start) +
           ",\"dur\":" + fmt_us(s.seconds()) + ",";
    append_args(&out, s.args);
    out += '}';
  }
  for (const Instant& e : tracer.instants()) {
    sep();
    out += "{\"name\":\"" + json_escape(e.name) + "\",\"cat\":\"";
    out += to_string(e.cat);
    out += "\",\"ph\":\"i\",\"s\":\"g\",\"pid\":" +
           std::to_string(event_pid(e.args)) +
           ",\"tid\":" + std::to_string(event_tid(e.cat)) +
           ",\"ts\":" + fmt_us(e.time) + ",";
    append_args(&out, e.args);
    out += '}';
  }
  out += "]}\n";
  return out;
}

std::string to_metrics_json(const MetricsRegistry& metrics) {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  const auto sep = [&] {
    if (!first) out += ',';
    first = false;
    out += "\n    ";
  };
  for (const auto& [name, c] : metrics.counters()) {
    sep();
    out += '"' + json_escape(name) + "\": " + std::to_string(c.value);
  }
  out += "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : metrics.gauges()) {
    sep();
    out += '"' + json_escape(name) + "\": " + fmt_double(g.value);
  }
  out += "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : metrics.histograms()) {
    sep();
    out += '"' + json_escape(name) + "\": {\"count\": " +
           std::to_string(h.count) + ", \"sum\": " + std::to_string(h.sum) +
           ", \"max\": " + std::to_string(h.max_value) + ", \"buckets\": [";
    // Buckets up to the last non-empty one; bucket i is [2^(i-1), 2^i).
    const int top = h.top_bucket();
    for (int i = 0; i <= top; ++i) {
      if (i > 0) out += ',';
      out += std::to_string(h.counts[i]);
    }
    out += "]}";
  }
  out += "\n  },\n  \"indexed\": {";
  first = true;
  for (const auto& [name, ic] : metrics.indexed_counters()) {
    sep();
    const auto [busiest_index, busiest_value] = ic.busiest();
    out += '"' + json_escape(name) +
           "\": {\"entries\": " + std::to_string(ic.by_index.size()) +
           ", \"total\": " + std::to_string(ic.total()) +
           ", \"busiest_index\": " + std::to_string(busiest_index) +
           ", \"busiest_value\": " + std::to_string(busiest_value) + '}';
  }
  out += "\n  }\n}\n";
  return out;
}

void write_text_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    throw Error("obs: cannot open for writing: " + path);
  }
  const std::size_t written = std::fwrite(content.data(), 1, content.size(), f);
  const bool flushed = std::fflush(f) == 0;
  std::fclose(f);
  if (written != content.size() || !flushed) {
    throw Error("obs: short write: " + path);
  }
}

void write_chrome_trace(const Tracer& tracer, const std::string& path) {
  write_text_file(path, to_chrome_trace_json(tracer));
}

void write_metrics_json(const MetricsRegistry& metrics,
                        const std::string& path) {
  write_text_file(path, to_metrics_json(metrics));
}

std::string report(const Tracer& tracer, int top_n) {
  PVR_REQUIRE(top_n > 0, "report needs top_n > 0");
  std::string out;

  // --- Time by category (leaf spans only, so totals do not double count).
  std::vector<bool> has_child(tracer.spans().size(), false);
  for (const Span& s : tracer.spans()) {
    if (s.parent >= 0) has_child[std::size_t(s.parent)] = true;
  }
  std::map<std::string, double> by_cat;
  std::vector<std::size_t> leaves;
  for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
    if (has_child[i]) continue;
    leaves.push_back(i);
    by_cat[to_string(tracer.spans()[i].cat)] += tracer.spans()[i].seconds();
  }
  TextTable cats("Simulated time by category (leaf spans)");
  cats.set_header({"category", "seconds"});
  for (const auto& [cat, seconds] : by_cat) {
    cats.add_row({cat, fmt_f(seconds, 6)});
  }
  out += cats.str();

  // --- Slowest leaf phases.
  std::stable_sort(leaves.begin(), leaves.end(),
                   [&](std::size_t a, std::size_t b) {
                     return tracer.spans()[a].seconds() >
                            tracer.spans()[b].seconds();
                   });
  TextTable slow("Slowest phases (leaf spans)");
  slow.set_header({"span", "category", "start_s", "seconds"});
  for (std::size_t i = 0;
       i < leaves.size() && i < std::size_t(top_n); ++i) {
    const Span& s = tracer.spans()[leaves[i]];
    slow.add_row({s.name, to_string(s.cat), fmt_f(s.start, 6),
                  fmt_f(s.seconds(), 6)});
  }
  out += '\n';
  out += slow.str();

  // --- Hot entries of every indexed counter (links, ranks, servers,
  // thieves). hottest() totally orders ties by index, so the table is
  // byte-identical across runs even when several entries share a value.
  for (const auto& [name, ic] : tracer.metrics().indexed_counters()) {
    const std::vector<std::pair<std::int64_t, std::int64_t>> entries =
        ic.hottest();
    TextTable hot("Top " + name + " (" + std::to_string(entries.size()) +
                  " entries)");
    hot.set_header({"index", "value"});
    for (std::size_t i = 0;
         i < entries.size() && i < std::size_t(top_n); ++i) {
      hot.add_row({std::to_string(entries[i].first),
                   std::to_string(entries[i].second)});
    }
    // += in two steps: the `"literal" + std::string&&` concatenation trips
    // a GCC 12 -Wrestrict false positive at some -march levels.
    out += '\n';
    out += hot.str();
  }
  return out;
}

}  // namespace pvr::obs
