// Exporters for the tracer and metrics registry:
//
//   * to_chrome_trace_json — Chrome trace_event JSON ("traceEvents" array of
//     complete "X" spans and instant "i" events); loads directly in Perfetto
//     (ui.perfetto.dev) or chrome://tracing. Timestamps are simulated
//     microseconds. Leading "M" metadata events name the lanes: pid groups
//     events by bounding rank (pid 0 = "global", pid r+1 = "rank r", from
//     the straggler_rank span arg) and tid separates stage categories, so
//     Perfetto shows the same per-rank lanes profile::analyze reconstructs.
//   * to_metrics_json — flat JSON of every counter/gauge/histogram/indexed
//     counter in name order.
//   * report — human-readable table: per-category time, top-N slowest leaf
//     spans, top-N hot links/ranks from the indexed counters.
//
// All output is deterministic: doubles are printed with a fixed format and
// every container iterates in a stable order, so identical runs produce
// byte-identical files (asserted by tests/obs_test.cpp).
#pragma once

#include <string>

#include "obs/trace.hpp"

namespace pvr::obs {

/// Escapes `s` for use inside a JSON string literal: quote, backslash, and
/// every control character below 0x20, so any label yields valid JSON.
std::string json_escape(const std::string& s);

/// Renders the tracer's spans and instants as Chrome trace_event JSON.
std::string to_chrome_trace_json(const Tracer& tracer);

/// Renders the registry as flat metrics JSON.
std::string to_metrics_json(const MetricsRegistry& metrics);

/// Writes `content` to `path`, throwing pvr::Error naming the path on
/// failure (fail-loud, PR 1 convention).
void write_text_file(const std::string& path, const std::string& content);

/// Convenience: write_text_file(path, to_chrome_trace_json(tracer)).
void write_chrome_trace(const Tracer& tracer, const std::string& path);
/// Convenience: write_text_file(path, to_metrics_json(metrics)).
void write_metrics_json(const MetricsRegistry& metrics,
                        const std::string& path);

/// Human-readable summary: time by category, the `top_n` slowest leaf spans,
/// and the `top_n` largest entries of each indexed counter.
std::string report(const Tracer& tracer, int top_n = 10);

}  // namespace pvr::obs
