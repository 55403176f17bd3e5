#include "profile/diff.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/error.hpp"
#include "util/table.hpp"

namespace pvr::profile {

namespace {

std::string fmt6(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

/// One-sided regression test: fresh slower than baseline beyond tolerance.
bool regressed(double baseline, double fresh, const GateConfig& config) {
  const double excess = fresh - baseline;
  if (excess <= config.abs_tol) return false;
  return excess > config.rel_tol * std::max(std::abs(baseline), 1e-30);
}

/// Two-sided drift test for deterministic counters.
bool drifted(double baseline, double fresh, const GateConfig& config) {
  const double diff = std::abs(fresh - baseline);
  if (diff <= config.abs_tol) return false;
  return diff > config.rel_tol * std::max(std::abs(baseline), 1e-30);
}

}  // namespace

// ---------------------------------------------------------------------------
// Profile A/B diff

ProfileDiff diff_profiles(const Attribution& base, const Attribution& other) {
  ProfileDiff diff;
  for (int b = 0; b < kNumBuckets; ++b) {
    diff.buckets[std::size_t(b)] = {Bucket(b), base.seconds(Bucket(b)),
                                    other.seconds(Bucket(b))};
  }
  diff.base_total = base.total_seconds();
  diff.other_total = other.total_seconds();
  return diff;
}

std::string report(const ProfileDiff& diff) {
  TextTable table("Profile diff (other - base)");
  table.set_header({"bucket", "base_s", "other_s", "delta_s"});
  for (const BucketDelta& d : diff.buckets) {
    if (d.base_seconds == 0.0 && d.other_seconds == 0.0) continue;
    table.add_row({to_string(d.bucket), fmt6(d.base_seconds),
                   fmt6(d.other_seconds), fmt6(d.delta_seconds())});
  }
  table.add_row({"total", fmt6(diff.base_total), fmt6(diff.other_total),
                 fmt6(diff.delta_total())});
  return table.str();
}

// ---------------------------------------------------------------------------
// Bench JSON model

const double* BenchRow::counter(const std::string& key) const {
  for (const auto& [counter_name, value] : counters) {
    if (counter_name == key) return &value;
  }
  return nullptr;
}

const BenchRow* BenchRun::row(const std::string& name) const {
  for (const BenchRow& r : rows) {
    if (r.name == name) return &r;
  }
  return nullptr;
}

const BenchProfile* BenchRun::profile(const std::string& label) const {
  for (const BenchProfile& p : profiles) {
    if (p.label == label) return &p;
  }
  return nullptr;
}

BenchRun parse_bench_run(const JsonPtr& doc) {
  BenchRun run;
  run.bench = doc->string_at("bench");
  if (JsonPtr version = doc->find("schema_version"); version != nullptr) {
    run.schema_version = std::int64_t(std::llround(version->as_number()));
  }
  if (JsonPtr git = doc->find("git_describe"); git != nullptr) {
    run.git_describe = git->as_string();
  }
  for (const JsonPtr& row_doc : doc->at("rows")->as_array()) {
    BenchRow row;
    row.name = row_doc->string_at("name");
    row.seconds = row_doc->number_at("seconds");
    for (const auto& [key, value] : row_doc->as_object()) {
      if (key == "name" || key == "seconds") continue;
      if (value->is_number()) row.counters.emplace_back(key, value->as_number());
    }
    run.rows.push_back(std::move(row));
  }
  if (JsonPtr profiles = doc->find("profile"); profiles != nullptr) {
    for (const JsonPtr& prof_doc : profiles->as_array()) {
      BenchProfile prof;
      prof.label = prof_doc->string_at("label");
      prof.total_seconds = prof_doc->number_at("total_s");
      const JsonPtr buckets = prof_doc->at("buckets");
      for (int b = 0; b < kNumBuckets; ++b) {
        if (JsonPtr v = buckets->find(to_string(Bucket(b))); v != nullptr) {
          prof.bucket_seconds[std::size_t(b)] = v->as_number();
        }
      }
      run.profiles.push_back(std::move(prof));
    }
  }
  return run;
}

BenchRun load_bench_run(const std::string& path) {
  return parse_bench_run(load_json_file(path));
}

// ---------------------------------------------------------------------------
// Perf gate

GateResult perf_gate(const BenchRun& baseline, const BenchRun& fresh,
                     const GateConfig& config) {
  GateResult result;
  if (baseline.bench != fresh.bench) {
    result.failures.push_back(
        {"<header>", "bench",
         "bench name mismatch: baseline \"" + baseline.bench +
             "\" vs fresh \"" + fresh.bench + "\""});
    return result;
  }
  if (baseline.schema_version != fresh.schema_version) {
    result.failures.push_back(
        {"<header>", "schema_version",
         "schema mismatch: baseline " +
             std::to_string(baseline.schema_version) + " vs fresh " +
             std::to_string(fresh.schema_version) +
             " — regenerate the baseline"});
    return result;
  }

  for (const BenchRow& base_row : baseline.rows) {
    const BenchRow* fresh_row = fresh.row(base_row.name);
    if (fresh_row == nullptr) {
      result.failures.push_back(
          {base_row.name, "<row>", "row missing from fresh output"});
      continue;
    }
    if (regressed(base_row.seconds, fresh_row->seconds, config)) {
      result.failures.push_back(
          {base_row.name, "seconds",
           "regressed: baseline " + fmt6(base_row.seconds) + "s, fresh " +
               fmt6(fresh_row->seconds) + "s (tol " +
               fmt6(config.rel_tol * 100.0) + "%)"});
    } else if (base_row.seconds - fresh_row->seconds >
               config.rel_tol * std::abs(base_row.seconds)) {
      result.notes.push_back(base_row.name + ": improved " +
                             fmt6(base_row.seconds) + "s -> " +
                             fmt6(fresh_row->seconds) + "s");
    }
    for (const auto& [key, base_value] : base_row.counters) {
      const double* fresh_value = fresh_row->counter(key);
      if (fresh_value == nullptr) {
        result.failures.push_back(
            {base_row.name, key, "counter missing from fresh output"});
        continue;
      }
      if (drifted(base_value, *fresh_value, config)) {
        result.failures.push_back(
            {base_row.name, key,
             "drifted: baseline " + fmt6(base_value) + ", fresh " +
                 fmt6(*fresh_value)});
      }
    }
  }
  for (const BenchRow& fresh_row : fresh.rows) {
    if (baseline.row(fresh_row.name) == nullptr) {
      result.notes.push_back("new row (not gated): " + fresh_row.name);
    }
  }

  for (const BenchProfile& base_prof : baseline.profiles) {
    const BenchProfile* fresh_prof = fresh.profile(base_prof.label);
    if (fresh_prof == nullptr) {
      result.failures.push_back({"profile:" + base_prof.label, "<profile>",
                                 "profile missing from fresh output"});
      continue;
    }
    if (regressed(base_prof.total_seconds, fresh_prof->total_seconds,
                  config)) {
      result.failures.push_back(
          {"profile:" + base_prof.label, "total",
           "regressed: baseline " + fmt6(base_prof.total_seconds) +
               "s, fresh " + fmt6(fresh_prof->total_seconds) + "s"});
    }
    for (int b = 0; b < kNumBuckets; ++b) {
      const double base_s = base_prof.bucket_seconds[std::size_t(b)];
      const double fresh_s = fresh_prof->bucket_seconds[std::size_t(b)];
      if (regressed(base_s, fresh_s, config)) {
        result.failures.push_back(
            {"profile:" + base_prof.label, to_string(Bucket(b)),
             "bucket regressed: baseline " + fmt6(base_s) + "s, fresh " +
                 fmt6(fresh_s) + "s"});
      }
    }
  }
  return result;
}

std::string report(const GateResult& result) {
  std::string out;
  if (result.passed()) {
    out += "PERF GATE: PASS\n";
  } else {
    out += "PERF GATE: FAIL (" + std::to_string(result.failures.size()) +
           " issue(s))\n";
    for (const GateIssue& issue : result.failures) {
      out += "  FAIL " + issue.row + " [" + issue.key + "] " +
             issue.message + "\n";
    }
  }
  for (const std::string& note : result.notes) {
    out += "  note: " + note + "\n";
  }
  return out;
}

// ---------------------------------------------------------------------------
// Scaling decomposition

std::vector<ScalingPoint> extract_scaling(const BenchRun& run,
                                          const std::string& prefix) {
  std::vector<ScalingPoint> points;
  for (const BenchRow& row : run.rows) {
    if (row.name.rfind(prefix, 0) != 0) continue;
    const double* procs = row.counter("procs");
    const double* io = row.counter("io_s");
    const double* render = row.counter("render_s");
    const double* composite = row.counter("composite_s");
    if (procs == nullptr || io == nullptr || render == nullptr ||
        composite == nullptr) {
      continue;
    }
    ScalingPoint point;
    point.procs = std::int64_t(std::llround(*procs));
    point.io_seconds = *io;
    point.render_seconds = *render;
    point.composite_seconds = *composite;
    point.reported_seconds = row.seconds;
    points.push_back(point);
  }
  std::stable_sort(points.begin(), points.end(),
                   [](const ScalingPoint& a, const ScalingPoint& b) {
                     return a.procs < b.procs;
                   });
  PVR_REQUIRE(points.size() >= 2,
              "scaling decomposition needs >= 2 sweep points matching "
              "prefix \"" + prefix + "\"");
  return points;
}

std::vector<ScalingLoss> scaling_decomposition(
    const std::vector<ScalingPoint>& points) {
  PVR_REQUIRE(points.size() >= 2, "scaling decomposition needs >= 2 points");
  const ScalingPoint& base = points.front();
  PVR_REQUIRE(base.procs > 0 && base.total_seconds() > 0.0,
              "scaling base point must have procs > 0 and time > 0");

  std::vector<ScalingLoss> losses;
  losses.reserve(points.size());
  for (const ScalingPoint& p : points) {
    PVR_REQUIRE(p.procs > 0 && p.total_seconds() > 0.0,
                "scaling point must have procs > 0 and time > 0");
    const double scale = double(base.procs) / double(p.procs);
    const double actual = p.total_seconds();
    ScalingLoss loss;
    loss.procs = p.procs;
    loss.efficiency = base.total_seconds() * scale / actual;
    // Excess of each stage over its perfectly-scaled base value, as a
    // fraction of actual time; residual makes the sum exact.
    loss.io_loss = (p.io_seconds - base.io_seconds * scale) / actual;
    loss.imbalance_loss =
        (p.render_seconds - base.render_seconds * scale) / actual;
    loss.communication_loss =
        (p.composite_seconds - base.composite_seconds * scale) / actual;
    // A run mixing BSP and overlapped/async exchanges can report less wall
    // time than its stage sum (overlap hides stage seconds), which drives
    // the raw residual negative. Clamp and report rather than silently
    // summing: residual stays >= 0 and the hidden surplus is booked as
    // overlap_credit.
    const double raw_residual = (1.0 - loss.efficiency) - loss.io_loss -
                                loss.imbalance_loss - loss.communication_loss;
    loss.residual_loss = std::max(0.0, raw_residual);
    loss.overlap_credit = std::max(0.0, -raw_residual);
    losses.push_back(loss);
  }
  return losses;
}

std::string report(const std::vector<ScalingLoss>& losses) {
  TextTable table(
      "Strong-scaling efficiency loss (fractions of actual time)");
  table.set_header({"procs", "efficiency", "io", "imbalance",
                    "communication", "residual", "overlap"});
  for (const ScalingLoss& loss : losses) {
    table.add_row({fmt_procs(loss.procs), fmt_f(loss.efficiency, 3),
                   fmt_f(loss.io_loss, 3), fmt_f(loss.imbalance_loss, 3),
                   fmt_f(loss.communication_loss, 3),
                   fmt_f(loss.residual_loss, 3),
                   fmt_f(loss.overlap_credit, 3)});
  }
  return table.str();
}

}  // namespace pvr::profile
