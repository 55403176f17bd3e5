#include "profile/profile.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "obs/export.hpp"
#include "util/error.hpp"
#include "util/table.hpp"

namespace pvr::profile {

namespace {

using obs::Category;
using obs::Span;
using obs::Tracer;

/// Fixed-format double for byte-identical output (obs exporter convention).
std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9f", v);
  return buf;
}

/// Linear arg lookup; spans carry a handful of args at most.
const double* find_arg(const Span& span, const char* key) {
  for (const auto& [name, value] : span.args) {
    if (name == key) return &value;
  }
  return nullptr;
}

Picos span_ps(const Span& span) {
  return to_picos(span.end) - to_picos(span.start);
}

/// Activity forced on a subtree by an ancestor's category: time spent inside
/// a checkpoint or steal phase belongs to that activity no matter which
/// layer (storage, torus, ...) priced it.
enum class Forced { kNone, kCheckpoint, kSteal };

Forced forced_of(Category cat, Forced inherited) {
  if (inherited != Forced::kNone) return inherited;
  if (cat == Category::kCheckpoint) return Forced::kCheckpoint;
  if (cat == Category::kSteal) return Forced::kSteal;
  return Forced::kNone;
}

/// Splits one self-time slice into buckets (ordered first-match rule; see
/// Bucket docs) and returns the largest share's bucket for labeling.
/// `compute_child_ps` is the duration of the span's direct kCompute
/// children (e.g. the render.kernel span under stage.render): those
/// picoseconds are already booked as compute by the children themselves,
/// so split rules that target a compute share of the whole stage subtract
/// them from what this slice still owes.
Bucket attribute_slice(const Span& span, Picos self_ps, Picos compute_child_ps,
                       Forced forced, Attribution* out) {
  if (forced == Forced::kCheckpoint) {
    out->add(Bucket::kCheckpoint, self_ps);
    return Bucket::kCheckpoint;
  }
  if (forced == Forced::kSteal) {
    out->add(Bucket::kSteal, self_ps);
    return Bucket::kSteal;
  }
  switch (span.cat) {
    case Category::kFault:
      out->add(Bucket::kFaultRecovery, self_ps);
      return Bucket::kFaultRecovery;
    case Category::kStorage:
      out->add(Bucket::kStorage, self_ps);
      return Bucket::kStorage;
    case Category::kCollective:
      out->add(Bucket::kCollective, self_ps);
      return Bucket::kCollective;
    case Category::kCompute:
      out->add(Bucket::kCompute, self_ps);
      return Bucket::kCompute;
    case Category::kExchange: {
      // seconds = max(link, endpoint) + latency + skew, with retry stalls
      // folded into the endpoint term; carve skew and retry out of the
      // slice and leave the remainder (serialization, contention, endpoint
      // overhead, latency) on the torus-link bucket. Clamps keep the three
      // parts summing exactly to self_ps even at rounding boundaries.
      if (self_ps <= 0) {
        out->add(Bucket::kTorusLink, self_ps);
        return Bucket::kTorusLink;
      }
      const double* skew = find_arg(span, "skew_seconds");
      const double* retry = find_arg(span, "retry_seconds");
      Picos skew_ps = skew != nullptr ? to_picos(*skew) : 0;
      skew_ps = std::clamp<Picos>(skew_ps, 0, self_ps);
      Picos retry_ps = retry != nullptr ? to_picos(*retry) : 0;
      retry_ps = std::clamp<Picos>(retry_ps, 0, self_ps - skew_ps);
      const Picos link_ps = self_ps - skew_ps - retry_ps;
      out->add(Bucket::kSkew, skew_ps);
      out->add(Bucket::kFaultRecovery, retry_ps);
      out->add(Bucket::kTorusLink, link_ps);
      if (link_ps >= skew_ps && link_ps >= retry_ps) {
        return Bucket::kTorusLink;
      }
      return skew_ps >= retry_ps ? Bucket::kSkew : Bucket::kFaultRecovery;
    }
    case Category::kRender: {
      // The render stage costs the straggler's time; the balanced share
      // (average rank load / straggler load) is useful compute, the rest is
      // the BSP straggler excess the paper calls load imbalance.
      const double* ranks = find_arg(span, "ranks");
      const double* total = find_arg(span, "total_samples");
      const double* max_rank = find_arg(span, "max_rank_samples");
      double balanced = 1.0;
      if (ranks != nullptr && total != nullptr && max_rank != nullptr &&
          *ranks > 0.0 && *max_rank > 0.0) {
        balanced = std::clamp(*total / (*ranks * *max_rank), 0.0, 1.0);
      }
      if (self_ps <= 0) {
        out->add(Bucket::kCompute, self_ps);
        return Bucket::kCompute;
      }
      // The stage's compute share is balanced * (self + compute children);
      // the children already booked their own picoseconds as kCompute, so
      // this slice owes only the difference. With no compute children this
      // is exactly balanced * self (the pre-kernel-span behavior).
      const Picos compute_ps = std::clamp<Picos>(
          std::llround(balanced * double(self_ps + compute_child_ps)) -
              compute_child_ps,
          0, self_ps);
      const Picos skew_ps = self_ps - compute_ps;
      out->add(Bucket::kCompute, compute_ps);
      out->add(Bucket::kSkew, skew_ps);
      return compute_ps >= skew_ps ? Bucket::kCompute : Bucket::kSkew;
    }
    case Category::kCheckpoint:
    case Category::kSteal:
      // Unreachable: forced_of already claimed these; keep the compiler's
      // exhaustiveness check and fall through to the residual bucket.
    case Category::kFrame:
    case Category::kIo:
    case Category::kComposite:
    case Category::kOther:
      break;
  }
  out->add(Bucket::kOther, self_ps);
  return Bucket::kOther;
}

/// Rank that bounds the span on the reconstructed timeline, or -1 for
/// collective phases no single rank bounds.
std::int64_t lane_rank(const Span& span) {
  const double* rank = find_arg(span, "straggler_rank");
  return rank != nullptr ? std::int64_t(std::llround(*rank)) : -1;
}

/// Shared subtree walk: self times, buckets, slices, lanes. `slices` and
/// `lanes` may be null (run-level attribution needs only the buckets).
Attribution attribute_subtree(const Tracer& tracer, Tracer::SpanId root,
                              std::vector<Slice>* slices,
                              std::vector<Lane>* lanes) {
  const auto& spans = tracer.spans();
  PVR_REQUIRE(root >= 0 && std::size_t(root) < spans.size(),
              "profile: span id out of range");
  const std::size_t n = spans.size();
  const std::size_t first = std::size_t(root);

  // Membership + forced activity, walkable in one pass because parents
  // always precede children in the span vector.
  std::vector<std::uint8_t> in_tree(n, 0);
  std::vector<Forced> forced(n, Forced::kNone);
  in_tree[first] = 1;
  forced[first] = forced_of(spans[first].cat, Forced::kNone);
  for (std::size_t i = first + 1; i < n; ++i) {
    const Span& s = spans[i];
    if (s.parent >= 0 && in_tree[std::size_t(s.parent)] != 0) {
      in_tree[i] = 1;
      forced[i] = forced_of(s.cat, forced[std::size_t(s.parent)]);
    }
  }

  // Children duration sums (picoseconds) for self-time extraction, plus
  // the kCompute-children sums the kRender split rule needs.
  std::vector<Picos> child_ps(n, 0);
  std::vector<Picos> compute_child_ps(n, 0);
  for (std::size_t i = first + 1; i < n; ++i) {
    if (in_tree[i] != 0 && spans[i].parent >= 0) {
      child_ps[std::size_t(spans[i].parent)] += span_ps(spans[i]);
      if (spans[i].cat == Category::kCompute &&
          forced[i] == Forced::kNone) {
        compute_child_ps[std::size_t(spans[i].parent)] += span_ps(spans[i]);
      }
    }
  }

  // Slowest member of each (parent, name) sibling group, for slack.
  std::map<std::pair<std::int32_t, std::string>, double> group_max;
  if (slices != nullptr) {
    for (std::size_t i = first; i < n; ++i) {
      if (in_tree[i] == 0) continue;
      auto& worst = group_max[{spans[i].parent, spans[i].name}];
      worst = std::max(worst, spans[i].seconds());
    }
  }

  std::map<std::pair<std::int64_t, Category>, Lane> lane_map;
  Attribution attribution;
  for (std::size_t i = first; i < n; ++i) {
    if (in_tree[i] == 0) continue;
    const Span& s = spans[i];
    const Picos self = span_ps(s) - child_ps[i];
    const Bucket bucket =
        attribute_slice(s, self, compute_child_ps[i], forced[i], &attribution);
    if (slices != nullptr && self != 0) {
      Slice slice;
      slice.span = std::int32_t(i);
      slice.self_ps = self;
      slice.slack_seconds =
          group_max[{s.parent, s.name}] - s.seconds();
      slice.bucket = bucket;
      slices->push_back(slice);
    }
    if (lanes != nullptr) {
      Lane& lane = lane_map[{lane_rank(s), s.cat}];
      lane.rank = lane_rank(s);
      lane.cat = s.cat;
      lane.spans.push_back(std::int32_t(i));
      lane.self_ps += self;
    }
  }
  if (lanes != nullptr) {
    lanes->reserve(lane_map.size());
    for (auto& [key, lane] : lane_map) lanes->push_back(std::move(lane));
  }
  return attribution;
}

}  // namespace

const char* to_string(Bucket bucket) {
  switch (bucket) {
    case Bucket::kStorage: return "storage";
    case Bucket::kTorusLink: return "torus_link";
    case Bucket::kCollective: return "collective";
    case Bucket::kCompute: return "compute";
    case Bucket::kSkew: return "skew";
    case Bucket::kFaultRecovery: return "fault_recovery";
    case Bucket::kCheckpoint: return "checkpoint";
    case Bucket::kSteal: return "steal";
    case Bucket::kOther: return "other";
  }
  return "other";
}

Picos to_picos(double seconds) {
  return std::llround(seconds * 1e12);
}

double to_seconds(Picos ps) { return double(ps) * 1e-12; }

FrameProfile analyze_frame(const obs::Tracer& tracer,
                           obs::Tracer::SpanId frame_span) {
  FrameProfile profile;
  profile.frame_span = frame_span;
  profile.attribution = attribute_subtree(tracer, frame_span,
                                          &profile.critical_path,
                                          &profile.lanes);
  const obs::Span& span = tracer.spans()[std::size_t(frame_span)];
  profile.frame_seconds = span.seconds();
  if (const double* reclaimed = find_arg(span, "overlap_reclaimed_seconds")) {
    profile.overlap_reclaimed_seconds = *reclaimed;
  }
  return profile;
}

Profile analyze(const obs::Tracer& tracer) {
  Profile profile;
  for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
    const obs::Span& s = tracer.spans()[i];
    if (s.parent != -1) continue;
    if (s.cat == obs::Category::kFrame) {
      profile.frames.push_back(
          analyze_frame(tracer, obs::Tracer::SpanId(i)));
      profile.run.add(profile.frames.back().attribution);
    } else {
      profile.run.add(attribute_subtree(tracer, obs::Tracer::SpanId(i),
                                        nullptr, nullptr));
    }
  }
  return profile;
}

std::string report(const obs::Tracer& tracer, const FrameProfile& profile,
                   int top_n) {
  PVR_REQUIRE(top_n > 0, "profile report needs top_n > 0");
  const auto& spans = tracer.spans();
  std::string out;

  TextTable buckets("Bottleneck attribution (buckets sum exactly to total)");
  buckets.set_header({"bucket", "seconds", "pct"});
  for (int b = 0; b < kNumBuckets; ++b) {
    const Bucket bucket = Bucket(b);
    if (profile.attribution.ps(bucket) == 0) continue;
    buckets.add_row({to_string(bucket),
                     fmt_f(profile.attribution.seconds(bucket), 6),
                     fmt_f(100.0 * profile.attribution.fraction(bucket), 1)});
  }
  buckets.add_row({"total", fmt_f(profile.attribution.total_seconds(), 6),
                   "100.0"});
  if (profile.overlap_reclaimed_seconds > 0.0) {
    // Async frames: skew reclaimed as overlap is outside the frame total
    // (the buckets sum to the *async* frame), but it stays on the books.
    buckets.add_row({"reclaimed_overlap",
                     fmt_f(profile.overlap_reclaimed_seconds, 6), "-"});
  }
  out += buckets.str();

  // Top slices by self time. Stable sort keeps timeline order among ties.
  std::vector<std::size_t> order(profile.critical_path.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return profile.critical_path[a].self_ps >
                            profile.critical_path[b].self_ps;
                   });
  TextTable path("Critical path (top self-time slices of " +
                 std::to_string(profile.critical_path.size()) + ")");
  path.set_header({"span", "bucket", "start_s", "self_s", "slack_s"});
  for (std::size_t i = 0;
       i < order.size() && i < std::size_t(top_n); ++i) {
    const Slice& slice = profile.critical_path[order[i]];
    const obs::Span& s = spans[std::size_t(slice.span)];
    path.add_row({s.name, to_string(slice.bucket), fmt_f(s.start, 6),
                  fmt_f(to_seconds(slice.self_ps), 6),
                  fmt_f(slice.slack_seconds, 6)});
  }
  // += in two steps: the `"literal" + std::string&&` concatenation trips
  // a GCC 12 -Wrestrict false positive at some -march levels.
  out += '\n';
  out += path.str();

  TextTable lanes("Timeline lanes (rank -1 = global)");
  lanes.set_header({"rank", "category", "spans", "seconds"});
  for (const Lane& lane : profile.lanes) {
    lanes.add_row({std::to_string(lane.rank), obs::to_string(lane.cat),
                   std::to_string(lane.spans.size()),
                   fmt_f(lane.seconds(), 6)});
  }
  out += '\n';
  out += lanes.str();
  return out;
}

std::string to_json(const obs::Tracer& tracer, const FrameProfile& profile) {
  const auto& spans = tracer.spans();
  std::string out = "{\n";
  out += "  \"frame_seconds\": " + fmt_double(profile.frame_seconds) + ",\n";
  out += "  \"overlap_reclaimed_seconds\": " +
         fmt_double(profile.overlap_reclaimed_seconds) + ",\n";
  out += "  \"critical_path_seconds\": " +
         fmt_double(profile.critical_seconds()) + ",\n";
  out += "  \"buckets\": {";
  for (int b = 0; b < kNumBuckets; ++b) {
    out += b > 0 ? ",\n    " : "\n    ";
    out += std::string("\"") + to_string(Bucket(b)) +
           "\": " + fmt_double(profile.attribution.seconds(Bucket(b)));
  }
  out += "\n  },\n  \"lanes\": [";
  for (std::size_t i = 0; i < profile.lanes.size(); ++i) {
    const Lane& lane = profile.lanes[i];
    out += i > 0 ? ",\n    " : "\n    ";
    out += "{\"rank\": " + std::to_string(lane.rank) + ", \"cat\": \"" +
           obs::to_string(lane.cat) +
           "\", \"spans\": " + std::to_string(lane.spans.size()) +
           ", \"seconds\": " + fmt_double(lane.seconds()) + "}";
  }
  out += profile.lanes.empty() ? "],\n" : "\n  ],\n";
  out += "  \"critical_path\": [";
  for (std::size_t i = 0; i < profile.critical_path.size(); ++i) {
    const Slice& slice = profile.critical_path[i];
    const obs::Span& s = spans[std::size_t(slice.span)];
    out += i > 0 ? ",\n    " : "\n    ";
    out += "{\"span\": " + std::to_string(slice.span) + ", \"name\": \"" +
           obs::json_escape(s.name) + "\", \"bucket\": \"" +
           to_string(slice.bucket) + "\", \"start\": " + fmt_double(s.start) +
           ", \"self\": " + fmt_double(to_seconds(slice.self_ps)) +
           ", \"slack\": " + fmt_double(slice.slack_seconds) + "}";
  }
  out += profile.critical_path.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

}  // namespace pvr::profile
