#include "runtime/async_frame.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace pvr::runtime {

namespace {

/// A composite that was ready before its rank's render freed the lane.
struct LaneWait {
  double start = 0.0;
  std::int64_t rank = -1;
  double seconds = 0.0;  ///< start - ready
};

}  // namespace

AsyncFrameSchedule schedule_async_frame(
    const AsyncFrameInputs& in,
    std::span<const std::vector<std::int64_t>> sources) {
  const auto ranks = std::int64_t(sources.size());
  PVR_REQUIRE(std::int64_t(in.render_seconds.size()) == ranks &&
                  std::int64_t(in.live.size()) == ranks &&
                  std::int64_t(in.blend_seconds.size()) == ranks,
              "async frame inputs need one entry per rank");
  const auto non_negative = [](double s) { return s >= 0.0; };
  PVR_REQUIRE(non_negative(in.io_seconds) && non_negative(in.steal_seconds) &&
                  non_negative(in.exchange_seconds) &&
                  std::all_of(in.render_seconds.begin(),
                              in.render_seconds.end(), non_negative) &&
                  std::all_of(in.blend_seconds.begin(),
                              in.blend_seconds.end(), non_negative),
              "async task durations cannot be negative");
  AsyncFrameSchedule out;
  const bool gated = in.has_io || in.has_steal;
  out.tasks = (in.has_io ? 1 : 0) + (in.has_steal ? 1 : 0);
  out.edges = in.has_io && in.has_steal ? 1 : 0;

  // The gate's phases run back to back from time 0 on the shared lane.
  // Every render is ready when the gate finishes (at 0 without one) and
  // starts then: its lane is idle.
  double gate = 0.0;
  if (in.has_io) gate = gate + in.io_seconds;
  if (in.has_steal) gate = gate + in.steal_seconds;
  const auto render_finish = [&](std::int64_t r) {
    return gate + in.render_seconds[std::size_t(r)];
  };

  // The last task is the first maximum finish in task order.
  enum class Kind { kNone, kGate, kRender, kComposite };
  Kind last = gated ? Kind::kGate : Kind::kNone;
  double last_finish = gate;
  std::int64_t last_rank = -1;
  const auto finishes_last = [&](double finish) {
    return last == Kind::kNone || finish > last_finish;
  };
  for (std::int64_t r = 0; r < ranks; ++r) {
    if (!in.live[std::size_t(r)]) continue;
    ++out.tasks;
    if (gated) ++out.edges;
    const double finish = render_finish(r);
    if (finishes_last(finish)) {
      last = Kind::kRender;
      last_finish = finish;
      last_rank = r;
    }
  }

  // A composite waits for its latest source, then for its own lane, which
  // its rank's render holds until it finishes.
  double last_start = 0.0;
  double last_ready = 0.0;
  std::vector<LaneWait> waits;
  for (std::int64_t c = 0; c < ranks; ++c) {
    const std::vector<std::int64_t>& srcs = sources[std::size_t(c)];
    if (srcs.empty()) continue;
    ++out.tasks;
    out.edges += std::int64_t(srcs.size());
    double ready = 0.0;
    for (std::size_t k = 0; k < srcs.size(); ++k) {
      // Dead renderers were filtered from the message set, so every source
      // of a delivered fragment renders.
      PVR_ASSERT(in.live[std::size_t(srcs[k])]);
      const double finish = render_finish(srcs[k]);
      ready = k == 0 ? finish : std::max(ready, finish);
    }
    const double lane_free = in.live[std::size_t(c)] ? render_finish(c) : 0.0;
    const double start = std::max(ready, lane_free);
    if (start > ready) waits.push_back(LaneWait{start, c, start - ready});
    const double finish =
        start + (in.exchange_seconds + in.blend_seconds[std::size_t(c)]);
    if (finishes_last(finish)) {
      last = Kind::kComposite;
      last_finish = finish;
      last_rank = c;
      last_start = start;
      last_ready = ready;
    }
  }

  // The critical path back from the last task. Renders start when the gate
  // finishes, so the path holds at most one render and one composite.
  std::int64_t render_rank = last == Kind::kRender ? last_rank : -1;
  if (last == Kind::kComposite) {
    out.composite_rank = last_rank;
    out.composite_seconds +=
        in.exchange_seconds + in.blend_seconds[std::size_t(last_rank)];
    if (last_start > last_ready) {
      render_rank = last_rank;  // bound by its lane: its own render
    } else if (last_start != 0.0) {
      for (const std::int64_t s : sources[std::size_t(last_rank)]) {
        if (render_finish(s) == last_start &&
            (render_rank < 0 || s < render_rank)) {
          render_rank = s;  // the lowest source that made it ready
        }
      }
    }
  }
  if (render_rank >= 0) {
    out.render_rank = render_rank;
    out.render_seconds += in.render_seconds[std::size_t(render_rank)];
  }

  std::sort(waits.begin(), waits.end(),
            [](const LaneWait& a, const LaneWait& b) {
              return a.start != b.start ? a.start < b.start : a.rank < b.rank;
            });
  for (const LaneWait& w : waits) out.lane_wait_seconds += w.seconds;
  return out;
}

}  // namespace pvr::runtime
