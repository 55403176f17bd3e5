// Barrier-free schedule of one modeled frame: the alternative to the
// superstep (BSP) schedule (DESIGN.md §9).
//
// The BSP runtime charges every stage at the slowest rank's pace: each stage
// is a global barrier, so a straggling renderer stalls compositors whose
// inputs arrived long ago. The Distributed FrameBuffer line of work (Usher
// et al., PAPERS.md) shows the cure: let readiness flow with the messages —
// a tile composites as soon as *its* producers finish, not when the whole
// machine does. In modeled time an async frame has one shape: a gate on the
// shared machine lane (the collective read, then the steal phase), one
// render per live rank on that rank's serial lane, and one composite per
// compositor rank, which waits for the renders of its source ranks. A rank's
// lane thus holds at most its render and then its composite, so every start
// and finish follows in closed form, with the expressions and tie rules of
// a deterministic event-driven scheduler over the same graph (that
// scheduler survives in tests/async_test.cpp as the oracle):
//
//   * Gate: G = (0 + io) + steal, either term absent with its phase.
//   * Render r finishes at G + render_r.
//   * Composite c is ready at the max of its sources' finishes, starts at
//     max(ready, finish of render c) — max(ready, 0) when c does not
//     render — and finishes at start + (exchange + blend_c).
//   * The last task is the first maximum finish in task order: the gate,
//     then renders by rank, then composites by rank.
//   * The critical path walks back from the last task: a composite that
//     waited for its lane (start > ready) binds to its own render, any other
//     to the lowest source rank whose finish equals its start; a start of
//     exactly 0 ends the walk.
//   * Lane waits (start - ready) sum over compositors in ascending start,
//     then ascending rank: the order the event scheduler starts them in.
//
// Exactness: times are doubles combined only by addition and max, both
// monotone, so the path's links are gap-free and its durations telescope to
// the frame's last finish. No host clock, thread count or unordered
// container touches the result: schedules are bit-identical across
// PVR_THREADS (DESIGN.md §8).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace pvr::runtime {

/// How core::ParallelVolumeRenderer schedules a modeled frame.
enum class RuntimeMode {
  kBsp,  ///< superstep: every stage is a global barrier (the paper's model)
  /// Barrier-free schedule with true data dependencies only: a compositor
  /// waits for its source renderers, not for the global straggler.
  kAsync,
};

/// Dependency shape of an async frame. kFree is the only shape; the enum
/// remains because core::ExperimentConfig::dependency still names it.
enum class DependencyMode {
  kFree,
};

/// One async frame's stage inputs in modeled seconds, indexed by rank.
struct AsyncFrameInputs {
  bool has_io = false;
  double io_seconds = 0.0;
  bool has_steal = false;
  double steal_seconds = 0.0;
  std::vector<double> render_seconds;  ///< per rank (imbalance included)
  std::vector<char> live;              ///< rank r renders iff live[r]
  double exchange_seconds = 0.0;       ///< per-compositor exchange term
  std::vector<double> blend_seconds;   ///< per dst rank
};

/// What the frame fold reads of the schedule.
struct AsyncFrameSchedule {
  std::int64_t tasks = 0;  ///< gate phases + renders + composites
  std::int64_t edges = 0;  ///< dependencies between them
  /// The critical path's render and composite: seconds and rank, or 0 and
  /// -1 when the path holds none.
  double render_seconds = 0.0;
  std::int64_t render_rank = -1;
  double composite_seconds = 0.0;
  std::int64_t composite_rank = -1;
  /// Sum over compositors of (start - ready): time a ready composite waited
  /// for its own rank's render. A dependency wait is not in here.
  double lane_wait_seconds = 0.0;
};

/// Schedules the frame. `sources[c]` lists the ranks whose renders
/// compositor c waits for (compose::DirectSendDetail::sources: sorted, live
/// ranks only); a rank with none composites nothing.
AsyncFrameSchedule schedule_async_frame(
    const AsyncFrameInputs& in,
    std::span<const std::vector<std::int64_t>> sources);

/// Per-frame async-runtime accounting embedded in core::FrameStats.
/// Disabled (all zero) for BSP frames. `bsp_seconds` is the same frame
/// priced with barriers; `reclaimed_seconds` = bsp - async is the skew the
/// schedule turned into overlap — kept on the books (frame span arg
/// `overlap_reclaimed_seconds`, profile::FrameProfile) rather than silently
/// vanishing.
struct OverlapStats {
  bool enabled = false;
  std::int64_t tasks = 0;
  std::int64_t edges = 0;
  double bsp_seconds = 0.0;
  double reclaimed_seconds = 0.0;
  double lane_wait_seconds = 0.0;
  /// Cross-frame read-ahead (model_run): seconds of frame t+1's storage
  /// fetch hidden under frame t's compositing tail. Included in
  /// reclaimed_seconds.
  double readahead_seconds = 0.0;
};

}  // namespace pvr::runtime
