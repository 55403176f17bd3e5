// Deterministic event-driven task graph: the barrier-free alternative to the
// superstep (BSP) schedule (DESIGN.md §9).
//
// The BSP runtime charges every stage at the slowest rank's pace: each stage
// is a global barrier, so a straggling renderer stalls compositors whose
// inputs arrived long ago. The Distributed FrameBuffer line of work (Usher
// et al., PAPERS.md) shows the cure: let readiness flow with the messages —
// a tile composites as soon as *its* producers finish, not when the whole
// machine does. This module is that scheduler in modeled time: a frame (or
// any priced workload) becomes a DAG of tasks with durations, each task runs
// on one serial lane (its executing rank, or the shared lane -1 for
// machine-wide collectives), and waiting is charged only where a true
// dependency — or the lane's own serial occupancy — forces it.
//
// Determinism contract: the schedule is a pure function of the graph. The
// event queue is totally ordered by (modeled completion time, lane rank,
// sequence number); at equal times, events drain fully before idle lanes
// pick their next task, and a lane always picks the pending task with the
// smallest (ready time, task id). No host clock, no thread count, no
// iteration over unordered containers touches the result, so schedules are
// bit-identical across PVR_THREADS — the same contract every other module
// honours (DESIGN.md §8).
//
// Exactness: task times are doubles of simulated seconds, combined only by
// addition and max — both monotone — so a graph whose dependency edges
// reproduce the BSP barriers yields *bitwise* the BSP stage times (the
// barrier-chained oracle in tests/async_test.cpp checks exactly that).
// The critical path is a chain of binding predecessors from time zero to the
// last finish, each link gap-free (predecessor finish == successor start),
// so chain durations telescope to the makespan and segment sums by tag give
// an exact stage decomposition of the barrier-free frame.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

namespace pvr::runtime {

/// How core::ParallelVolumeRenderer schedules a modeled frame.
enum class RuntimeMode {
  kBsp,  ///< superstep: every stage is a global barrier (the paper's model)
  /// Event-driven task graph with true data dependencies only: a compositor
  /// waits for its source renderers, not for the global straggler.
  kAsync,
};

/// Dependency shape of an async frame. kFree is the only shape; the enum
/// remains because core::ExperimentConfig::dependency still names it.
enum class DependencyMode {
  kFree,
};

const char* to_string(RuntimeMode mode);

using TaskId = std::int32_t;

/// One node of the graph: `seconds` of work on serial lane `lane` (an
/// executing rank, or -1 for the shared machine lane used by collective
/// phases), runnable once every task in `deps` has finished. `tag` is a
/// caller-defined classification (e.g. pipeline stage) used to segment the
/// critical path; the scheduler never reads it. TaskGraph::task returns
/// this by value; `deps` views the graph's flat edge array and stays valid
/// until the next add().
struct Task {
  std::int64_t lane = -1;
  double seconds = 0.0;
  std::int32_t tag = 0;
  std::span<const TaskId> deps;
};

/// Scheduled interval of one task. `ready` is the max dependency finish
/// (0 with no deps); `start >= ready` when the lane was still busy.
struct TaskTimes {
  double ready = 0.0;
  double start = 0.0;
  double finish = 0.0;
};

struct TaskSchedule {
  std::vector<TaskTimes> times;  ///< indexed by TaskId
  double makespan = 0.0;         ///< max finish over all tasks; 0 when empty
  TaskId last_task = -1;         ///< max finish, lowest id on ties
  double busy_seconds = 0.0;     ///< sum of task durations (work, not span)
  /// Sum over tasks of (start - ready): time spent ready but waiting for a
  /// busy lane. Dependency waits are *not* in here — under this scheduler a
  /// task never waits on anything but its true deps and its lane.
  double lane_wait_seconds = 0.0;
  /// Binding-predecessor chain from a task that starts at time zero to
  /// `last_task`, in execution order. Each link is gap-free: the
  /// predecessor's finish equals the successor's start bitwise (either a
  /// dependency that made it ready or the previous task on its lane), so
  /// the chain's durations telescope exactly to the makespan.
  std::vector<TaskId> critical_path;
};

/// Append-only DAG builder + deterministic scheduler. Dependencies must
/// point at already-added tasks (ids are issued in add order), which makes
/// cycles unrepresentable by construction. Tasks and their dependency lists
/// live in flat arrays (one offset per task into one edge array), so adding
/// a task allocates nothing once reserve() has sized the graph.
class TaskGraph {
 public:
  /// `num_lanes` ranks, each a serial processor, plus the shared lane -1.
  explicit TaskGraph(std::int64_t num_lanes);

  /// Room for `tasks` tasks with `edges` dependencies in all.
  void reserve(std::int64_t tasks, std::int64_t edges);

  /// `deps` is copied; it must not view this graph's own edges.
  TaskId add(std::int64_t lane, double seconds, std::int32_t tag,
             std::span<const TaskId> deps);
  TaskId add(std::int64_t lane, double seconds, std::int32_t tag,
             std::initializer_list<TaskId> deps) {
    return add(lane, seconds, tag,
               std::span<const TaskId>(deps.begin(), deps.size()));
  }

  std::int64_t num_tasks() const { return std::int64_t(nodes_.size()); }
  std::int64_t num_edges() const { return std::int64_t(deps_.size()); }
  Task task(TaskId id) const;

  /// Runs the graph to completion. Pure: same graph, same schedule, no
  /// internal state mutated (add() may be called again afterwards).
  TaskSchedule run() const;

 private:
  struct Node {
    std::int64_t lane = -1;
    double seconds = 0.0;
    std::int32_t tag = 0;
  };
  std::span<const TaskId> deps_of(std::size_t id) const {
    return std::span<const TaskId>(deps_).subspan(
        std::size_t(dep_begin_[id]),
        std::size_t(dep_begin_[id + 1] - dep_begin_[id]));
  }

  std::int64_t num_lanes_ = 0;
  std::vector<Node> nodes_;
  /// Task i's dependencies are deps_[dep_begin_[i], dep_begin_[i + 1]).
  std::vector<std::int64_t> dep_begin_{0};
  std::vector<TaskId> deps_;
};

/// Per-frame async-runtime accounting embedded in core::FrameStats.
/// Disabled (all zero) for BSP frames. `bsp_seconds` is the same frame
/// priced with barriers; `reclaimed_seconds` = bsp - async is the skew the
/// task graph turned into overlap — kept on the books (frame span arg
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
