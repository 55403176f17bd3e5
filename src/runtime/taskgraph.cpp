#include "runtime/taskgraph.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace pvr::runtime {

const char* to_string(RuntimeMode mode) {
  switch (mode) {
    case RuntimeMode::kBsp: return "bsp";
    case RuntimeMode::kAsync: return "async";
  }
  return "bsp";
}

TaskGraph::TaskGraph(std::int64_t num_lanes) : num_lanes_(num_lanes) {
  PVR_REQUIRE(num_lanes >= 0, "task graph lane count cannot be negative");
}

void TaskGraph::reserve(std::int64_t tasks, std::int64_t edges) {
  nodes_.reserve(std::size_t(tasks));
  dep_begin_.reserve(std::size_t(tasks) + 1);
  deps_.reserve(std::size_t(edges));
}

TaskId TaskGraph::add(std::int64_t lane, double seconds, std::int32_t tag,
                      std::span<const TaskId> deps) {
  PVR_REQUIRE(lane >= -1 && lane < num_lanes_,
              "task lane out of range (use -1 for the shared lane)");
  PVR_REQUIRE(seconds >= 0.0, "task duration cannot be negative");
  const TaskId id = TaskId(nodes_.size());
  for (const TaskId dep : deps) {
    PVR_REQUIRE(dep >= 0 && dep < id,
                "task dependencies must reference already-added tasks");
  }
  deps_.insert(deps_.end(), deps.begin(), deps.end());
  dep_begin_.push_back(std::int64_t(deps_.size()));
  nodes_.push_back(Node{lane, seconds, tag});
  return id;
}

Task TaskGraph::task(TaskId id) const {
  PVR_REQUIRE(id >= 0 && std::size_t(id) < nodes_.size(),
              "task id out of range");
  const Node& t = nodes_[std::size_t(id)];
  return Task{t.lane, t.seconds, t.tag, deps_of(std::size_t(id))};
}

namespace {

/// Completion event: ordered by (modeled time, lane rank, sequence number)
/// — the total order the whole runtime's determinism rests on.
struct Event {
  double time = 0.0;
  std::int64_t lane = -1;
  std::int64_t seq = 0;
  TaskId task = -1;
};

struct EventOrder {  // min-heap
  bool operator()(const Event& a, const Event& b) const {
    if (a.time != b.time) return a.time > b.time;
    if (a.lane != b.lane) return a.lane > b.lane;
    return a.seq > b.seq;
  }
};

/// Pending (ready, unstarted) task on one lane: smallest (ready, id) first.
struct Pending {
  double ready = 0.0;
  TaskId task = -1;
};

struct PendingOrder {  // min-heap
  bool operator()(const Pending& a, const Pending& b) const {
    if (a.ready != b.ready) return a.ready > b.ready;
    return a.task > b.task;
  }
};

/// One serial lane: its occupancy and its pending heap, a slice of one
/// array shared by every lane (a lane never holds more pending tasks than
/// the graph puts on it).
struct Lane {
  std::int64_t heap_begin = 0;  ///< first slot of the lane's heap
  std::int64_t pending = 0;     ///< heap size
  double free_at = 0.0;
  TaskId last = -1;  ///< last task started here, for critical-path links
  bool busy = false;
  bool touched = false;  ///< already listed by the current drain
};

}  // namespace

TaskSchedule TaskGraph::run() const {
  TaskSchedule sched;
  const std::size_t n = nodes_.size();
  sched.times.assign(n, TaskTimes{});
  if (n == 0) return sched;

  // Dependents in compressed rows: task d's are
  // dependents[row[d], row[d + 1]), in ascending id. Counting into
  // row[d + 2] and filling through row[d + 1] leaves row[d] at the start of
  // d's row without a separate cursor array.
  std::vector<std::int64_t> row(n + 2, 0);
  for (const TaskId dep : deps_) ++row[std::size_t(dep) + 2];
  for (std::size_t i = 2; i < row.size(); ++i) row[i] += row[i - 1];
  std::vector<TaskId> dependents(deps_.size());
  std::vector<std::int32_t> indegree(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::span<const TaskId> deps = deps_of(i);
    indegree[i] = std::int32_t(deps.size());
    for (const TaskId dep : deps) {
      dependents[std::size_t(row[std::size_t(dep) + 1]++)] = TaskId(i);
    }
  }

  // Lane slot 0 is the shared lane (-1); rank r maps to slot r + 1.
  const std::size_t lanes = std::size_t(num_lanes_) + 1;
  const auto slot = [this](TaskId id) {
    return std::size_t(nodes_[std::size_t(id)].lane + 1);
  };
  std::vector<Lane> lane(lanes);
  for (const Node& t : nodes_) ++lane[std::size_t(t.lane + 1)].pending;
  for (std::int64_t begin = 0; Lane& l : lane) {
    l.heap_begin = begin;
    begin += l.pending;
    l.pending = 0;
  }
  std::vector<Pending> heap(n);
  const auto push_pending = [&](std::size_t l, Pending p) {
    Pending* first = heap.data() + lane[l].heap_begin;
    first[lane[l].pending++] = p;
    std::push_heap(first, first + lane[l].pending, PendingOrder{});
  };
  std::vector<TaskId> lane_pred(n, -1);

  // A busy lane has exactly one completion in flight.
  std::vector<Event> events;
  events.reserve(std::min(lanes, n));
  std::int64_t seq = 0;
  std::int64_t completed = 0;

  // Starts the lane's smallest (ready, id) pending task if it is idle.
  const auto start_next = [&](std::size_t l) {
    Lane& ln = lane[l];
    if (ln.busy || ln.pending == 0) return;
    Pending* first = heap.data() + ln.heap_begin;
    std::pop_heap(first, first + ln.pending, PendingOrder{});
    const Pending p = first[--ln.pending];
    const Node& t = nodes_[std::size_t(p.task)];
    TaskTimes& tt = sched.times[std::size_t(p.task)];
    tt.ready = p.ready;
    tt.start = std::max(p.ready, ln.free_at);
    tt.finish = tt.start + t.seconds;
    ln.busy = true;
    lane_pred[std::size_t(p.task)] = ln.last;
    ln.last = p.task;
    sched.busy_seconds += t.seconds;
    sched.lane_wait_seconds += tt.start - tt.ready;
    events.push_back(Event{tt.finish, t.lane, seq++, p.task});
    std::push_heap(events.begin(), events.end(), EventOrder{});
  };

  for (std::size_t i = 0; i < n; ++i) {
    if (indegree[i] == 0) {
      push_pending(slot(TaskId(i)), Pending{0.0, TaskId(i)});
    }
  }
  for (std::size_t l = 0; l < lanes; ++l) start_next(l);

  // Lanes the current drain touched: each finished a task or received a
  // ready one. Every other lane is still busy or has nothing pending, so
  // only these can start work, and visiting them in ascending order starts
  // tasks in the order a scan of every lane would.
  std::vector<std::size_t> touched;
  touched.reserve(lanes);
  const auto touch = [&](std::size_t l) {
    if (!lane[l].touched) {
      lane[l].touched = true;
      touched.push_back(l);
    }
  };
  while (!events.empty()) {
    // Drain *every* event at this timestamp before idle lanes choose their
    // next task, so the choice is min (ready, id) over all tasks ready by
    // now — independent of the order same-time completions popped in.
    const double now = events.front().time;
    while (!events.empty() && events.front().time == now) {
      std::pop_heap(events.begin(), events.end(), EventOrder{});
      const Event ev = events.back();
      events.pop_back();
      ++completed;
      const std::size_t l = slot(ev.task);
      lane[l].busy = false;
      lane[l].free_at = ev.time;
      touch(l);
      const std::size_t t = std::size_t(ev.task);
      for (std::int64_t k = row[t]; k < row[t + 1]; ++k) {
        const TaskId d = dependents[std::size_t(k)];
        if (--indegree[std::size_t(d)] == 0) {
          // Events drain in time order, so this dependency is the last to
          // finish: its finish time is the dependent's ready time (the max
          // over deps, bitwise — all other deps finished at or before now).
          push_pending(slot(d), Pending{ev.time, d});
          touch(slot(d));
        }
      }
    }
    std::sort(touched.begin(), touched.end());
    for (const std::size_t l : touched) {
      lane[l].touched = false;
      start_next(l);
    }
    touched.clear();
  }
  PVR_REQUIRE(completed == std::int64_t(n),
              "task graph deadlocked: unreachable dependencies");

  for (std::size_t i = 0; i < n; ++i) {
    const TaskTimes& tt = sched.times[i];
    if (sched.last_task < 0 ||
        tt.finish > sched.times[std::size_t(sched.last_task)].finish) {
      sched.makespan = tt.finish;
      sched.last_task = TaskId(i);
    }
  }

  // Binding-predecessor walk: from last_task back to a time-zero start,
  // each step choosing a predecessor whose finish equals this start
  // bitwise. A lane-bound task (start > ready) binds to the task that held
  // its lane; a dependency-bound task binds to its last-finishing dep
  // (lowest id on ties — matches every straggler tie-break in the model).
  std::vector<TaskId> chain;
  TaskId cur = sched.last_task;
  while (cur >= 0) {
    chain.push_back(cur);
    const TaskTimes& tt = sched.times[std::size_t(cur)];
    if (tt.start == 0.0) break;
    TaskId next = -1;
    if (tt.start > tt.ready) {
      next = lane_pred[std::size_t(cur)];
      PVR_ASSERT(next >= 0 &&
                 sched.times[std::size_t(next)].finish == tt.start);
    } else {
      for (const TaskId dep : deps_of(std::size_t(cur))) {
        if (sched.times[std::size_t(dep)].finish == tt.start &&
            (next < 0 || dep < next)) {
          next = dep;  // lowest id wins
        }
      }
      PVR_ASSERT(next >= 0);
    }
    cur = next;
  }
  std::reverse(chain.begin(), chain.end());
  sched.critical_path = std::move(chain);
  return sched;
}

}  // namespace pvr::runtime
