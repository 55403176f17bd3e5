#include "runtime/taskgraph.hpp"

#include <algorithm>
#include <queue>

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

TaskId TaskGraph::add(std::string name, std::int64_t lane, double seconds,
                      std::int32_t tag, std::vector<TaskId> deps) {
  PVR_REQUIRE(lane >= -1 && lane < num_lanes_,
              "task lane out of range (use -1 for the shared lane)");
  PVR_REQUIRE(seconds >= 0.0, "task duration cannot be negative");
  const TaskId id = TaskId(tasks_.size());
  for (const TaskId dep : deps) {
    PVR_REQUIRE(dep >= 0 && dep < id,
                "task dependencies must reference already-added tasks");
  }
  num_edges_ += std::int64_t(deps.size());
  tasks_.push_back(Task{std::move(name), lane, seconds, tag, std::move(deps)});
  return id;
}

const Task& TaskGraph::task(TaskId id) const {
  PVR_REQUIRE(id >= 0 && std::size_t(id) < tasks_.size(),
              "task id out of range");
  return tasks_[std::size_t(id)];
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

}  // namespace

TaskSchedule TaskGraph::run() const {
  TaskSchedule sched;
  const std::size_t n = tasks_.size();
  sched.times.assign(n, TaskTimes{});
  if (n == 0) return sched;

  // Dependents adjacency + indegrees (deps reference earlier ids only).
  std::vector<std::vector<TaskId>> dependents(n);
  std::vector<std::int32_t> indegree(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    indegree[i] = std::int32_t(tasks_[i].deps.size());
    for (const TaskId dep : tasks_[i].deps) {
      dependents[std::size_t(dep)].push_back(TaskId(i));
    }
  }

  // Lane slot 0 is the shared lane (-1); rank r maps to slot r + 1.
  const std::size_t lanes = std::size_t(num_lanes_) + 1;
  const auto slot = [](std::int64_t lane) { return std::size_t(lane + 1); };
  std::vector<char> busy(lanes, 0);
  std::vector<double> free_at(lanes, 0.0);
  std::vector<std::priority_queue<Pending, std::vector<Pending>,
                                  PendingOrder>>
      pending(lanes);
  // The last task started on each lane, for critical-path lane links.
  std::vector<TaskId> lane_last(lanes, -1);
  std::vector<TaskId> lane_pred(n, -1);

  std::priority_queue<Event, std::vector<Event>, EventOrder> events;
  std::int64_t seq = 0;
  std::int64_t completed = 0;

  const auto start_task = [&](std::size_t l, const Pending& p) {
    const Task& t = tasks_[std::size_t(p.task)];
    TaskTimes& tt = sched.times[std::size_t(p.task)];
    tt.ready = p.ready;
    tt.start = std::max(p.ready, free_at[l]);
    tt.finish = tt.start + t.seconds;
    busy[l] = 1;
    lane_pred[std::size_t(p.task)] = lane_last[l];
    lane_last[l] = p.task;
    sched.busy_seconds += t.seconds;
    sched.lane_wait_seconds += tt.start - tt.ready;
    events.push(Event{tt.finish, t.lane, seq++, p.task});
  };

  for (std::size_t i = 0; i < n; ++i) {
    if (indegree[i] == 0) {
      pending[slot(tasks_[i].lane)].push(Pending{0.0, TaskId(i)});
    }
  }
  for (std::size_t l = 0; l < lanes; ++l) {
    if (!pending[l].empty()) {
      const Pending p = pending[l].top();
      pending[l].pop();
      start_task(l, p);
    }
  }

  // Lanes the current drain touched: each finished a task or received a
  // ready one. Every other lane is still busy or has nothing pending, so
  // only these can start work, and visiting them in ascending order starts
  // tasks in the order a scan of every lane would.
  std::vector<std::size_t> touched;
  while (!events.empty()) {
    // Drain *every* event at this timestamp before idle lanes choose their
    // next task, so the choice is min (ready, id) over all tasks ready by
    // now — independent of the order same-time completions popped in.
    const double now = events.top().time;
    while (!events.empty() && events.top().time == now) {
      const Event ev = events.top();
      events.pop();
      ++completed;
      const std::size_t l = slot(tasks_[std::size_t(ev.task)].lane);
      busy[l] = 0;
      free_at[l] = ev.time;
      touched.push_back(l);
      for (const TaskId d : dependents[std::size_t(ev.task)]) {
        if (--indegree[std::size_t(d)] == 0) {
          // Events drain in time order, so this dependency is the last to
          // finish: its finish time is the dependent's ready time (the max
          // over deps, bitwise — all other deps finished at or before now).
          const std::size_t dl = slot(tasks_[std::size_t(d)].lane);
          pending[dl].push(Pending{ev.time, d});
          touched.push_back(dl);
        }
      }
    }
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
    for (const std::size_t l : touched) {
      if (!busy[l] && !pending[l].empty()) {
        const Pending p = pending[l].top();
        pending[l].pop();
        start_task(l, p);
      }
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
      for (const TaskId dep : tasks_[std::size_t(cur)].deps) {
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
