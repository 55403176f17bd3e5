// Async runtime (DESIGN.md §9). The event-driven scheduler lives here as
// the oracle: the closed-form schedule must match it bitwise on random
// frames of the async shape and on the free graph of real frames rebuilt
// from their public inputs; the barrier-chained oracle (a BSP frame's
// public stage inputs scheduled with barrier edges) reproduces BSP stage
// seconds bitwise across healthy/faulty/stealing/in-situ frames and host
// thread counts. Also: free-mode overlap reclamation with exact
// bookkeeping, the overlapped-exchange skew attribution regression,
// model_run read-ahead, tracer reattachment after a throwing frame, the
// pinned free-mode span structure, and the mixed-mode scaling
// decomposition clamp.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <queue>
#include <span>
#include <string>
#include <vector>

#include "compose/direct_send.hpp"
#include "core/pipeline.hpp"
#include "data/synthetic.hpp"
#include "fault/fault_plan.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "profile/diff.hpp"
#include "profile/json.hpp"
#include "profile/profile.hpp"
#include "runtime/async_frame.hpp"
#include "steal/steal.hpp"
#include "util/rng.hpp"

namespace pvr {
namespace {

core::ExperimentConfig small_config(std::int64_t ranks = 64) {
  core::ExperimentConfig cfg;
  cfg.num_ranks = ranks;
  cfg.dataset = format::supernova_desc(format::FileFormat::kRaw, 64);
  cfg.variable = cfg.dataset.variables.front();
  cfg.image_width = cfg.image_height = 128;
  return cfg;
}

core::ExperimentConfig async_config(std::int64_t ranks = 64) {
  auto cfg = small_config(ranks);
  cfg.runtime_mode = runtime::RuntimeMode::kAsync;
  return cfg;
}

/// Degrades rank 0's hosting node by `factor` (all other ranks healthy).
fault::FaultPlan degrade_rank0(const machine::Partition& part,
                               double factor) {
  fault::FaultPlan plan;
  plan.degrade_node(part.node_of_rank(0), factor);
  return plan;
}

void expect_same_exchange(const net::ExchangeCost& a,
                          const net::ExchangeCost& b) {
  EXPECT_EQ(a.seconds, b.seconds);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.local_messages, b.local_messages);
  EXPECT_EQ(a.total_bytes, b.total_bytes);
  EXPECT_EQ(a.max_hops, b.max_hops);
  EXPECT_EQ(a.link_seconds, b.link_seconds);
  EXPECT_EQ(a.endpoint_seconds, b.endpoint_seconds);
  EXPECT_EQ(a.latency_seconds, b.latency_seconds);
  EXPECT_EQ(a.skew_seconds, b.skew_seconds);
  EXPECT_EQ(a.retry_seconds, b.retry_seconds);
}

/// Exact (bitwise) equality of two frames' stage seconds, per-stage results,
/// steal and fault accounting, and trace summary.
void expect_same_frame(const core::FrameStats& a, const core::FrameStats& b) {
  EXPECT_EQ(a.io_seconds, b.io_seconds);
  EXPECT_EQ(a.render_seconds, b.render_seconds);
  EXPECT_EQ(a.composite_seconds, b.composite_seconds);
  EXPECT_EQ(a.io.seconds, b.io.seconds);
  EXPECT_EQ(a.io.useful_bytes, b.io.useful_bytes);
  EXPECT_EQ(a.io.physical_bytes, b.io.physical_bytes);
  EXPECT_EQ(a.render.seconds, b.render.seconds);
  EXPECT_EQ(a.render.total_samples, b.render.total_samples);
  EXPECT_EQ(a.render.max_rank_samples, b.render.max_rank_samples);
  EXPECT_EQ(a.composite.seconds, b.composite.seconds);
  EXPECT_EQ(a.composite.blend_seconds, b.composite.blend_seconds);
  EXPECT_EQ(a.composite.num_compositors, b.composite.num_compositors);
  EXPECT_EQ(a.composite.messages, b.composite.messages);
  EXPECT_EQ(a.composite.bytes, b.composite.bytes);
  expect_same_exchange(a.composite.exchange, b.composite.exchange);
  EXPECT_EQ(a.steal.chunks_stolen, b.steal.chunks_stolen);
  EXPECT_EQ(a.steal.bytes_replicated, b.steal.bytes_replicated);
  EXPECT_EQ(a.steal.steal_seconds, b.steal.steal_seconds);
  EXPECT_EQ(a.steal.straggler_after, b.steal.straggler_after);
  EXPECT_EQ(a.faults.dropped_blocks, b.faults.dropped_blocks);
  EXPECT_EQ(a.faults.undeliverable_messages, b.faults.undeliverable_messages);
  EXPECT_EQ(a.faults.retries, b.faults.retries);
  EXPECT_EQ(a.faults.rerouted_messages, b.faults.rerouted_messages);
  EXPECT_EQ(a.trace.spans, b.trace.spans);
  EXPECT_EQ(a.trace.frame_seconds, b.trace.frame_seconds);
  EXPECT_EQ(a.trace.io_seconds, b.trace.io_seconds);
  EXPECT_EQ(a.trace.render_seconds, b.trace.render_seconds);
  EXPECT_EQ(a.trace.composite_seconds, b.trace.composite_seconds);
}

const double* span_arg(const obs::Span& span, const char* key) {
  for (const auto& [k, v] : span.args) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// --- the event scheduler (test oracle) --------------------------------------

using TaskId = std::int32_t;

/// One task of a test graph: `seconds` of work on serial lane `lane` (a
/// rank, or -1 for the shared machine lane), runnable once every task in
/// `deps` has finished. `tag` names its stage for the critical path.
struct RefTask {
  std::int64_t lane = -1;
  double seconds = 0.0;
  std::int32_t tag = 0;
  std::vector<TaskId> deps;
};

/// A DAG over `lanes` rank lanes plus the shared lane. Ids follow add
/// order, and dependencies must name earlier tasks, so no cycle is built.
struct RefGraph {
  std::int64_t lanes = 0;
  std::vector<RefTask> tasks;

  TaskId add(std::int64_t lane, double seconds, std::int32_t tag,
             std::vector<TaskId> deps) {
    tasks.push_back(RefTask{lane, seconds, tag, std::move(deps)});
    return TaskId(tasks.size() - 1);
  }
  std::int64_t edges() const {
    std::int64_t n = 0;
    for (const RefTask& t : tasks) n += std::int64_t(t.deps.size());
    return n;
  }
};

/// Scheduled interval of one task: `ready` is its latest dependency's
/// finish (0 with none); `start` > `ready` when its lane was busy.
struct TaskTimes {
  double ready = 0.0;
  double start = 0.0;
  double finish = 0.0;
};

struct RefSchedule {
  std::vector<TaskTimes> times;  ///< indexed by TaskId
  TaskId last_task = -1;         ///< max finish, lowest id on ties
  /// Sum over tasks of (start - ready), in the order tasks start.
  double lane_wait_seconds = 0.0;
  /// Binding-predecessor chain from a task that starts at time zero to
  /// `last_task`, in execution order.
  std::vector<TaskId> critical_path;
};

/// The deterministic event-driven scheduler: the reference for
/// runtime::schedule_async_frame's closed form. Completion events drain in
/// (finish, lane, sequence) order, every event at one time before any idle
/// lane picks work; then a scan of every lane, in ascending order, starts
/// each idle lane's pending task with the smallest (ready, id). The critical
/// path walks back from the last task: to the task that held its lane when
/// it started after it was ready, else to its lowest-id dependency whose
/// finish equals its start, until a start of exactly 0.
RefSchedule full_scan_schedule(const RefGraph& graph) {
  struct Event {
    double time;
    std::int64_t lane, seq;
    TaskId task;
  };
  const auto event_after = [](const Event& a, const Event& b) {
    if (a.time != b.time) return a.time > b.time;
    if (a.lane != b.lane) return a.lane > b.lane;
    return a.seq > b.seq;
  };
  struct Pending {
    double ready;
    TaskId task;
  };
  const auto pending_after = [](const Pending& a, const Pending& b) {
    if (a.ready != b.ready) return a.ready > b.ready;
    return a.task > b.task;
  };
  using PendingQueue =
      std::priority_queue<Pending, std::vector<Pending>,
                          decltype(pending_after)>;

  RefSchedule sched;
  const std::size_t n = graph.tasks.size();
  sched.times.assign(n, TaskTimes{});
  if (n == 0) return sched;
  std::vector<std::vector<TaskId>> dependents(n);
  std::vector<std::int32_t> indegree(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::vector<TaskId>& deps = graph.tasks[i].deps;
    indegree[i] = std::int32_t(deps.size());
    for (const TaskId dep : deps) {
      dependents[std::size_t(dep)].push_back(TaskId(i));
    }
  }
  const std::size_t lanes = std::size_t(graph.lanes) + 1;
  const auto slot = [&](TaskId id) {
    return std::size_t(graph.tasks[std::size_t(id)].lane + 1);
  };
  std::vector<char> busy(lanes, 0);
  std::vector<double> free_at(lanes, 0.0);
  std::vector<PendingQueue> pending(lanes, PendingQueue(pending_after));
  std::vector<TaskId> lane_last(lanes, -1);
  std::vector<TaskId> lane_pred(n, -1);
  std::priority_queue<Event, std::vector<Event>, decltype(event_after)>
      events(event_after);
  std::int64_t seq = 0;
  const auto start_lane = [&](std::size_t l) {
    if (busy[l] || pending[l].empty()) return;
    const Pending p = pending[l].top();
    pending[l].pop();
    const RefTask& t = graph.tasks[std::size_t(p.task)];
    TaskTimes& tt = sched.times[std::size_t(p.task)];
    tt.ready = p.ready;
    tt.start = std::max(p.ready, free_at[l]);
    tt.finish = tt.start + t.seconds;
    busy[l] = 1;
    lane_pred[std::size_t(p.task)] = lane_last[l];
    lane_last[l] = p.task;
    sched.lane_wait_seconds += tt.start - tt.ready;
    events.push(Event{tt.finish, t.lane, seq++, p.task});
  };
  for (std::size_t i = 0; i < n; ++i) {
    if (indegree[i] == 0) {
      pending[slot(TaskId(i))].push(Pending{0.0, TaskId(i)});
    }
  }
  for (std::size_t l = 0; l < lanes; ++l) start_lane(l);
  while (!events.empty()) {
    const double now = events.top().time;
    while (!events.empty() && events.top().time == now) {
      const Event ev = events.top();
      events.pop();
      const std::size_t l = slot(ev.task);
      busy[l] = 0;
      free_at[l] = ev.time;
      for (const TaskId d : dependents[std::size_t(ev.task)]) {
        if (--indegree[std::size_t(d)] == 0) {
          pending[slot(d)].push(Pending{ev.time, d});
        }
      }
    }
    for (std::size_t l = 0; l < lanes; ++l) start_lane(l);
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (sched.last_task < 0 ||
        sched.times[i].finish >
            sched.times[std::size_t(sched.last_task)].finish) {
      sched.last_task = TaskId(i);
    }
  }
  for (TaskId cur = sched.last_task; cur >= 0;) {
    sched.critical_path.push_back(cur);
    const TaskTimes& tt = sched.times[std::size_t(cur)];
    if (tt.start == 0.0) break;
    TaskId next = -1;
    if (tt.start > tt.ready) {
      next = lane_pred[std::size_t(cur)];
    } else {
      for (const TaskId dep : graph.tasks[std::size_t(cur)].deps) {
        if (sched.times[std::size_t(dep)].finish == tt.start &&
            (next < 0 || dep < next)) {
          next = dep;
        }
      }
    }
    cur = next;
  }
  std::reverse(sched.critical_path.begin(), sched.critical_path.end());
  return sched;
}

constexpr std::int32_t kTagIo = 0;
constexpr std::int32_t kTagSteal = 1;
constexpr std::int32_t kTagRender = 2;
constexpr std::int32_t kTagComposite = 3;
constexpr std::int32_t kTagBarrier = 4;

/// A frame's dependency graph: the read and then the steal phase on the
/// shared lane, one render per live rank waiting for them, and one
/// composite per rank with sources, costing exchange + its blend. With
/// `barrier`, every render fans into a zero-length barrier that every
/// composite waits for (the BSP schedule); without, composite c waits for
/// the renders of sources[c] (the free schedule).
RefGraph frame_graph(const runtime::AsyncFrameInputs& in,
                     std::span<const std::vector<std::int64_t>> sources,
                     bool barrier) {
  RefGraph graph;
  graph.lanes = std::int64_t(sources.size());
  std::vector<TaskId> gate;
  if (in.has_io) gate = {graph.add(-1, in.io_seconds, kTagIo, {})};
  if (in.has_steal) {
    gate = {graph.add(-1, in.steal_seconds, kTagSteal, gate)};
  }
  std::vector<TaskId> render(sources.size(), -1);
  std::vector<TaskId> renders;
  for (std::int64_t r = 0; r < graph.lanes; ++r) {
    if (!in.live[std::size_t(r)]) continue;
    render[std::size_t(r)] = graph.add(
        r, in.render_seconds[std::size_t(r)], kTagRender, gate);
    renders.push_back(render[std::size_t(r)]);
  }
  std::vector<TaskId> after;
  if (barrier) after = {graph.add(-1, 0.0, kTagBarrier, renders)};
  for (std::int64_t c = 0; c < graph.lanes; ++c) {
    const std::vector<std::int64_t>& srcs = sources[std::size_t(c)];
    if (srcs.empty()) continue;
    std::vector<TaskId> deps = after;
    if (!barrier) {
      for (const std::int64_t s : srcs) deps.push_back(render[std::size_t(s)]);
    }
    graph.add(c, in.exchange_seconds + in.blend_seconds[std::size_t(c)],
              kTagComposite, std::move(deps));
  }
  return graph;
}

/// The event scheduler's view of a frame graph: its size, its lane wait,
/// and its critical path's durations summed by stage, with the lanes of
/// the path's render and composite (-1 when it holds none).
struct ChainSegments {
  double io = 0.0;
  double steal = 0.0;
  double render = 0.0;
  double composite = 0.0;
  std::int64_t render_lane = -1;
  std::int64_t composite_lane = -1;
  double lane_wait = 0.0;
  std::int64_t tasks = 0;
  std::int64_t edges = 0;
};

ChainSegments schedule_segments(const RefGraph& graph) {
  const RefSchedule run = full_scan_schedule(graph);
  ChainSegments seg;
  seg.tasks = std::int64_t(graph.tasks.size());
  seg.edges = graph.edges();
  seg.lane_wait = run.lane_wait_seconds;
  for (const TaskId id : run.critical_path) {
    const RefTask& t = graph.tasks[std::size_t(id)];
    switch (t.tag) {
      case kTagIo: seg.io += t.seconds; break;
      case kTagSteal: seg.steal += t.seconds; break;
      case kTagRender:
        seg.render += t.seconds;
        seg.render_lane = t.lane;
        break;
      case kTagComposite:
        seg.composite += t.seconds;
        seg.composite_lane = t.lane;
        break;
    }
  }
  return seg;
}

// --- the closed form against the event scheduler --------------------------

TEST(AsyncScheduleTest, ClosedFormMatchesEventScheduler) {
  // Random frames of the async shape: 1-48 ranks, a quarter of them dead,
  // each rank compositing 0-6 distinct live sources (a dead rank too), with
  // and without the read and the steal phase. Durations come from a dyadic
  // set (sums exact), a set whose sums round (so the lane wait pins the
  // order compositors start in) and a set of repeated values and zeros
  // (ties everywhere; zero-length tasks finish at their own start).
  constexpr double kDurations[3][4] = {{0.0, 0.25, 0.5, 1.0},
                                       {0.0, 0.1, 0.3, 0.7},
                                       {0.0, 0.0, 0.5, 0.5}};
  constexpr std::uint64_t kFrames = 100000;
  std::int64_t failures = 0;
  std::int64_t lane_bound = 0;  // paths through a composite's own render
  std::int64_t summed_waits = 0;
  std::int64_t gate_paths = 0;  // paths with no composite
  for (std::uint64_t seed = 1; seed <= kFrames; ++seed) {
    Rng rng{seed};
    const double* durations = kDurations[seed % 3];
    const auto draw = [&] { return durations[rng.next_below(4)]; };
    const auto ranks = std::int64_t(1 + rng.next_below(48));
    runtime::AsyncFrameInputs in;
    in.has_io = rng.next_below(2) != 0;
    in.io_seconds = draw();
    in.has_steal = rng.next_below(2) != 0;
    in.steal_seconds = draw();
    in.exchange_seconds = draw();
    std::vector<std::int64_t> live;
    for (std::int64_t r = 0; r < ranks; ++r) {
      const bool alive = rng.next_below(4) != 0;
      in.live.push_back(alive ? 1 : 0);
      in.render_seconds.push_back(alive ? draw() : 0.0);
      in.blend_seconds.push_back(draw());
      if (alive) live.push_back(r);
    }
    auto sources = std::vector<std::vector<std::int64_t>>(std::size_t(ranks));
    for (std::vector<std::int64_t>& srcs : sources) {
      if (live.empty()) break;
      for (std::uint64_t k = rng.next_below(7); k > 0; --k) {
        srcs.push_back(live[rng.next_below(live.size())]);
      }
      std::sort(srcs.begin(), srcs.end());
      srcs.erase(std::unique(srcs.begin(), srcs.end()), srcs.end());
    }

    const runtime::AsyncFrameSchedule got =
        runtime::schedule_async_frame(in, sources);
    const ChainSegments want =
        schedule_segments(frame_graph(in, sources, /*barrier=*/false));
    const bool same = got.tasks == want.tasks && got.edges == want.edges &&
                      bits(got.render_seconds) == bits(want.render) &&
                      got.render_rank == want.render_lane &&
                      bits(got.composite_seconds) == bits(want.composite) &&
                      got.composite_rank == want.composite_lane &&
                      bits(got.lane_wait_seconds) == bits(want.lane_wait);
    if (!same) {
      ADD_FAILURE() << "seed " << seed << ": tasks " << got.tasks << "/"
                    << want.tasks << " edges " << got.edges << "/"
                    << want.edges << " render " << got.render_seconds << "@"
                    << got.render_rank << "/" << want.render << "@"
                    << want.render_lane << " composite "
                    << got.composite_seconds << "@" << got.composite_rank
                    << "/" << want.composite << "@" << want.composite_lane
                    << " lane wait " << got.lane_wait_seconds << "/"
                    << want.lane_wait;
      if (++failures == 10) return;
    }
    if (want.composite_lane >= 0 && want.render_lane == want.composite_lane) {
      ++lane_bound;
    }
    if (want.composite_lane < 0) ++gate_paths;
    if (want.lane_wait > 0.0) ++summed_waits;
  }
  // The sweep reaches every branch of the walk and of the wait sum.
  EXPECT_GT(lane_bound, 1000);
  EXPECT_GT(gate_paths, 100);
  EXPECT_GT(summed_waits, 1000);
}

// --- frames rebuilt from their public inputs --------------------------------

/// A frame's schedule inputs rebuilt from its public inputs, outside the
/// renderer: the read and steal seconds the frame reports, per-rank render
/// seconds (the steal schedule's post-steal seconds when it moved work,
/// else the render model's, each with the imbalance factor), which ranks
/// render, and the direct-send composite priced by
/// DirectSendCompositor::model on a fresh model runtime with the same plan
/// armed: its exchange (less its skew when `overlapped`, as the free fold
/// prices it) and each compositor's blend.
struct PublicInputs {
  runtime::AsyncFrameInputs in;
  compose::DirectSendDetail detail;
};

PublicInputs public_inputs(const core::ParallelVolumeRenderer& pvr,
                           const core::FrameStats& frame,
                           const fault::FaultPlan* plan, bool insitu,
                           bool overlapped) {
  const core::ExperimentConfig& cfg = pvr.config();
  const machine::Partition& part = pvr.partition();
  const std::int64_t ranks = cfg.num_ranks;
  std::function<double(std::int64_t)> slowdown;
  if (plan != nullptr) {
    slowdown = [&](std::int64_t rank) {
      return plan->rank_failed(rank, part) ? 0.0
                                           : plan->rank_degrade(rank, part);
    };
  }

  const render::RenderModel model(cfg.machine);
  const render::Decomposition& decomp = pvr.decomposition();
  steal::StealSchedule sched;
  if (cfg.steal.enabled()) {
    const double step_world =
        cfg.render.step_voxels * render::voxel_size(cfg.dataset.dims);
    std::vector<steal::BlockWork> work;
    for (std::int64_t b = 0; b < decomp.num_blocks(); ++b) {
      const Box3d wb =
          render::world_box_of(decomp.block_box(b), cfg.dataset.dims);
      steal::BlockWork w;
      w.block = b;
      w.owner = render::Decomposition::rank_of_block(b, ranks);
      w.samples = model.block_samples(wb, pvr.camera(), step_world);
      w.rows = std::max(0, pvr.camera().footprint(wb).height());
      w.bytes = decomp.ghost_box(b, cfg.ghost).volume() *
                cfg.dataset.element_bytes;
      work.push_back(w);
    }
    sched = steal::StealPlanner(cfg.machine, cfg.steal)
                .plan(work, ranks, slowdown);
  }

  PublicInputs pub;
  runtime::AsyncFrameInputs& in = pub.in;
  in.has_io = !insitu;
  in.io_seconds = frame.io_seconds;
  in.has_steal = !sched.empty();
  in.steal_seconds = frame.steal.steal_seconds;
  if (!sched.empty()) {
    for (const double s : sched.rank_seconds_after) {
      in.render_seconds.push_back(s * (1.0 + cfg.machine.render_imbalance));
    }
  } else {
    model.estimate_degraded(decomp, ranks, pvr.camera(), cfg.render,
                            slowdown, &in.render_seconds);
  }
  for (std::int64_t r = 0; r < ranks; ++r) {
    in.live.push_back(slowdown == nullptr || slowdown(r) > 0.0 ? 1 : 0);
  }

  runtime::Runtime rt(part, runtime::Mode::kModel);
  rt.set_pool(pvr.pool());
  fault::FaultStats fault_stats;
  if (plan != nullptr) rt.set_faults(plan, &fault_stats);
  compose::DirectSendCompositor compositor(rt, cfg.composite);
  const compose::CompositeStats composite = compositor.model(
      pvr.screen_blocks(), cfg.image_width, cfg.image_height, &pub.detail);
  in.exchange_seconds = composite.exchange.seconds;
  if (overlapped) in.exchange_seconds -= composite.exchange.skew_seconds;
  const double bps = part.config().blends_per_second;
  for (const std::int64_t pixels : pub.detail.blend_pixels) {
    in.blend_seconds.push_back(double(pixels) / bps);
  }
  return pub;
}

/// The barrier-chained oracle: the BSP schedule as a frame graph, built
/// only from a BSP frame's public inputs, its composites costing the full
/// exchange, skew included, plus their blends. Task times combine only by
/// + and max, so the critical path's stage segments must equal the barrier
/// stage times bitwise.
ChainSegments chained_oracle(const core::ParallelVolumeRenderer& pvr,
                             const core::FrameStats& bsp,
                             const fault::FaultPlan* plan, bool insitu) {
  const PublicInputs pub =
      public_inputs(pvr, bsp, plan, insitu, /*overlapped=*/false);
  return schedule_segments(
      frame_graph(pub.in, pub.detail.sources, /*barrier=*/true));
}

/// One traced BSP frame and its Chrome trace.
struct TracedFrame {
  core::FrameStats stats;
  std::string trace;
};

/// Prices one traced BSP frame of `cfg` at host_threads 1 and 4 — under the
/// plan `make_plan` returns for the renderer's partition, or in situ — and
/// checks that the chained oracle reproduces its io, steal, render and
/// composite seconds bitwise. Returns the two frames.
std::vector<TracedFrame> expect_oracle_reproduces_bsp(
    core::ExperimentConfig cfg,
    const std::function<fault::FaultPlan(const machine::Partition&)>&
        make_plan,
    bool insitu = false) {
  std::vector<TracedFrame> frames;
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    cfg.host_threads = threads;
    core::ParallelVolumeRenderer pvr(cfg);
    obs::Tracer tracer;
    pvr.set_tracer(&tracer);
    const fault::FaultPlan plan =
        make_plan ? make_plan(pvr.partition()) : fault::FaultPlan{};
    const core::FrameStats bsp =
        insitu ? pvr.model_insitu_frame() : pvr.model_frame_with_faults(plan);
    const ChainSegments seg =
        chained_oracle(pvr, bsp, plan.empty() ? nullptr : &plan, insitu);
    EXPECT_EQ(seg.io, bsp.io_seconds);
    EXPECT_EQ(seg.steal, bsp.steal.steal_seconds);
    EXPECT_EQ(seg.render, bsp.render.seconds);
    EXPECT_EQ(seg.composite, bsp.composite.seconds);
    frames.push_back({bsp, obs::to_chrome_trace_json(tracer)});
  }
  return frames;
}

TEST(AsyncChainedTest, ValidateRejectsAsyncWithoutDirectSend) {
  auto cfg = async_config();
  cfg.composite.algorithm = compose::CompositeAlgorithm::kRadixK;
  EXPECT_THROW(core::validate(cfg), Error);
  cfg.composite.algorithm = compose::CompositeAlgorithm::kDirectSend;
  EXPECT_NO_THROW(core::validate(cfg));
}

TEST(AsyncChainedTest, ChainedMatchesBspOnHealthyFrame) {
  const auto frames = expect_oracle_reproduces_bsp(small_config(), nullptr);
  EXPECT_GT(frames[0].stats.io_seconds, 0.0);
  EXPECT_FALSE(frames[0].stats.async.enabled);
}

TEST(AsyncChainedTest, ChainedMatchesBspUnderADegradedNode) {
  expect_oracle_reproduces_bsp(small_config(), [](const auto& part) {
    return degrade_rank0(part, 4.0);
  });
}

TEST(AsyncChainedTest, ChainedMatchesBspUnderADeadNode) {
  const auto frames =
      expect_oracle_reproduces_bsp(small_config(), [](const auto& part) {
        fault::FaultPlan plan;
        plan.fail_node(part.node_of_rank(3));
        return plan;
      });
  EXPECT_GT(frames[0].stats.faults.dropped_blocks, 0);
}

TEST(AsyncChainedTest, ChainedMatchesBspWithStealing) {
  auto cfg = small_config();
  cfg.steal.policy = steal::StealPolicy::kReplicateBlocks;
  const auto frames = expect_oracle_reproduces_bsp(
      cfg, [](const auto& part) { return degrade_rank0(part, 4.0); });
  EXPECT_GT(frames[0].stats.steal.chunks_stolen, 0);
  EXPECT_GT(frames[0].stats.steal.steal_seconds, 0.0);
}

TEST(AsyncChainedTest, ChainedMatchesBspOnInsituFrame) {
  const auto frames =
      expect_oracle_reproduces_bsp(small_config(), nullptr, /*insitu=*/true);
  EXPECT_EQ(frames[0].stats.io_seconds, 0.0);
}

TEST(AsyncChainedTest, ChainedIsBitIdenticalAcrossHostThreads) {
  auto cfg = small_config();
  cfg.steal.policy = steal::StealPolicy::kScanlineChunks;
  const auto frames = expect_oracle_reproduces_bsp(
      cfg, [](const auto& part) { return degrade_rank0(part, 4.0); });
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_GT(frames[0].stats.steal.chunks_stolen, 0);
  expect_same_frame(frames[0].stats, frames[1].stats);
  EXPECT_EQ(frames[0].trace, frames[1].trace);
}

TEST(AsyncChainedTest, ChainedFillsOverlapStats) {
  core::ParallelVolumeRenderer bsp_pvr(small_config());
  const core::FrameStats bsp = bsp_pvr.model_frame();
  const ChainSegments chain = chained_oracle(bsp_pvr, bsp, nullptr, false);
  // io + 64 renders + the barrier + the compositors; every render fans into
  // the barrier and every compositor waits on it alone.
  const std::int64_t compositors = chain.tasks - 66;
  ASSERT_GT(compositors, 0);
  EXPECT_EQ(chain.edges, 64 + 64 + compositors);

  core::ParallelVolumeRenderer async(async_config());
  const core::FrameStats frame = async.model_frame();
  EXPECT_TRUE(frame.async.enabled);
  // The free graph is the oracle's without the barrier task.
  EXPECT_EQ(frame.async.tasks, chain.tasks - 1);
  EXPECT_EQ(frame.async.bsp_seconds, bsp.total_seconds());
  EXPECT_EQ(frame.async.reclaimed_seconds,
            frame.async.bsp_seconds - frame.total_seconds());
  EXPECT_GE(frame.async.reclaimed_seconds, 0.0);
}

TEST(AsyncChainedTest, ExecuteImageMatchesBsp) {
  const data::SupernovaField field(1530);
  core::ParallelVolumeRenderer bsp(small_config(8));
  Image base_img;
  const core::FrameStats a = bsp.execute_insitu_frame(field, &base_img);
  core::ParallelVolumeRenderer async(async_config(8));
  Image async_img;
  const core::FrameStats b = async.execute_insitu_frame(field, &async_img);
  // Execute mode always runs the real superstep runtime; the async setting
  // must not perturb a single pixel.
  EXPECT_EQ(base_img.max_difference(async_img), 0.0f);
  EXPECT_EQ(a.render.total_samples, b.render.total_samples);
}

// --- free mode: overlap reclamation ----------------------------------------

/// Checks an async frame's schedule against the event scheduler over the
/// free graph of the frame's public inputs: composite c waits for the
/// renders of its direct-send sources and costs (exchange - skew) + blend_c.
void expect_free_fold_matches(const core::ParallelVolumeRenderer& pvr,
                              const core::FrameStats& frame,
                              const fault::FaultPlan* plan, bool insitu) {
  const PublicInputs pub =
      public_inputs(pvr, frame, plan, insitu, /*overlapped=*/true);
  const ChainSegments want = schedule_segments(
      frame_graph(pub.in, pub.detail.sources, /*barrier=*/false));
  ASSERT_TRUE(frame.async.enabled);
  ASSERT_GE(want.render_lane, 0);
  ASSERT_GE(want.composite_lane, 0);
  EXPECT_EQ(bits(frame.render.seconds), bits(want.render));
  EXPECT_EQ(frame.render.straggler_rank, want.render_lane);
  EXPECT_EQ(bits(frame.composite.seconds), bits(want.composite));
  EXPECT_EQ(frame.async.tasks, want.tasks);
  EXPECT_EQ(frame.async.edges, want.edges);
  EXPECT_EQ(bits(frame.async.lane_wait_seconds), bits(want.lane_wait));
}

TEST(AsyncFreeTest, FreeFoldMatchesEventScheduler) {
  struct Case {
    const char* name;
    steal::StealPolicy policy;
    std::function<fault::FaultPlan(const machine::Partition&)> plan;
    bool insitu;
  };
  const auto degraded = [](const machine::Partition& part) {
    return degrade_rank0(part, 4.0);
  };
  const auto dead = [](const machine::Partition& part) {
    fault::FaultPlan plan;
    plan.fail_node(part.node_of_rank(3));
    return plan;
  };
  const std::vector<Case> cases = {
      {"healthy", steal::StealPolicy::kOff, nullptr, false},
      {"degraded rank 0", steal::StealPolicy::kOff, degraded, false},
      {"dead node", steal::StealPolicy::kOff, dead, false},
      {"scanline chunks", steal::StealPolicy::kScanlineChunks, degraded,
       false},
      {"replicate blocks", steal::StealPolicy::kReplicateBlocks, degraded,
       false},
      {"in situ", steal::StealPolicy::kOff, nullptr, true},
  };
  for (const int threads : {1, 4}) {
    for (const Case& c : cases) {
      SCOPED_TRACE(testing::Message() << c.name << ", threads " << threads);
      auto cfg = async_config();
      cfg.host_threads = threads;
      cfg.steal.policy = c.policy;
      core::ParallelVolumeRenderer pvr(cfg);
      const fault::FaultPlan plan =
          c.plan ? c.plan(pvr.partition()) : fault::FaultPlan{};
      const core::FrameStats frame = c.insitu
                                         ? pvr.model_insitu_frame()
                                         : pvr.model_frame_with_faults(plan);
      if (c.policy != steal::StealPolicy::kOff) {
        EXPECT_GT(frame.steal.chunks_stolen, 0);
      }
      expect_free_fold_matches(pvr, frame, plan.empty() ? nullptr : &plan,
                               c.insitu);
    }
    SCOPED_TRACE(testing::Message() << "model_run(3), threads " << threads);
    auto cfg = async_config();
    cfg.host_threads = threads;
    core::ParallelVolumeRenderer pvr(cfg);
    const core::RunStats run = pvr.model_run(3);
    ASSERT_EQ(run.frames.size(), 3u);
    EXPECT_GT(run.frames[1].async.readahead_seconds, 0.0);
    for (const core::FrameStats& frame : run.frames) {
      expect_free_fold_matches(pvr, frame, nullptr, /*insitu=*/false);
    }
  }
}

TEST(AsyncFreeTest, FreeNeverExceedsBspOnAHealthyFrame) {
  core::ParallelVolumeRenderer bsp(small_config());
  core::ParallelVolumeRenderer async(
      async_config());
  const core::FrameStats a = bsp.model_frame();
  const core::FrameStats b = async.model_frame();
  // Every async stage term is <= its BSP counterpart and fl-addition is
  // monotone, so the inequality holds bitwise — no tolerance.
  EXPECT_LE(b.total_seconds(), a.total_seconds());
  EXPECT_TRUE(b.async.enabled);
  // The books balance exactly: bsp price recorded, reclaimed = bsp - async.
  EXPECT_EQ(b.async.bsp_seconds, a.total_seconds());
  EXPECT_EQ(b.async.reclaimed_seconds,
            b.async.bsp_seconds - b.total_seconds());
  EXPECT_GE(b.async.reclaimed_seconds, 0.0);
  // The stages themselves are priced identically; only the schedule moves.
  EXPECT_EQ(a.io_seconds, b.io_seconds);
  EXPECT_EQ(a.render.total_samples, b.render.total_samples);
}

TEST(AsyncFreeTest, FreeReclaimsSkewUnderADegradedNode) {
  core::ParallelVolumeRenderer bsp(small_config());
  core::ParallelVolumeRenderer async(
      async_config());
  const auto plan = degrade_rank0(bsp.partition(), 8.0);
  const core::FrameStats a = bsp.model_frame_with_faults(plan);
  const core::FrameStats b = async.model_frame_with_faults(plan);
  // The BSP composite pays barrier-close skew; the free graph overlaps it.
  ASSERT_GT(a.composite.exchange.skew_seconds, 0.0);
  EXPECT_LT(b.total_seconds(), a.total_seconds());
  EXPECT_GT(b.async.reclaimed_seconds, 0.0);
  EXPECT_EQ(b.async.reclaimed_seconds,
            b.async.bsp_seconds - b.total_seconds());
  // The overlapped composite exchange dropped exactly the skew term.
  EXPECT_EQ(b.composite.exchange.skew_seconds, 0.0);
  EXPECT_EQ(b.faults.dropped_blocks, a.faults.dropped_blocks);
}

TEST(AsyncFreeTest, FreeFrameIsBitIdenticalAcrossHostThreads) {
  auto cfg = async_config();
  cfg.steal.policy = steal::StealPolicy::kScanlineChunks;
  cfg.host_threads = 1;
  core::ParallelVolumeRenderer serial(cfg);
  cfg.host_threads = 4;
  core::ParallelVolumeRenderer threaded(cfg);
  const auto plan = degrade_rank0(serial.partition(), 4.0);
  obs::Tracer ta, tb;
  serial.set_tracer(&ta);
  threaded.set_tracer(&tb);
  const core::FrameStats a = serial.model_frame_with_faults(plan);
  const core::FrameStats b = threaded.model_frame_with_faults(plan);
  EXPECT_EQ(a.io_seconds, b.io_seconds);
  EXPECT_EQ(a.render_seconds, b.render_seconds);
  EXPECT_EQ(a.composite_seconds, b.composite_seconds);
  EXPECT_EQ(a.async.bsp_seconds, b.async.bsp_seconds);
  EXPECT_EQ(a.async.reclaimed_seconds, b.async.reclaimed_seconds);
  EXPECT_EQ(a.async.lane_wait_seconds, b.async.lane_wait_seconds);
  EXPECT_EQ(obs::to_chrome_trace_json(ta), obs::to_chrome_trace_json(tb));
}

TEST(AsyncFreeTest, FreeFrameAttributionStaysExact) {
  core::ParallelVolumeRenderer async(
      async_config());
  obs::Tracer tracer;
  async.set_tracer(&tracer);
  const auto plan = degrade_rank0(async.partition(), 4.0);
  const core::FrameStats stats = async.model_frame_with_faults(plan);
  const profile::Profile prof = profile::analyze(tracer);
  ASSERT_EQ(prof.frames.size(), 1u);
  const profile::FrameProfile& frame = prof.frames.front();
  // Reclaimed skew shows up as overlap on the frame's books — it never
  // silently vanishes from the attribution.
  EXPECT_EQ(frame.overlap_reclaimed_seconds, stats.async.reclaimed_seconds);
  // Disjoint-and-exhaustive still holds on the overlapped timeline: buckets
  // sum to the total, which is the frame span's duration exactly.
  EXPECT_EQ(frame.attribution.sum_ps(), frame.attribution.total_ps);
  EXPECT_EQ(frame.attribution.total_ps,
            profile::to_picos(frame.frame_seconds));
  EXPECT_EQ(frame.frame_seconds, stats.trace.frame_seconds);
}

// Satellite audit regression: overlapped exchanges (steal traffic and the
// free-mode composite) zero their skew *before* the span argument is
// recorded, so the trace, the ExchangeCost, and the profiler's skew bucket
// tell one story.
TEST(AsyncFreeTest, OverlappedExchangeSpansRecordZeroSkew) {
  auto cfg = small_config();
  cfg.steal.policy = steal::StealPolicy::kReplicateBlocks;
  core::ParallelVolumeRenderer pvr(cfg);
  obs::Tracer tracer;
  pvr.set_tracer(&tracer);
  const auto plan = degrade_rank0(pvr.partition(), 4.0);
  const core::FrameStats stats = pvr.model_frame_with_faults(plan);
  ASSERT_GT(stats.steal.chunks_stolen, 0);
  std::int64_t overlapped_spans = 0;
  for (const auto& span : tracer.spans()) {
    const double* overlapped = span_arg(span, "overlapped");
    if (overlapped == nullptr) continue;
    ++overlapped_spans;
    EXPECT_EQ(*overlapped, 1.0);
    const double* skew = span_arg(span, "skew_seconds");
    ASSERT_NE(skew, nullptr);
    EXPECT_EQ(*skew, 0.0);
  }
  EXPECT_GT(overlapped_spans, 0);
  // The attribution sum stays exact with overlapped spans on the timeline.
  const profile::Profile prof = profile::analyze(tracer);
  ASSERT_EQ(prof.frames.size(), 1u);
  EXPECT_EQ(prof.frames.front().attribution.sum_ps(),
            prof.frames.front().attribution.total_ps);
  EXPECT_EQ(prof.frames.front().attribution.total_ps,
            profile::to_picos(prof.frames.front().frame_seconds));
}

TEST(AsyncFreeTest, FreeRunReadsAheadAndBeatsBsp) {
  core::ParallelVolumeRenderer bsp(small_config());
  core::ParallelVolumeRenderer async(
      async_config());
  const core::RunStats base = bsp.model_run(3);
  const core::RunStats run = async.model_run(3);
  ASSERT_EQ(run.frames.size(), 3u);
  // Frame 0 has no predecessor to hide its fetch under; later frames do.
  EXPECT_EQ(run.frames[0].async.readahead_seconds, 0.0);
  EXPECT_GT(run.frames[1].async.readahead_seconds, 0.0);
  EXPECT_GT(run.frames[2].async.readahead_seconds, 0.0);
  EXPECT_LT(run.total_seconds, base.total_seconds);
  // The async ideal is pipelined: first frame at full price, then the
  // steady-state cadence.
  EXPECT_LT(run.ideal_seconds, base.ideal_seconds);
  EXPECT_LE(run.effective_fps(), run.ideal_fps() * (1.0 + 1e-12));
  EXPECT_EQ(run.frames_completed, 3);
}

TEST(AsyncFreeTest, FreeRunSurvivesAFaultArrival) {
  auto cfg = async_config();
  core::ParallelVolumeRenderer async(cfg);
  fault::FaultTimeline timeline;
  fault::FaultArrival arrival;
  arrival.frame = 1;
  arrival.plan = degrade_rank0(async.partition(), 4.0);
  timeline.add(arrival);
  const core::RunStats run = async.model_run(3, timeline);
  ASSERT_EQ(run.frames.size(), 3u);
  EXPECT_EQ(run.faults_struck, 1);
  // The degraded frame still runs the free graph and reclaims skew.
  EXPECT_TRUE(run.frames[1].async.enabled);
  EXPECT_GT(run.frames[1].async.reclaimed_seconds, 0.0);
  EXPECT_GT(run.frames[1].total_seconds(), run.frames[2].total_seconds());
}

/// Prices a healthy frame on `pvr`, whose tracer already holds the spans of
/// a frame that threw, and checks it is traced like the first frame of a
/// fresh renderer: the same span count, and the same stage seconds up to
/// the rounding of a later clock origin.
void expect_traced_like_a_fresh_frame(core::ParallelVolumeRenderer& pvr) {
  const core::FrameStats got = pvr.model_frame();
  core::ParallelVolumeRenderer fresh(pvr.config());
  obs::Tracer fresh_tracer;
  fresh.set_tracer(&fresh_tracer);
  const core::FrameStats want = fresh.model_frame();
  EXPECT_EQ(got.trace.spans, want.trace.spans);
  ASSERT_GT(want.trace.io_seconds, 0.0);
  const auto near = [](double a, double b) {
    return std::abs(a - b) <= 1e-12 * std::abs(b);
  };
  EXPECT_TRUE(near(got.trace.io_seconds, want.trace.io_seconds))
      << got.trace.io_seconds << " vs " << want.trace.io_seconds;
  EXPECT_TRUE(near(got.trace.storage_seconds, want.trace.storage_seconds))
      << got.trace.storage_seconds << " vs " << want.trace.storage_seconds;
  EXPECT_TRUE(near(got.trace.composite_seconds, want.trace.composite_seconds))
      << got.trace.composite_seconds << " vs "
      << want.trace.composite_seconds;
}

// Regression: the free fold prices its composite with the runtime's tracer
// detached. A frame that throws there (no live rank is left to composite)
// must still reattach it, or every later frame loses its runtime spans.
TEST(AsyncFreeTest, ThrowingFrameLeavesTheTracerAttached) {
  core::ParallelVolumeRenderer pvr(async_config());
  obs::Tracer tracer;
  pvr.set_tracer(&tracer);
  fault::FaultPlan all_dead;
  for (std::int64_t n = 0; n < pvr.partition().num_nodes(); ++n) {
    all_dead.fail_node(n);
  }
  EXPECT_THROW(pvr.model_frame_with_faults(all_dead), Error);
  expect_traced_like_a_fresh_frame(pvr);
}

// Regression: a read-ahead read is priced untraced too. A model_run whose
// read-ahead frame throws (every storage server failed) must reattach it.
TEST(AsyncFreeTest, ThrowingReadAheadLeavesTheTracerAttached) {
  core::ParallelVolumeRenderer pvr(async_config());
  obs::Tracer tracer;
  pvr.set_tracer(&tracer);
  fault::FaultTimeline timeline;
  fault::FaultArrival arrival;
  arrival.frame = 1;
  for (int s = 0; s < pvr.config().storage.num_servers; ++s) {
    arrival.plan.fail_server(s);
  }
  timeline.add(arrival);
  EXPECT_THROW(pvr.model_run(2, timeline), Error);
  expect_traced_like_a_fresh_frame(pvr);
}

/// The trace's structure without its floating-point seconds: one line per
/// span ("name category depth" plus its integer-valued message/byte/rank
/// args), then one line per instant ("name category").
std::vector<std::string> span_structure(const obs::Tracer& tracer) {
  static const char* const kIntArgs[] = {"messages", "bytes", "ranks",
                                         "straggler_rank", "claims"};
  std::vector<std::string> lines;
  for (const obs::Span& span : tracer.spans()) {
    std::string line = span.name + " " + obs::to_string(span.cat) + " " +
                       std::to_string(span.depth);
    for (const char* key : kIntArgs) {
      if (const double* v = span_arg(span, key)) {
        line += std::string(" ") + key + "=" +
                std::to_string(std::int64_t(*v));
      }
    }
    lines.push_back(std::move(line));
  }
  for (const obs::Instant& instant : tracer.instants()) {
    lines.push_back(instant.name + " " + obs::to_string(instant.cat));
  }
  return lines;
}

// Pins the free-mode timeline shape: the stage tree, the synthetic
// io.fetch/io.shuffle read-ahead split, and the synthetic net.exchange /
// composite.blend composite spans, with their integer args. Seconds are
// deliberately not pinned (torus congestion goes through libm's pow).
TEST(AsyncFreeTest, FreeFrameSpanStructureIsPinned) {
  auto cfg = async_config();
  cfg.steal.policy = steal::StealPolicy::kScanlineChunks;
  core::ParallelVolumeRenderer frame_pvr(cfg);
  obs::Tracer frame_tracer;
  frame_pvr.set_tracer(&frame_tracer);
  frame_pvr.model_frame_with_faults(degrade_rank0(frame_pvr.partition(), 4.0));
  const std::vector<std::string> frame_expected{
      "frame frame 0",
      "stage.io io 1",
      "io.collective_read io 2",
      "io.open storage 3 ranks=64",
      "io.storage storage 3",
      "net.exchange exchange 3 messages=224 bytes=1372000",
      "stage.render render 1 ranks=64 straggler_rank=57",
      "steal.claim steal 2 claims=87",
      "net.exchange exchange 3 messages=87 bytes=5568",
      "stage.composite composite 1 messages=488 bytes=221872",
      "net.exchange exchange 2 messages=488 bytes=221872",
      "composite.blend compute 2",
      "fault.plan_armed fault",
      "fault.recovery_complete fault",
  };
  EXPECT_EQ(span_structure(frame_tracer), frame_expected);

  core::ParallelVolumeRenderer run_pvr(
      async_config());
  fault::FaultTimeline timeline;
  fault::FaultArrival arrival;
  arrival.frame = 1;
  arrival.plan = degrade_rank0(run_pvr.partition(), 4.0);
  timeline.add(arrival);
  obs::Tracer run_tracer;
  run_pvr.set_tracer(&run_tracer);
  run_pvr.model_run(3, timeline);
  const std::vector<std::string> run_expected{
      "frame frame 0",
      "stage.io io 1",
      "io.collective_read io 2",
      "io.open storage 3 ranks=64",
      "io.storage storage 3",
      "net.exchange exchange 3 messages=224 bytes=1372000",
      "stage.render render 1 ranks=64 straggler_rank=63",
      "stage.composite composite 1 messages=488 bytes=221872",
      "net.exchange exchange 2 messages=488 bytes=221872",
      "composite.blend compute 2",
      "ckpt.lost_work ckpt 0",
      "frame frame 0",
      "stage.io io 1",
      "io.fetch storage 2",
      "io.shuffle exchange 2 bytes=1372000",
      "stage.render render 1 ranks=64 straggler_rank=3",
      "stage.composite composite 1 messages=488 bytes=221872",
      "net.exchange exchange 2 messages=488 bytes=221872",
      "composite.blend compute 2",
      "frame frame 0",
      "stage.io io 1",
      "io.fetch storage 2",
      "io.shuffle exchange 2 bytes=1372000",
      "stage.render render 1 ranks=64 straggler_rank=63",
      "stage.composite composite 1 messages=488 bytes=221872",
      "net.exchange exchange 2 messages=488 bytes=221872",
      "composite.blend compute 2",
      "fault.arrival fault",
      "fault.plan_armed fault",
      "io.readahead io",
      "fault.recovery_complete fault",
      "io.readahead io",
  };
  EXPECT_EQ(span_structure(run_tracer), run_expected);
}

// --- mixed-mode scaling decomposition (satellite bugfix) --------------------

TEST(ScalingOverlapTest, MixedModeResidualClampsToOverlapCredit) {
  // p256 reports less wall time than its stage sum (an overlapped/async
  // row); p128 is a pure-BSP row whose report equals the stage sum.
  const std::string text = R"({
    "bench": "fig5",
    "schema_version": 3,
    "rows": [
      {"name": "fig5/p64", "seconds": 10.0,
       "procs": 64, "io_s": 6.0, "render_s": 3.0, "composite_s": 1.0},
      {"name": "fig5/p128", "seconds": 5.8,
       "procs": 128, "io_s": 3.2, "render_s": 1.8, "composite_s": 0.8},
      {"name": "fig5/p256", "seconds": 3.0,
       "procs": 256, "io_s": 2.0, "render_s": 1.0, "composite_s": 0.8}
    ]
  })";
  const profile::BenchRun run =
      profile::parse_bench_run(profile::parse_json(text));
  const auto points = profile::extract_scaling(run, "fig5");
  ASSERT_EQ(points.size(), 3u);
  EXPECT_EQ(points[2].reported_seconds, 3.0);
  EXPECT_EQ(points[2].total_seconds(), 3.0);
  const auto losses = profile::scaling_decomposition(points);
  ASSERT_EQ(losses.size(), 3u);
  for (const auto& loss : losses) {
    // The clamp: the residual never goes negative, and at most one of
    // residual/overlap is nonzero.
    EXPECT_GE(loss.residual_loss, 0.0);
    EXPECT_GE(loss.overlap_credit, 0.0);
    EXPECT_TRUE(loss.residual_loss == 0.0 || loss.overlap_credit == 0.0);
    // The decomposition identity with the credit restored.
    const double sum = loss.io_loss + loss.imbalance_loss +
                       loss.communication_loss + loss.residual_loss -
                       loss.overlap_credit;
    EXPECT_NEAR(sum, 1.0 - loss.efficiency, 1e-12);
  }
  // The BSP row keeps a clean ledger (up to one ulp of decomposition
  // rounding); the mixed row books the hidden time.
  EXPECT_LT(losses[1].overlap_credit, 1e-12);
  EXPECT_GT(losses[2].overlap_credit, 0.0);
  EXPECT_EQ(losses[2].residual_loss, 0.0);
  // The report renders the new column without disturbing determinism.
  const std::string rendered = profile::report(losses);
  EXPECT_NE(rendered.find("overlap"), std::string::npos);
}

}  // namespace
}  // namespace pvr
