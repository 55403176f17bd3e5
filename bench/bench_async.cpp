// Async runtime study (beyond the paper): BSP superstep vs the
// deterministic barrier-free schedule (DESIGN.md §9) on the Figure 5 scene.
// Under BSP every stage closes at the global straggler; the free-running
// graph lets a compositor start as soon as *its* sources have rendered and
// lets frame t+1's storage fetch hide under frame t's compositing tail. The
// reclaimed skew is kept on the books: every row records the BSP price, the
// async price, and their exact difference — the perf gate asserts
// async <= bsp on every row. Deterministic: identical output on every run.
// "host.exec" records the host cost of S3's async run: the wall ms of
// model_run(4) at 4,096 ranks on one host thread, fastest of 5.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace pvrbench;
  using pvr::core::RunStats;
  using pvr::fault::FaultPlan;
  using pvr::fault::FaultSpec;
  using pvr::runtime::RuntimeMode;

  bench_config_set("study", "async task-graph runtime vs BSP");
  bench_config_set("size", "1120^3/1600^2");
  bench_config_set("seed", "42");

  // --- Sweep 1: healthy Fig 5 frame across the proc sweep; the free graph
  // reclaims the barrier skew. ---
  {
    pvr::TextTable table(
        "Async S1 — healthy frame, BSP vs free graph, 1120^3/1600^2");
    table.set_header(
        {"procs", "bsp_s", "async_s", "reclaimed_s", "tasks", "edges"});
    for (const std::int64_t p : proc_sweep()) {
      ExperimentConfig cfg = paper_config(p, 1120, 1600);
      ParallelVolumeRenderer bsp(cfg);
      const FrameStats base = bsp.model_frame();

      cfg.runtime_mode = RuntimeMode::kAsync;
      ParallelVolumeRenderer async(cfg);
      const FrameStats f = async.model_frame();

      table.add_row({pvr::fmt_procs(p), pvr::fmt_f(base.total_seconds(), 3),
                     pvr::fmt_f(f.total_seconds(), 3),
                     pvr::fmt_f(f.async.reclaimed_seconds, 3),
                     std::to_string(f.async.tasks),
                     std::to_string(f.async.edges)});
      register_sim("async/healthy/" + pvr::fmt_procs(p), f.total_seconds(),
                   {{"procs", double(p)},
                    {"bsp_s", base.total_seconds()},
                    {"reclaimed_s", f.async.reclaimed_seconds},
                    {"io_s", f.io_seconds},
                    {"render_s", f.render_seconds},
                    {"composite_s", f.composite_seconds},
                    {"tasks", double(f.async.tasks)},
                    {"edges", double(f.async.edges)}});
    }
    table.print();
    std::puts("");
  }

  // --- Sweep 2: degraded nodes at 4096 procs. Skew grows with the
  // straggler spread, and the free graph overlaps it — the acceptance case:
  // async strictly beats BSP on a degraded Fig 5 configuration. ---
  {
    pvr::TextTable table(
        "Async S2 — frame vs degrade rate, 4096 procs, 1120^3/1600^2");
    table.set_header(
        {"degrade", "bsp_s", "async_s", "reclaimed_s", "lane_wait_s"});
    for (const double rate : {0.0, 0.05, 0.1, 0.2, 0.4}) {
      FaultSpec spec;
      spec.seed = 42;
      spec.compute_degrade_rate = rate;
      spec.compute_degrade_factor = 4.0;
      ExperimentConfig cfg = paper_config(4096, 1120, 1600);
      ParallelVolumeRenderer bsp(cfg);
      const FaultPlan plan =
          FaultPlan::generate(bsp.partition(), cfg.storage, spec);
      const FrameStats base = bsp.model_frame_with_faults(plan);

      cfg.runtime_mode = RuntimeMode::kAsync;
      ParallelVolumeRenderer async(cfg);
      const FrameStats f = async.model_frame_with_faults(plan);

      const std::string label = pvr::fmt_f(rate * 100.0, 0) + "pct";
      table.add_row({pvr::fmt_f(rate * 100.0, 0) + "%",
                     pvr::fmt_f(base.total_seconds(), 3),
                     pvr::fmt_f(f.total_seconds(), 3),
                     pvr::fmt_f(f.async.reclaimed_seconds, 3),
                     pvr::fmt_f(f.async.lane_wait_seconds, 3)});
      register_sim("async/degraded/" + label, f.total_seconds(),
                   {{"procs", 4096.0},
                    {"bsp_s", base.total_seconds()},
                    {"reclaimed_s", f.async.reclaimed_seconds},
                    {"lane_wait_s", f.async.lane_wait_seconds},
                    {"io_s", f.io_seconds},
                    {"render_s", f.render_seconds},
                    {"composite_s", f.composite_seconds}});
    }
    table.print();
    std::puts("");
  }

  // --- Sweep 3: multi-frame cadence. The free run hides frame t+1's
  // storage fetch under frame t's compositing tail (cross-frame
  // read-ahead), so the pipelined ideal beats n * healthy. ---
  {
    pvr::TextTable table(
        "Async S3 — 4-frame run cadence, 4096 procs, 1120^3/1600^2");
    table.set_header({"mode", "total_s", "ideal_s", "eff_fps", "readahead_s"});
    ExperimentConfig cfg = paper_config(4096, 1120, 1600);
    ParallelVolumeRenderer bsp(cfg);
    const RunStats base = bsp.model_run(4);
    // Registered before the async run, so each row's host wall ms holds
    // its own run.
    register_sim("async/run4/bsp", base.total_seconds,
                 {{"ideal_s", base.ideal_seconds}});

    cfg.runtime_mode = RuntimeMode::kAsync;
    ParallelVolumeRenderer async(cfg);
    const RunStats run = async.model_run(4);
    double readahead = 0.0;
    for (const FrameStats& f : run.frames) {
      readahead += f.async.readahead_seconds;
    }
    table.add_row({"bsp", pvr::fmt_f(base.total_seconds, 3),
                   pvr::fmt_f(base.ideal_seconds, 3),
                   pvr::fmt_f(base.effective_fps(), 4), "-"});
    table.add_row({"async-free", pvr::fmt_f(run.total_seconds, 3),
                   pvr::fmt_f(run.ideal_seconds, 3),
                   pvr::fmt_f(run.effective_fps(), 4),
                   pvr::fmt_f(readahead, 3)});
    register_sim("async/run4/free", run.total_seconds,
                 {{"bsp_s", base.total_seconds},
                  {"ideal_s", run.ideal_seconds},
                  {"readahead_s", readahead}});
    table.print();
    std::puts("");
  }

  // Bottleneck attribution of a degraded free-mode frame: the reclaimed
  // skew stays on the books as the frame arg the profiler reads back
  // (overlap_reclaimed_seconds), while the buckets still sum exactly.
  {
    FaultSpec spec;
    spec.seed = 42;
    spec.compute_degrade_rate = 0.2;
    spec.compute_degrade_factor = 4.0;
    ExperimentConfig cfg = paper_config(4096, 1120, 1600);
    cfg.runtime_mode = RuntimeMode::kAsync;
    ParallelVolumeRenderer traced(cfg);
    const FaultPlan plan =
        FaultPlan::generate(traced.partition(), cfg.storage, spec);
    pvr::obs::Tracer tracer;
    traced.set_tracer(&tracer);
    traced.model_frame_with_faults(plan);
    const pvr::profile::Profile prof = pvr::profile::analyze(tracer);
    record_profile("async/degraded/20pct", prof.frames.front());
  }

  std::puts(
      "Takeaway: the free graph turns barrier skew and the cross-frame\n"
      "fetch into overlap, so async never exceeds — and under degraded\n"
      "nodes strictly beats — the superstep price.\n");

  // Host cost of S3's async run, timed after every modeled row so that no
  // row's wall ms includes it.
  {
    ExperimentConfig cfg = paper_config(4096, 1120, 1600);
    cfg.runtime_mode = RuntimeMode::kAsync;
    cfg.host_threads = 1;
    ParallelVolumeRenderer async(cfg);
    const double best_ms = fastest_ms([&] { async.model_run(4); });
    record_host_exec("async/run4/free", best_ms);
    std::printf("Async model_run(4) at 4096 procs, 1 host thread: %.1f ms\n\n",
                best_ms);
  }
  return run_benchmarks(argc, argv);
}
