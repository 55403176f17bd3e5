// Work-stealing study (beyond the paper): render straggler collapse as a
// function of degraded-node rate and steal policy. Thermal throttling and
// ECC scrubbing leave nodes alive but slow; under BSP the whole render
// stage waits for the slowest rank. pvr::steal lets idle ranks claim
// scanline chunks from the stragglers — this sweep prices both policies
// (claim-only scanline chunks, and whole-block re-replication over the
// torus) against the do-nothing baseline. Deterministic: one seed per row,
// identical output on every run.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace pvrbench;
  using pvr::fault::FaultPlan;
  using pvr::fault::FaultSpec;
  using pvr::steal::StealPolicy;

  bench_config_set("study", "render work stealing");
  bench_config_set("size", "1120^3/1600^2");
  bench_config_set("seed", "42");
  bench_config_set("degrade_factor", "4.0");
  bench_config_set("rates", "0%, 5%, 10%, 20%, 40% degraded at 4096 procs; "
                            "mixed 2% dead + 20% degraded");

  struct Policy {
    const char* name;
    StealPolicy policy;
  };
  const Policy policies[] = {
      {"scanline", StealPolicy::kScanlineChunks},
      {"replicate", StealPolicy::kReplicateBlocks}};

  // --- Sweep 1: degraded-node rate x steal policy, 4096 procs. ---
  {
    pvr::TextTable table(
        "Steal S1 — render stage vs degrade rate, 4096 procs, 1120^3/1600^2");
    table.set_header({"degrade", "policy", "render_s", "steal_s",
                      "straggler", "after", "chunks", "repl_MB"});
    for (const double rate : {0.0, 0.05, 0.1, 0.2, 0.4}) {
      FaultSpec spec;
      spec.seed = 42;
      spec.compute_degrade_rate = rate;
      spec.compute_degrade_factor = 4.0;
      ExperimentConfig cfg = paper_config(4096, 1120, 1600);
      ParallelVolumeRenderer baseline(cfg);
      const FaultPlan plan =
          FaultPlan::generate(baseline.partition(), cfg.storage, spec);
      const FrameStats off = baseline.model_frame_with_faults(plan);
      table.add_row({pvr::fmt_f(rate * 100.0, 0) + "%", "off",
                     pvr::fmt_f(off.render_seconds, 3), "-",
                     "-", "-", "-", "-"});
      register_sim("steal/rate/" + pvr::fmt_f(rate * 100.0, 0) + "pct/off",
                   off.render_seconds);
      for (const Policy& p : policies) {
        cfg.steal.policy = p.policy;
        ParallelVolumeRenderer stealing(cfg);
        const FrameStats f = stealing.model_frame_with_faults(plan);
        table.add_row(
            {pvr::fmt_f(rate * 100.0, 0) + "%", p.name,
             pvr::fmt_f(f.render_seconds, 3),
             pvr::fmt_f(f.steal.steal_seconds, 3),
             pvr::fmt_f(f.steal.straggler_before, 2),
             pvr::fmt_f(f.steal.straggler_after, 2),
             std::to_string(f.steal.chunks_stolen),
             pvr::fmt_f(double(f.steal.bytes_replicated) / (1 << 20), 0)});
        register_sim(
            "steal/rate/" + pvr::fmt_f(rate * 100.0, 0) + "pct/" + p.name,
            f.render_seconds,
            {{"straggler_before", f.steal.straggler_before},
             {"straggler_after", f.steal.straggler_after},
             {"chunks", double(f.steal.chunks_stolen)},
             {"repl_bytes", double(f.steal.bytes_replicated)},
             {"render_s", f.render_seconds},
             {"steal_s", f.steal.steal_seconds},
             {"baseline_render_s", off.render_seconds}});
      }
    }
    table.print();
    std::puts("");
  }

  // --- Sweep 2: mixed faults — dead nodes drop work, degraded nodes slow
  // it; stealing rebalances among the live ranks while the fault plan
  // prices detours around the dead ones. ---
  {
    pvr::TextTable table(
        "Steal S2 — 2% dead + 20% degraded, 4096 procs, 1120^3/1600^2");
    table.set_header({"policy", "render_s", "steal_s", "straggler", "after",
                      "chunks", "repl_MB"});
    FaultSpec spec;
    spec.seed = 42;
    spec.node_fail_rate = 0.02;
    spec.compute_degrade_rate = 0.2;
    spec.compute_degrade_factor = 4.0;
    ExperimentConfig cfg = paper_config(4096, 1120, 1600);
    ParallelVolumeRenderer baseline(cfg);
    const FaultPlan plan =
        FaultPlan::generate(baseline.partition(), cfg.storage, spec);
    const FrameStats off = baseline.model_frame_with_faults(plan);
    table.add_row({"off", pvr::fmt_f(off.render_seconds, 3), "-", "-", "-",
                   "-", "-"});
    register_sim("steal/mixed/off", off.render_seconds);
    for (const Policy& p : policies) {
      cfg.steal.policy = p.policy;
      ParallelVolumeRenderer stealing(cfg);
      const FrameStats f = stealing.model_frame_with_faults(plan);
      table.add_row({p.name, pvr::fmt_f(f.render_seconds, 3),
                     pvr::fmt_f(f.steal.steal_seconds, 3),
                     pvr::fmt_f(f.steal.straggler_before, 2),
                     pvr::fmt_f(f.steal.straggler_after, 2),
                     std::to_string(f.steal.chunks_stolen),
                     pvr::fmt_f(double(f.steal.bytes_replicated) / (1 << 20),
                                0)});
      register_sim("steal/mixed/" + std::string(p.name), f.render_seconds,
                   {{"straggler_before", f.steal.straggler_before},
                    {"straggler_after", f.steal.straggler_after},
                    {"chunks", double(f.steal.chunks_stolen)},
                    {"repl_bytes", double(f.steal.bytes_replicated)},
                    {"render_s", f.render_seconds},
                    {"steal_s", f.steal.steal_seconds},
                    {"baseline_render_s", off.render_seconds}});
    }
    table.print();
    std::puts("");

    // Bottleneck attribution of the mixed faulty + stealing frame (the
    // hardest case: fault recovery, steal traffic, and skew all present).
    cfg.steal.policy = StealPolicy::kScanlineChunks;
    ParallelVolumeRenderer traced(cfg);
    pvr::obs::Tracer tracer;
    traced.set_tracer(&tracer);
    traced.model_frame_with_faults(plan);
    const pvr::profile::Profile prof = pvr::profile::analyze(tracer);
    record_profile("steal/mixed/scanline", prof.frames.front());
  }

  // Execute-mode render under the steal path: each block renders as four
  // scanline bands through render_block_rows (the unit of work a thief
  // claims), stitched in row order and pinned against whole-block renders.
  // Modeled seconds in "rows" come from the deterministic sample tally; the
  // measured wall ms land in "host.exec".
  {
    const ExecResult r = measure_exec_kernel(
        /*grid=*/96, /*image=*/448, /*blocks=*/8, /*bands=*/4, /*seed=*/42);
    const std::string name = "steal/exec/96^3/448^2/8blk/4band";
    register_sim(name, double(r.samples) / 1e8,
                 {{"samples", double(r.samples)},
                  {"bands", 4.0},
                  {"subimage_pixels", double(r.subimage_pixels)}});
    record_host_exec(name, r.ms);
    std::printf("Steal exec — banded render kernel: %lld samples, %.1f ms\n\n",
                static_cast<long long>(r.samples), r.ms);
  }

  return run_benchmarks(argc, argv);
}
