// Figure 5: total frame time for the three (data, image) size pairs —
// (1120^3, 1600^2), (2240^3, 2048^2), (4480^3, 4096^2) — across the core
// sweep. The paper's point: even 2K-4K cores can visualize any of the
// problem sizes, given enough time.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace pvrbench;

  struct Size {
    std::int64_t grid;
    int image;
  };
  const Size sizes[] = {{1120, 1600}, {2240, 2048}, {4480, 4096}};
  bench_config_set("figure", "5");
  bench_config_set("sizes", "1120^3/1600^2, 2240^3/2048^2, 4480^3/4096^2");
  bench_config_set("procs", "64..32768");
  bench_config_set("policy", "improved direct-send");

  pvr::TextTable table("Figure 5 — Overall performance summary (seconds)");
  table.set_header({"procs", "1120^3/1600^2", "2240^3/2048^2",
                    "4480^3/4096^2"});

  for (const std::int64_t p : proc_sweep()) {
    std::vector<std::string> row = {pvr::fmt_procs(p)};
    for (const Size& s : sizes) {
      ExperimentConfig cfg = paper_config(p, s.grid, s.image);
      ParallelVolumeRenderer renderer(cfg);
      const FrameStats f = renderer.model_frame();
      row.push_back(pvr::fmt_f(f.total_seconds(), 1));
      register_sim("fig5/" + pvr::fmt_cubed(s.grid) + "/" + pvr::fmt_procs(p),
                   f.total_seconds(),
                   {{"procs", double(p)},
                    {"io_s", f.io_seconds},
                    {"render_s", f.render_seconds},
                    {"composite_s", f.composite_seconds}});
    }
    table.add_row(std::move(row));
  }
  table.print();

  // Bottleneck attribution of a representative frame (1120^3 at 4096
  // procs) for the JSON "profile" section the perf gate checks.
  {
    ExperimentConfig cfg = paper_config(4096, 1120, 1600);
    ParallelVolumeRenderer renderer(cfg);
    pvr::obs::Tracer tracer;
    renderer.set_tracer(&tracer);
    renderer.model_frame();
    const pvr::profile::Profile prof = pvr::profile::analyze(tracer);
    record_profile("fig5/1120^3/4K", prof.frames.front());
  }
  // Execute-mode render: a real (downscaled) fig5 frame rendered on this
  // host with the raycast kernel. The modeled seconds registered in "rows"
  // come from the deterministic sample tally (byte-identical across
  // machines and backends); the measured wall ms land in the JSON
  // "host.exec" section.
  {
    pvr::TextTable exec_table("Fig5 exec — measured render kernel (this host)");
    exec_table.set_header({"scene", "samples", "ms"});
    struct Exec {
      std::int64_t grid;
      int image;
      std::int64_t blocks;
    };
    // Two scene scales: a full-volume single brick (pure kernel) and the
    // decomposed 8-brick frame (ghost bricks, per-block footprints).
    const Exec execs[] = {{96, 512, 1}, {128, 448, 8}};
    for (const Exec& e : execs) {
      const ExecResult r = measure_exec_kernel(e.grid, e.image, e.blocks,
                                               /*bands=*/1, /*seed=*/42);
      const std::string name = "fig5/exec/" + pvr::fmt_cubed(e.grid) + "/" +
                               std::to_string(e.image) + "^2/" +
                               std::to_string(e.blocks) + "blk";
      // Modeled seconds: sample tally at the calibrated BG/P per-core rate
      // stand-in of 1e8 samples/s — deterministic, so the row is gateable.
      register_sim(name, double(r.samples) / 1e8,
                   {{"samples", double(r.samples)},
                    {"blocks", double(e.blocks)},
                    {"subimage_pixels", double(r.subimage_pixels)}});
      record_host_exec(name, r.ms);
      exec_table.add_row(
          {pvr::fmt_cubed(e.grid) + "/" + std::to_string(e.image) + "^2/" +
               std::to_string(e.blocks) + "blk",
           std::to_string(r.samples), pvr::fmt_f(r.ms, 1)});
    }
    exec_table.print();
  }
  std::puts(
      "\nPaper: all three sizes complete at every scale; larger data is\n"
      "I/O-bound and takes minutes rather than seconds.\n");
  return run_benchmarks(argc, argv);
}
