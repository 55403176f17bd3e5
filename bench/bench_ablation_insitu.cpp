// Ablation A7 (the paper's concluding motivation): in-situ visualization.
// "We hope that in situ techniques will ... eliminate or reduce expensive
// storage accesses, because, as our research shows, I/O dominates
// large-scale visualization." Compares the post-hoc pipeline (read a stored
// time step, then render) against in-situ rendering (data resident in the
// simulation) across the sweep, for the 1120^3 and 2240^3 problems, and
// times one execute-mode in-situ frame on the host.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace pvrbench;

  struct Size {
    std::int64_t grid;
    int image;
  };
  for (const Size& s : {Size{1120, 1600}, Size{2240, 2048}}) {
    pvr::TextTable table("Ablation A7 — post-hoc vs in-situ, " +
                         pvr::fmt_cubed(s.grid) + "/" +
                         pvr::fmt_squared(s.image));
    table.set_header({"procs", "posthoc_s", "insitu_s", "speedup"});
    for (const std::int64_t p : proc_sweep(1024)) {
      ExperimentConfig cfg = paper_config(p, s.grid, s.image);
      ParallelVolumeRenderer renderer(cfg);
      const FrameStats posthoc = renderer.model_frame();
      const FrameStats insitu = renderer.model_insitu_frame();
      table.add_row(
          {pvr::fmt_procs(p), pvr::fmt_f(posthoc.total_seconds(), 2),
           pvr::fmt_f(insitu.total_seconds(), 2),
           pvr::fmt_f(posthoc.total_seconds() / insitu.total_seconds(), 1) +
               "x"});
      register_sim("ablation_insitu/" + pvr::fmt_cubed(s.grid) + "/" +
                       pvr::fmt_procs(p),
                   insitu.total_seconds(),
                   {{"posthoc_s", posthoc.total_seconds()}});
    }
    table.print();
    std::puts("");
  }
  std::puts(
      "Removing the storage stage turns a ~tens-of-seconds frame into a\n"
      "sub-second one at scale — the paper's case for in-situ.\n");

  // Execute-mode in-situ frame on one and on four host threads: bricks
  // filled from the synthetic field (the simulation's stand-in), then
  // rendered and composited. Each fastest-of-5 wall ms lands in
  // "host.exec" (the four-thread row shows the work that runs on the
  // pool); the modeled rows and profiles above are untouched.
  for (const int threads : {1, 4}) {
    ExperimentConfig cfg = paper_config(64, 128, 512);
    cfg.host_threads = threads;
    ParallelVolumeRenderer renderer(cfg);
    const pvr::data::SupernovaField field(1530);
    pvr::Image image;
    const double best_ms =
        fastest_ms([&] { renderer.execute_insitu_frame(field, &image); });
    std::string name = "ablation_insitu/exec/128^3/512^2/64procs";
    if (threads > 1) name += "/" + pvr::fmt_int(threads) + "threads";
    record_host_exec(name, best_ms);
    std::printf("In-situ execute frame %s: %.1f ms\n", name.c_str(),
                best_ms);
  }
  std::puts("");
  return run_benchmarks(argc, argv);
}
