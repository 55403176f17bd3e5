// Ablation A10: multivariate I/O amortization. The paper argues for reading
// netCDF directly because it "affords the possibility to perform
// multivariate visualizations in the future"; this bench quantifies the
// payoff — in the record-interleaved layout, reading more variables barely
// increases physical I/O, so the per-variable cost collapses — and times
// one execute-mode univariate and one bivariate frame on the host.
#include <unistd.h>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace pvrbench;
  using pvr::format::FileFormat;

  const std::int64_t ranks = 2048;
  const std::vector<std::string> all = {"pressure", "density", "vx", "vy",
                                        "vz"};

  for (const bool tuned : {false, true}) {
    ExperimentConfig cfg =
        paper_config(ranks, 1120, 1600, FileFormat::kNetcdfRecord);
    if (tuned) {
      cfg.hints =
          pvr::iolib::Hints::tuned_for_record(cfg.dataset.slice_bytes());
    }
    ParallelVolumeRenderer renderer(cfg);

    pvr::TextTable table(std::string("Ablation A10 — variables per read, ") +
                         (tuned ? "tuned" : "untuned") +
                         " PnetCDF (1120^3, 2K cores)");
    table.set_header({"variables", "io_s", "s_per_variable", "physical",
                      "density"});
    for (std::size_t nv = 1; nv <= all.size(); ++nv) {
      const std::vector<std::string> vars(all.begin(),
                                          all.begin() + std::int64_t(nv));
      const auto io = renderer.model_io_vars(vars);
      table.add_row({pvr::fmt_int(std::int64_t(nv)),
                     pvr::fmt_f(io.seconds, 1),
                     pvr::fmt_f(io.seconds / double(nv), 1),
                     pvr::fmt_bytes(double(io.physical_bytes)),
                     pvr::fmt_f(io.data_density(), 2)});
      register_sim(std::string("ablation_multivar/") +
                       (tuned ? "tuned" : "untuned") + "/vars" +
                       pvr::fmt_int(std::int64_t(nv)),
                   io.seconds, {{"density", io.data_density()}});
    }
    table.print();
    std::puts("");
  }
  std::puts(
      "Reading all five variables costs little more than reading one: the\n"
      "record layout's amplification is amortized, which is exactly why\n"
      "direct multivariate reads beat per-variable preprocessing.\n");

  // Execute-mode frames from one SHDF 128^3 five-variable file, at one
  // host thread: a univariate pressure frame, and a bivariate frame with
  // colour from pressure and opacity from density. Both cast the same
  // sample lattice, so their fastest-of-5 wall ms in "host.exec" price the
  // bivariate sample against the univariate one; the modeled rows and
  // profiles above are untouched.
  {
    ExperimentConfig cfg = paper_config(64, 128, 512, FileFormat::kShdf);
    cfg.variable = "pressure";
    cfg.host_threads = 1;
    const std::filesystem::path path =
        std::filesystem::temp_directory_path() /
        ("pvr_bench_multivar_" + std::to_string(::getpid()) + ".shdf");
    pvr::data::write_supernova_file(cfg.dataset, path.string(), 1530);
    ParallelVolumeRenderer renderer(cfg);
    const auto tf =
        pvr::render::BivariateTransferFunction::supernova_bivariate();
    pvr::Image image;
    const std::string base = "ablation_multivar/exec/shdf/128^3/512^2/64procs";
    const double uni_ms =
        fastest_ms([&] { renderer.execute_frame(path.string(), &image); });
    const double bi_ms = fastest_ms([&] {
      renderer.execute_frame_bivariate(path.string(), "density", tf, &image);
    });
    std::filesystem::remove(path);
    record_host_exec(base + "/univariate", uni_ms);
    record_host_exec(base + "/bivariate", bi_ms);
    std::printf("Execute frames %s: univariate %.1f ms, bivariate %.1f ms "
                "(%.2fx)\n\n",
                base.c_str(), uni_ms, bi_ms, bi_ms / uni_ms);
  }
  return run_benchmarks(argc, argv);
}
