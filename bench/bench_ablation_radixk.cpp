// Ablation A9: radix-k — the successor algorithm to this paper's
// compositing study. Sweeps the radix between binary swap (k = 2) and a
// single direct-send-like round, locating the optimum the radix-k paper
// reports lies in between, and compares against this paper's improved
// direct-send.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace pvrbench;
  using pvr::compose::CompositorPolicy;
  using pvr::compose::RadixKCompositor;

  for (const std::int64_t n : {std::int64_t(4096), std::int64_t(32768)}) {
    ExperimentConfig cfg = paper_config(n, 1120, 1600);
    ParallelVolumeRenderer renderer(cfg);
    pvr::TextTable table("Ablation A9 — radix-k sweep, n = " +
                         pvr::fmt_procs(n) + " (1120^3, 1600^2)");
    table.set_header({"algorithm", "rounds", "composite_s", "messages"});

    const auto impr = renderer.model_composite(CompositorPolicy::kImproved);
    table.add_row({"direct-send (improved, paper)", "1",
                   pvr::fmt_f(impr.seconds, 3), pvr::fmt_int(impr.messages)});
    register_sim("ablation_radixk/n" + pvr::fmt_procs(n) + "/direct_impr",
                 impr.seconds);

    for (const int k : {2, 4, 8, 16, 32}) {
      const auto radices = RadixKCompositor::factor(n, k);
      const auto stats = renderer.model_radix_k(k);
      table.add_row({k == 2 ? std::string("binary swap (= radix-2)")
                            : "radix-" + pvr::fmt_int(k),
                     pvr::fmt_int(std::int64_t(radices.size())),
                     pvr::fmt_f(stats.seconds, 3),
                     pvr::fmt_int(stats.messages)});
      register_sim("ablation_radixk/n" + pvr::fmt_procs(n) + "/k" +
                       pvr::fmt_int(k),
                   stats.seconds, {{"messages", double(stats.messages)}});
    }
    table.print();
    std::puts("");
  }
  std::puts(
      "Moderate radices trade binary swap's many synchronized rounds\n"
      "against direct-send's message flood — the insight this paper's\n"
      "compositor limiting anticipated and the radix-k paper formalized.\n");
  return run_benchmarks(argc, argv);
}
