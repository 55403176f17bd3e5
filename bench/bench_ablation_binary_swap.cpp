// Ablation A2: direct-send (original and improved) vs binary swap across
// the core sweep. Binary swap exchanges fewer, larger messages in log2(n)
// synchronized rounds; direct-send does one round of many messages. The
// paper uses direct-send; its successor work (radix-k) interpolates between
// the two — this ablation shows why the middle ground matters. Binary swap
// is radix-k with every round radix 2, so it runs as model_radix_k(2).
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace pvrbench;
  using pvr::compose::CompositorPolicy;

  pvr::TextTable table(
      "Ablation A2 — compositing algorithm comparison (1120^3, 1600^2)");
  table.set_header({"procs", "direct_send_orig_s", "direct_send_impr_s",
                    "binary_swap_s", "bswap_msgs", "ds_msgs"});

  for (const std::int64_t p : proc_sweep(256)) {
    ExperimentConfig cfg = paper_config(p, 1120, 1600);
    ParallelVolumeRenderer renderer(cfg);
    const auto orig = renderer.model_composite(CompositorPolicy::kOriginal);
    const auto impr = renderer.model_composite(CompositorPolicy::kImproved);
    const auto bswap = renderer.model_radix_k(2);
    table.add_row({pvr::fmt_procs(p), pvr::fmt_f(orig.seconds, 3),
                   pvr::fmt_f(impr.seconds, 3), pvr::fmt_f(bswap.seconds, 3),
                   pvr::fmt_int(bswap.messages), pvr::fmt_int(orig.messages)});
    register_sim("ablation_bswap/direct_orig/" + pvr::fmt_procs(p),
                 orig.seconds);
    register_sim("ablation_bswap/direct_impr/" + pvr::fmt_procs(p),
                 impr.seconds);
    register_sim("ablation_bswap/binary_swap/" + pvr::fmt_procs(p),
                 bswap.seconds);
  }
  table.print();
  std::puts(
      "\nBinary swap avoids the small-message flood but pays log2(n)\n"
      "synchronized rounds; improved direct-send stays a single round with\n"
      "bounded message counts.\n");
  return run_benchmarks(argc, argv);
}
