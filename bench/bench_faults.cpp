// Fault-injection study (beyond the paper): frame-time overhead and pixel
// coverage as a function of component failure rate. At 32 Ki cores and
// beyond, component failure is the steady state; this sweep prices the
// recovery policies (detour routing, tile reassignment, aggregator/ION/
// server failover) built into every layer. Deterministic: one seed per
// row, identical output on every run.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace pvrbench;
  using pvr::fault::FaultPlan;
  using pvr::fault::FaultSpec;

  bench_config_set("study", "fault injection");
  bench_config_set("size", "1120^3/1600^2");
  bench_config_set("seed", "42");
  bench_config_set("rates", "0%, 0.5%, 1%, 2%, 5% at 4096 procs; "
                            "1% at 256..4096 procs; "
                            "compositor sweep at 0.5%, 1%, 2%");

  // --- Sweep 1: failure rate at a fixed 4096-core partition. ---
  {
    pvr::TextTable table(
        "Faults F1 — frame vs failure rate, 4096 procs, 1120^3/1600^2");
    table.set_header({"fail_rate", "dead_nodes", "frame_s", "overhead",
                      "coverage", "rerouted", "retries"});
    ExperimentConfig cfg = paper_config(4096, 1120, 1600);
    ParallelVolumeRenderer renderer(cfg);
    const double healthy = renderer.model_frame().total_seconds();
    for (const double rate : {0.0, 0.005, 0.01, 0.02, 0.05}) {
      FaultSpec spec;
      spec.seed = 42;
      spec.node_fail_rate = rate;
      spec.link_fail_rate = rate / 2.0;
      spec.server_fail_rate = rate;
      spec.server_degrade_rate = rate;
      const FaultPlan plan = FaultPlan::generate(
          renderer.partition(), cfg.storage, spec);
      const FrameStats f = renderer.model_frame_with_faults(plan);
      const double overhead = f.total_seconds() / healthy - 1.0;
      table.add_row(
          {pvr::fmt_f(rate * 100.0, 1) + "%",
           std::to_string(f.faults.failed_nodes),
           pvr::fmt_f(f.total_seconds(), 2),
           pvr::fmt_f(overhead * 100.0, 1) + "%",
           pvr::fmt_f(f.faults.coverage * 100.0, 1) + "%",
           std::to_string(f.faults.rerouted_messages),
           std::to_string(f.faults.retries)});
      register_sim("faults/rate/" + pvr::fmt_f(rate * 100.0, 1) + "pct",
                   f.total_seconds(),
                   {{"coverage", f.faults.coverage},
                    {"overhead", overhead}});
    }
    table.print();
    std::puts("");
  }

  // --- Sweep 2: fixed 1% failure rate across the core-count sweep. ---
  {
    pvr::TextTable table(
        "Faults F2 — 1% node failures across scale, 1120^3/1600^2");
    table.set_header({"procs", "healthy_s", "faulty_s", "overhead",
                      "coverage"});
    for (const std::int64_t p : proc_sweep(256, 4096)) {
      ExperimentConfig cfg = paper_config(p, 1120, 1600);
      ParallelVolumeRenderer renderer(cfg);
      const double healthy = renderer.model_frame().total_seconds();
      FaultSpec spec;
      spec.seed = 42;
      spec.node_fail_rate = 0.01;
      const FaultPlan plan = FaultPlan::generate(
          renderer.partition(), cfg.storage, spec);
      const FrameStats f = renderer.model_frame_with_faults(plan);
      const double overhead = f.total_seconds() / healthy - 1.0;
      table.add_row({pvr::fmt_procs(p), pvr::fmt_f(healthy, 2),
                     pvr::fmt_f(f.total_seconds(), 2),
                     pvr::fmt_f(overhead * 100.0, 1) + "%",
                     pvr::fmt_f(f.faults.coverage * 100.0, 1) + "%"});
      register_sim("faults/scale/" + pvr::fmt_procs(p), f.total_seconds(),
                   {{"coverage", f.faults.coverage},
                    {"healthy_s", healthy}});
    }
    table.print();
    std::puts("");
  }

  // --- Sweep 3: failure rate x compositing algorithm at 4096 procs. ---
  // Direct-send recovers by tile reassignment; radix-k (binary swap is
  // radix 2) by partner substitution. Same plan, same coverage — the price
  // differs.
  {
    pvr::TextTable table(
        "Faults F3 — compositor recovery, 4096 procs, 1120^3/1600^2");
    table.set_header({"compositor", "fail_rate", "composite_s", "coverage",
                      "substituted", "proxied", "retries"});
    struct Algo {
      const char* name;
      pvr::compose::CompositeAlgorithm algorithm;
      int radix;  ///< radix-k only
    };
    const Algo algos[] = {
        {"direct_send", pvr::compose::CompositeAlgorithm::kDirectSend, 8},
        {"binary_swap", pvr::compose::CompositeAlgorithm::kRadixK, 2},
        {"radix_k", pvr::compose::CompositeAlgorithm::kRadixK, 8}};
    for (const Algo& algo : algos) {
      ExperimentConfig cfg = paper_config(4096, 1120, 1600);
      cfg.composite.algorithm = algo.algorithm;
      cfg.composite.radix = algo.radix;
      ParallelVolumeRenderer renderer(cfg);
      for (const double rate : {0.005, 0.01, 0.02}) {
        FaultSpec spec;
        spec.seed = 42;
        spec.node_fail_rate = rate;
        const FaultPlan plan = FaultPlan::generate(
            renderer.partition(), cfg.storage, spec);
        const FrameStats f = renderer.model_frame_with_faults(plan);
        table.add_row(
            {algo.name, pvr::fmt_f(rate * 100.0, 1) + "%",
             pvr::fmt_f(f.composite_seconds, 3),
             pvr::fmt_f(f.faults.coverage * 100.0, 1) + "%",
             std::to_string(f.faults.substituted_partners),
             std::to_string(f.faults.proxied_messages),
             std::to_string(f.faults.retries)});
        register_sim("faults/compositor/" + std::string(algo.name) + "/" +
                         pvr::fmt_f(rate * 100.0, 1) + "pct",
                     f.composite_seconds,
                     {{"coverage", f.faults.coverage},
                      {"substituted", double(f.faults.substituted_partners)},
                      {"proxied", double(f.faults.proxied_messages)}});
      }
    }
    table.print();
    std::puts("");
  }

  std::puts(
      "Recovery is priced, not free: detours and retries stretch the\n"
      "exchange terms while dead renderers shrink the delivered image\n"
      "(coverage < 100%). Identical seeds reproduce identical rows.\n");
  return run_benchmarks(argc, argv);
}
