// Shared helpers for the figure/table benchmark harness.
//
// Every bench binary computes its experiment rows once (model mode at paper
// scale), prints the paper-style table, and registers one google-benchmark
// entry per row whose manual time is the modeled seconds — so standard
// benchmark tooling (filters, JSON output) works over the reproduction.
//
// Machine-readable output: every row registered via register_sim is also
// recorded, and run_benchmarks writes them (plus any bench_config_set
// entries) to bench_out/<binary-name>.json next to the working directory —
// so sweep results can be diffed and plotted without scraping tables.
#pragma once

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "pvr.hpp"
#include "render/simd/vec8.hpp"

#ifndef PVR_GIT_DESCRIBE
#define PVR_GIT_DESCRIBE "unknown"
#endif

namespace pvrbench {

using pvr::core::ExperimentConfig;
using pvr::core::FrameStats;
using pvr::core::ParallelVolumeRenderer;

/// Version of the bench JSON layout. Bump when keys move or change meaning;
/// the perf gate refuses to compare dumps across versions.
inline constexpr std::int64_t kBenchSchemaVersion = 2;

/// The paper's core-count sweep: 64, 128, ..., 32768.
inline std::vector<std::int64_t> proc_sweep(std::int64_t lo = 64,
                                            std::int64_t hi = 32768) {
  std::vector<std::int64_t> procs;
  for (std::int64_t p = lo; p <= hi; p *= 2) procs.push_back(p);
  return procs;
}

/// Baseline experiment configuration for a paper run.
inline ExperimentConfig paper_config(
    std::int64_t ranks, std::int64_t grid, int image,
    pvr::format::FileFormat fmt = pvr::format::FileFormat::kRaw) {
  ExperimentConfig cfg;
  cfg.num_ranks = ranks;
  cfg.dataset = pvr::format::supernova_desc(fmt, grid);
  cfg.variable = cfg.dataset.variables.front();
  cfg.image_width = cfg.image_height = image;
  cfg.composite.policy = pvr::compose::CompositorPolicy::kImproved;
  return cfg;
}

/// One recorded sweep row: benchmark name, modeled seconds, extra counters.
struct SimRow {
  std::string name;
  double seconds = 0.0;
  std::vector<std::pair<std::string, double>> counters;
};

inline std::vector<SimRow>& sim_rows() {
  static std::vector<SimRow> rows;
  return rows;
}

/// Host wall-clock ms attributed to each row: measured as the time between
/// successive register_sim calls, which brackets exactly the row's model
/// computation in the standard compute-then-register loop. Kept out of
/// "rows" in the JSON, so the modeled numbers stay byte-identical across
/// host thread counts while the wall clock (which is allowed to vary) lands
/// in the separate "host" section.
struct HostRow {
  std::string name;
  double wall_ms = 0.0;
};

inline std::vector<HostRow>& host_rows() {
  static std::vector<HostRow> rows;
  return rows;
}

/// Measured wall time of one timed row: an execute-mode frame, or a model
/// run (bench_async). Lives in the JSON
/// "host" section ("exec" array) next to wall_ms: the modeled seconds in
/// "rows" stay byte-identical across backends and thread counts, while the
/// measured time is a committed, machine-dependent number.
struct HostExecRow {
  std::string name;
  std::string backend;  ///< SIMD backend the kernel was built for
  double ms = 0.0;
};

inline std::vector<HostExecRow>& host_exec_rows() {
  static std::vector<HostExecRow> rows;
  return rows;
}

inline void record_host_exec(const std::string& name, double ms) {
  host_exec_rows().push_back(
      HostExecRow{name, pvr::render::simd::backend_name(), ms});
}

/// Result of one execute-mode kernel timing: the measured render wall ms
/// and the sample/pixel tallies (the deterministic numbers that feed the
/// modeled row).
struct ExecResult {
  double ms = 0.0;
  std::int64_t samples = 0;
  std::int64_t subimage_pixels = 0;
};

/// Renders a real execute-mode scene — `grid`^3 supernova field decomposed
/// into `blocks` ghost bricks, `image`^2 camera — and returns the
/// fastest-of-`repeats` render wall time. With `bands` > 1 each block
/// renders as that many scanline bands through render_block_rows (the
/// work-stealing path) instead of one render_block call, and the stitched
/// bands are required to equal whole-block renders bitwise. Timing covers
/// only the render loop; brick fill and verification run outside the clock.
inline ExecResult measure_exec_kernel(std::int64_t grid, int image,
                                      std::int64_t blocks, int bands,
                                      std::uint64_t seed, int repeats = 5) {
  using pvr::Brick;
  using pvr::render::Camera;
  using pvr::render::Decomposition;
  using pvr::render::Raycaster;
  using pvr::render::RenderConfig;
  using pvr::render::SubImage;
  using pvr::render::TransferFunction;

  const pvr::Vec3i dims{grid, grid, grid};
  const Decomposition d(dims, blocks);
  const Camera cam = Camera::default_view(dims, image, image);
  const TransferFunction tf = TransferFunction::supernova();
  const pvr::data::SupernovaField field(seed);

  std::vector<Brick> bricks;
  std::vector<pvr::Box3i> owned;
  std::vector<pvr::Rect> footprints;
  bricks.reserve(std::size_t(d.num_blocks()));
  owned.reserve(std::size_t(d.num_blocks()));
  footprints.reserve(std::size_t(d.num_blocks()));
  for (std::int64_t b = 0; b < d.num_blocks(); ++b) {
    bricks.emplace_back(d.ghost_box(b, 1));
    field.fill_brick(pvr::data::Variable::kDensity, dims, &bricks.back());
    owned.push_back(d.block_box(b));
    footprints.push_back(
        cam.footprint(pvr::render::world_box_of(owned.back(), dims)));
  }

  // One full frame's worth of render work. bands <= 1 is the fig5 shape
  // (one render_block per block); bands > 1 is the steal shape (scanline
  // bands through render_block_rows, stitched in row order).
  const Raycaster caster(dims, RenderConfig{});
  const auto render_once = [&] {
    std::vector<SubImage> images;
    images.reserve(bricks.size());
    for (std::size_t b = 0; b < bricks.size(); ++b) {
      if (bands <= 1) {
        images.push_back(caster.render_block(bricks[b], owned[b], cam, tf));
        continue;
      }
      SubImage stitched;
      stitched.rect = footprints[b];
      stitched.pixels.assign(std::size_t(stitched.rect.pixel_count()),
                             pvr::kTransparent);
      const std::int64_t rows = std::max(0, stitched.rect.height());
      const std::size_t width = std::size_t(stitched.rect.width());
      for (int band = 0; band < bands; ++band) {
        const std::int64_t r0 = rows * band / bands;
        const std::int64_t r1 = rows * (band + 1) / bands;
        if (r0 >= r1) continue;
        const SubImage part =
            caster.render_block_rows(bricks[b], owned[b], cam, tf, r0, r1);
        std::copy(part.pixels.begin(), part.pixels.end(),
                  stitched.pixels.begin() +
                      std::ptrdiff_t(std::size_t(r0) * width));
        stitched.samples += part.samples;
      }
      images.push_back(std::move(stitched));
    }
    return images;
  };

  // The warm-up pass supplies the sample and pixel tallies; with bands > 1
  // its stitched images are also pinned against whole-block renders
  // (outside the timer).
  const std::vector<SubImage> images = render_once();
  if (bands > 1) {
    for (std::size_t b = 0; b < bricks.size(); ++b) {
      const SubImage whole = caster.render_block(bricks[b], owned[b], cam, tf);
      PVR_REQUIRE(images[b].samples == whole.samples &&
                      std::memcmp(images[b].pixels.data(),
                                  whole.pixels.data(),
                                  whole.pixels.size() * sizeof(pvr::Rgba)) ==
                          0,
                  "band stitching diverged from whole-block render");
    }
  }
  ExecResult result;
  for (int rep = 0; rep < repeats; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<SubImage> timed = render_once();
    const auto t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(timed.data());
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (rep == 0 || ms < result.ms) result.ms = ms;
  }
  for (const SubImage& img : images) {
    result.samples += img.samples;
    result.subimage_pixels += std::int64_t(img.pixels.size());
  }
  return result;
}

/// Fastest wall ms of `repeats` calls of `run`: the host time of one
/// execute-mode frame or model run for a "host.exec" row.
template <typename Run>
double fastest_ms(Run&& run, int repeats = 5) {
  double best = 0.0;
  for (int rep = 0; rep < repeats; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    run();
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    if (rep == 0 || ms < best) best = ms;
  }
  return best;
}

/// Start of the next host row. Set during static initialization — before
/// any row's work runs — and advanced by every register_sim, so the first
/// row measures its own work like every other row.
inline std::chrono::steady_clock::time_point host_clock_mark =
    std::chrono::steady_clock::now();

/// One recorded frame profile: a representative frame's bottleneck
/// attribution, emitted into the JSON "profile" section so the perf gate
/// can name the bucket that regressed, not just the row.
struct ProfileRow {
  std::string label;
  pvr::profile::Attribution attribution;
};

inline std::vector<ProfileRow>& profile_rows() {
  static std::vector<ProfileRow> rows;
  return rows;
}

/// Records an attribution for the JSON dump. Typical use: trace one
/// representative frame (or whole run) of the sweep, run profile::analyze,
/// record the breakdown under a stable label.
inline void record_profile(const std::string& label,
                           const pvr::profile::Attribution& attribution) {
  profile_rows().push_back(ProfileRow{label, attribution});
}

inline void record_profile(const std::string& label,
                           const pvr::profile::FrameProfile& profile) {
  record_profile(label, profile.attribution);
}

/// Key/value configuration entries echoed into the JSON output (grid size,
/// policies, seeds — whatever identifies the sweep).
inline std::vector<std::pair<std::string, std::string>>& bench_config() {
  static std::vector<std::pair<std::string, std::string>> entries;
  return entries;
}

inline void bench_config_set(const std::string& key,
                             const std::string& value) {
  bench_config().emplace_back(key, value);
}

/// Registers a benchmark whose reported time is precomputed modeled seconds,
/// and records the row for the JSON dump written by run_benchmarks.
inline void register_sim(
    const std::string& name, double seconds,
    std::vector<std::pair<std::string, double>> counters = {}) {
  const auto now = std::chrono::steady_clock::now();
  host_rows().push_back(HostRow{
      name, std::chrono::duration<double, std::milli>(now - host_clock_mark)
                .count()});
  host_clock_mark = now;
  sim_rows().push_back(SimRow{name, seconds, counters});
  benchmark::RegisterBenchmark(
      name.c_str(),
      [seconds, counters = std::move(counters)](benchmark::State& state) {
        for (auto _ : state) {
          state.SetIterationTime(seconds);
        }
        for (const auto& [key, value] : counters) {
          state.counters[key] = value;
        }
      })
      ->UseManualTime()
      ->Iterations(1)
      ->Unit(benchmark::kSecond);
}

namespace detail {

inline std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

}  // namespace detail

/// Peak resident set of this process in MiB: VmHWM, the high-water mark of
/// its own address space, as bench/e2e reads it (getrusage's ru_maxrss
/// folds in the launching process's pre-exec peak). 0 where there is no
/// /proc/self/status.
inline double peak_rss_mb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  double kib = 0.0;
  char line[256];
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(status);
  return kib / 1024.0;
}

/// Renders the recorded rows + config as a JSON document.
inline std::string bench_json(const std::string& name) {
  std::string out = "{\n  \"bench\": \"" + pvr::obs::json_escape(name) +
                    "\",\n  \"schema_version\": " +
                    std::to_string(kBenchSchemaVersion) +
                    ",\n  \"git_describe\": \"" +
                    pvr::obs::json_escape(PVR_GIT_DESCRIBE) +
                    "\",\n  \"config\": {";
  bool first = true;
  for (const auto& [key, value] : bench_config()) {
    out += first ? "\n" : ",\n";
    out += "    \"" + pvr::obs::json_escape(key) + "\": \"" +
           pvr::obs::json_escape(value) + "\"";
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"rows\": [";
  first = true;
  for (const SimRow& row : sim_rows()) {
    out += first ? "\n" : ",\n";
    out += "    {\"name\": \"" + pvr::obs::json_escape(row.name) +
           "\", \"seconds\": " + detail::json_number(row.seconds);
    for (const auto& [key, value] : row.counters) {
      out += ", \"" + pvr::obs::json_escape(key) +
             "\": " + detail::json_number(value);
    }
    out += "}";
    first = false;
  }
  out += first ? "]," : "\n  ],";
  // Bottleneck attribution of representative frames (profile::analyze over
  // a traced frame). Deterministic like "rows"; the gate checks buckets.
  out += "\n  \"profile\": [";
  first = true;
  for (const ProfileRow& prof : profile_rows()) {
    out += first ? "\n" : ",\n";
    out += "    {\"label\": \"" + pvr::obs::json_escape(prof.label) +
           "\", \"total_s\": " +
           detail::json_number(prof.attribution.total_seconds()) +
           ", \"buckets\": {";
    for (int b = 0; b < pvr::profile::kNumBuckets; ++b) {
      const auto bucket = pvr::profile::Bucket(b);
      out += b > 0 ? ", " : "";
      out += std::string("\"") + pvr::profile::to_string(bucket) + "\": " +
             detail::json_number(prof.attribution.seconds(bucket));
    }
    out += "}}";
    first = false;
  }
  out += first ? "]," : "\n  ],";
  // Host-side provenance and timings live OUTSIDE "rows": the modeled
  // numbers above must be byte-identical across host thread counts, while
  // wall clock may (and should) vary with PVR_THREADS.
  double total_ms = 0.0;
  for (const HostRow& row : host_rows()) total_ms += row.wall_ms;
  out += "\n  \"host\": {\n    \"threads\": " +
         std::to_string(pvr::par::resolve_threads(0)) +
         ",\n    \"git\": \"" + pvr::obs::json_escape(PVR_GIT_DESCRIBE) +
         "\",\n    \"total_wall_ms\": " + detail::json_number(total_ms) +
         ",\n    \"peak_rss_mb\": " + detail::json_number(peak_rss_mb()) +
         ",\n    \"wall_ms\": [";
  first = true;
  for (const HostRow& row : host_rows()) {
    out += first ? "\n" : ",\n";
    out += "      {\"name\": \"" + pvr::obs::json_escape(row.name) +
           "\", \"ms\": " + detail::json_number(row.wall_ms) + "}";
    first = false;
  }
  out += first ? "]," : "\n    ],";
  // Timed rows: measured wall ms of execute-mode frames on real scenes (and
  // of bench_async's model run), with the SIMD backend the build targets.
  out += "\n    \"exec\": [";
  first = true;
  for (const HostExecRow& row : host_exec_rows()) {
    out += first ? "\n" : ",\n";
    out += "      {\"name\": \"" + pvr::obs::json_escape(row.name) +
           "\", \"backend\": \"" + pvr::obs::json_escape(row.backend) +
           "\", \"ms\": " + detail::json_number(row.ms) + "}";
    first = false;
  }
  out += first ? "]\n  }\n}\n" : "\n    ]\n  }\n}\n";
  return out;
}

/// Writes bench_out/<binary-name>.json with every registered row.
inline void write_bench_json(const char* argv0) {
  const std::string name = std::filesystem::path(argv0).stem().string();
  std::filesystem::create_directories("bench_out");
  const std::string path = "bench_out/" + name + ".json";
  pvr::obs::write_text_file(path, bench_json(name));
  std::printf("wrote %s (%zu rows)\n", path.c_str(), sim_rows().size());
}

/// Initializes and runs google-benchmark (after tables were printed), and
/// dumps the recorded rows to bench_out/<binary-name>.json.
inline int run_benchmarks(int argc, char** argv) {
  write_bench_json(argv[0]);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace pvrbench
