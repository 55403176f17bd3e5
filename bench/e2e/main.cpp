// pvr_e2e — host-time end-to-end benchmark (README.md).
//
//   pvr_e2e [--workload NAME] [--seed N] [--seconds S] [--traced] [--quick]
//           [--out DIR] [--write-reference]
//
// Without --workload every workload runs in a child process of its own (so
// peak_rss_mb is per workload) and the results are merged into
// DIR/summary.json. With --workload one workload runs in this process and
// writes DIR/<workload>.json. Each prints "<workload> <metric> <value>
// <unit>" lines and exits non-zero when any output failed verification.
#include <spawn.h>
#include <sys/wait.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "e2e.hpp"
#include "profile/json.hpp"
#include "render/simd/vec8.hpp"

extern char** environ;

namespace e2e {
namespace {

struct Options {
  std::string workload;  ///< empty: every workload, one child process each
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool traced = false;
  bool quick = false;  ///< 3 ops per pass, one set-up: the smoke test
  bool write_reference = false;
  std::string out = "bench_out/e2e";
};

/// Ops per pass in --quick mode, and the floor of a timed pass otherwise.
constexpr int kQuickOps = 3;
constexpr int kMinOps = 5;
/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 3;
/// Traced ops written to the trace file (all of them feed the metrics).
constexpr std::int64_t kTraceOps = 50;

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "pvr_e2e: %s\nusage: pvr_e2e [--workload NAME] [--seed N] "
               "[--seconds S] [--traced] [--quick] [--out DIR] "
               "[--write-reference]\n",
               problem.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        o.workload = value();
      } else if (arg == "--seed") {
        o.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value());
      } else if (arg == "--out") {
        o.out = value();
      } else if (arg == "--traced") {
        o.traced = true;
      } else if (arg == "--quick") {
        o.quick = true;
      } else if (arg == "--write-reference") {
        o.write_reference = true;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  if (!o.workload.empty()) {
    bool known = false;
    for (const std::string& name : workload_names()) {
      known |= name == o.workload;
    }
    if (!known) usage("unknown workload " + o.workload);
  }
  return o;
}

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw pvr::Error("cannot read " + path);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  if (!out.flush()) throw pvr::Error("cannot write " + path);
}

std::string result_path(const Options& o, const std::string& workload) {
  return o.out + "/" + workload + (o.traced ? ".traced.json" : ".json");
}

/// The committed digest of `workload` at the reference seed; nullopt for
/// other seeds, which check only op-to-op and thread-to-thread identity.
std::optional<std::string> reference_digest(const Options& o) {
  if (o.write_reference) return std::nullopt;
  const pvr::profile::JsonPtr ref =
      pvr::profile::load_json_file(PVR_E2E_REFERENCE);
  if (std::uint64_t(ref->number_at("seed")) != o.seed) return std::nullopt;
  return ref->at("digests")->string_at(o.workload);
}

std::string host_json() {
  std::string cpu = "unknown";
  std::ifstream info("/proc/cpuinfo");
  for (std::string line; std::getline(info, line);) {
    if (line.rfind("model name", 0) == 0 && line.find(':') != line.npos) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
#if defined(__clang__)
  const std::string compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = "gcc " __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  return "{\"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu\": " + json_string(cpu) +
         ", \"compiler\": " + json_string(compiler) +
         ", \"pvr_simd\": " +
         json_string(pvr::render::simd::backend_name()) + "}";
}

/// Peak resident set of this process, in KiB: VmHWM, the high-water mark of
/// this program's own address space. getrusage's ru_maxrss is not used
/// because Linux folds the pre-exec peak of the launching process (e.g. a
/// Python driver) into it.
double peak_rss_kib() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6));
  }
  throw pvr::Error("no VmHWM in /proc/self/status");
}

/// Ops attempted and failed; a failed op is an exception or an output whose
/// digest disagrees with the expected one.
struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  void check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

bool run_op(Workload& w, int threads, const std::string& expected,
            double* ms) {
  const Clock::time_point t0 = Clock::now();
  try {
    w.op(threads);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pvr_e2e: op failed: %s\n", e.what());
    return false;
  }
  *ms = seconds_since(t0) * 1e3;
  const std::string got = w.digest();
  if (got == expected) return true;
  std::fprintf(stderr, "pvr_e2e: output digest %s, expected %s\n",
               got.c_str(), expected.c_str());
  return false;
}

/// True once `ops` ops per pass have run for --seconds (or, with --quick,
/// once there are kQuickOps).
bool pass_done(const Options& o, int ops, Clock::time_point begin) {
  if (o.quick) return ops >= kQuickOps;
  return ops >= kMinOps && seconds_since(begin) >= o.seconds;
}

struct Result {
  Tally tally;
  Metrics metrics;
  std::string digest;
  std::optional<std::string> reference;
  std::int64_t n1 = 0;  ///< verified ops at host_threads = 1
  std::int64_t n2 = 0;  ///< verified ops at host_threads = 2 (untraced)
};

/// Set-up: the workload's inputs and renderers, then one untimed warm-up op
/// on each renderer. The first warm-up op fixes the digest every later op
/// must reproduce; at the reference seed that digest must also match the
/// committed one. Returns the digest ops are checked against.
std::string setup(Workload& w, SpanLog* log, Result* r) {
  w.setup(log);
  double ms = 0.0;
  if (r->digest.empty()) {
    w.op(1);  // a set-up that throws is fatal
    r->digest = w.digest();
    const bool matches = !r->reference || *r->reference == r->digest;
    if (!matches) {
      std::fprintf(stderr, "pvr_e2e: digest %s differs from the reference %s\n",
                   r->digest.c_str(), r->reference->c_str());
    }
    r->tally.check(matches);
  } else {
    r->tally.check(run_op(w, 1, r->digest, &ms));
  }
  r->tally.check(run_op(w, 2, r->digest, &ms));
  // After a reference mismatch no op can verify.
  const bool matches = !r->reference || *r->reference == r->digest;
  return matches ? r->digest : "reference mismatch";
}

Result untraced_run(const Options& o, Workload& w, Clock::time_point start) {
  Result r;
  r.reference = reference_digest(o);
  std::vector<double> setup_s;
  std::string expected;
  for (int k = 0; k < (o.quick ? 1 : kSetups); ++k) {
    // The first set-up is timed from main() entry.
    const Clock::time_point t0 = k == 0 ? start : Clock::now();
    expected = setup(w, nullptr, &r);
    setup_s.push_back(seconds_since(t0));
  }
  // One closed-loop client, ops back to back with no think time,
  // alternating the host_threads = 1 and = 2 renderers so both passes see
  // the same machine over the whole run.
  std::vector<double> serial;
  std::vector<double> threaded;
  const Clock::time_point begin = Clock::now();
  for (int ops = 0; !pass_done(o, ops, begin); ++ops) {
    for (const int threads : {1, 2}) {
      double t = 0.0;
      const bool ok = run_op(w, threads, expected, &t);
      r.tally.check(ok);
      if (ok) (threads == 1 ? serial : threaded).push_back(t);
    }
  }
  r.n1 = std::int64_t(serial.size());
  r.n2 = std::int64_t(threaded.size());

  r.metrics["setup_s"] = Metric{median(setup_s), "s"};
  r.metrics["op_ms_p50"] = Metric{percentile(serial, 0.50), "ms"};
  r.metrics["op_ms_p75"] = Metric{percentile(serial, 0.75), "ms"};
  r.metrics["op_ms_p50_mt"] = Metric{percentile(threaded, 0.50), "ms"};
  r.metrics["peak_rss_mb"] = Metric{peak_rss_kib() / 1024.0, "MiB"};
  const auto attempted = double(std::max<std::int64_t>(1, r.tally.attempted));
  r.metrics["fail_ratio"] = Metric{double(r.tally.failed) / attempted, "ratio"};
  return r;
}

Result traced_run(const Options& o, Workload& w) {
  Result r;
  r.reference = reference_digest(o);
  SpanLog log;
  const std::string expected = setup(w, &log, &r);

  // Each iteration: one untraced op (the coverage denominator), then the
  // same op decomposed into spans, then the probes.
  std::vector<double> untraced_ms;
  const Clock::time_point begin = Clock::now();
  for (int id = 0; !pass_done(o, id, begin); ++id) {
    double t = 0.0;
    const bool ok = run_op(w, 1, expected, &t);
    r.tally.check(ok);
    if (ok) untraced_ms.push_back(t);
    int failures = 1;
    try {
      failures = w.traced_op(log, id);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "pvr_e2e: traced op failed: %s\n", e.what());
    }
    if (failures > 0) {
      std::fprintf(stderr, "pvr_e2e: traced op %d: %d check(s) failed\n", id,
                   failures);
    }
    r.tally.check(failures == 0);
  }
  r.n1 = std::int64_t(untraced_ms.size());
  r.metrics = log.metrics();
  w.derive(log, &r.metrics);
  r.metrics["trace.coverage"] =
      Metric{log.op_decomposed_ms() / median(untraced_ms), "ratio"};
  write_file(o.out + "/" + o.workload + ".trace.json",
             log.chrome_json(kTraceOps));
  return r;
}

std::string result_json(const Options& o, const Result& r) {
  std::string out = "{\n  \"workload\": " + json_string(o.workload) +
                    ",\n  \"seed\": " + std::to_string(o.seed) +
                    ",\n  \"traced\": " + (o.traced ? "true" : "false") +
                    ",\n  \"quick\": " + (o.quick ? "true" : "false") +
                    ",\n  \"seconds\": " + json_number(o.seconds) +
                    ",\n  \"correct\": " +
                    (r.tally.failed == 0 ? "true" : "false") +
                    ",\n  \"attempted\": " + std::to_string(r.tally.attempted) +
                    ",\n  \"failed\": " + std::to_string(r.tally.failed) +
                    ",\n  \"n1\": " + std::to_string(r.n1) +
                    ",\n  \"n2\": " + std::to_string(r.n2) +
                    ",\n  \"digest\": " + json_string(r.digest) +
                    ",\n  \"reference\": " +
                    (r.reference ? json_string(*r.reference) : "null") +
                    ",\n  \"host\": " + host_json() + ",\n  \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    out += first ? "\n" : ",\n";
    out += "    " + json_string(name) + ": {\"value\": " +
           json_number(m.value) + ", \"unit\": " + json_string(m.unit) + "}";
    first = false;
  }
  out += "\n  }\n}\n";
  return out;
}

int run_one(const Options& o, Clock::time_point start) {
  std::filesystem::create_directories(o.out + "/data");
  const std::unique_ptr<Workload> w =
      make_workload(o.workload, Inputs{o.seed, o.out + "/data"});
  const Result r = o.traced ? traced_run(o, *w) : untraced_run(o, *w, start);
  write_file(result_path(o, o.workload), result_json(o, r));
  for (const auto& [name, m] : r.metrics) {
    std::printf("%s %s %.9g %s\n", o.workload.c_str(), name.c_str(), m.value,
                m.unit.c_str());
  }
  std::fflush(stdout);
  return r.tally.failed == 0 ? 0 : 1;
}

/// Runs `args` as a child process and waits for it; returns its exit code.
int run_child(const std::vector<std::string>& args) {
  std::vector<char*> argv;
  for (const std::string& a : args) {
    argv.push_back(const_cast<char*>(a.c_str()));
  }
  argv.push_back(nullptr);
  pid_t pid = 0;
  if (posix_spawn(&pid, argv[0], nullptr, nullptr, argv.data(), environ) != 0) {
    throw pvr::Error("cannot start " + args[0]);
  }
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) throw pvr::Error("waitpid failed");
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

int run_all(const Options& o) {
  const std::string exe = std::filesystem::read_symlink("/proc/self/exe");
  std::filesystem::create_directories(o.out);
  int status = 0;
  std::string summary = "{\n\"seed\": " + std::to_string(o.seed) +
                        ",\n\"traced\": " + (o.traced ? "true" : "false") +
                        ",\n\"host\": " + host_json() + ",\n\"workloads\": {";
  std::string reference = "{\n  \"seed\": " + std::to_string(o.seed) +
                          ",\n  \"digests\": {";
  bool first = true;
  for (const std::string& name : workload_names()) {
    std::vector<std::string> args = {exe,      "--workload", name,
                                     "--seed", std::to_string(o.seed),
                                     "--seconds", json_number(o.seconds),
                                     "--out",  o.out};
    if (o.traced) args.push_back("--traced");
    if (o.quick) args.push_back("--quick");
    if (o.write_reference) args.push_back("--write-reference");
    std::filesystem::remove(result_path(o, name));
    const int code = run_child(args);
    if (code != 0) {
      std::fprintf(stderr, "pvr_e2e: workload %s exited with %d\n",
                   name.c_str(), code);
      status = 1;
    }
    if (!std::filesystem::exists(result_path(o, name))) continue;
    const std::string text = read_file(result_path(o, name));
    const std::string digest =
        pvr::profile::parse_json(text)->string_at("digest");
    const std::string sep = first ? "\n" : ",\n";
    summary += sep + json_string(name) + ": " + text;
    reference += sep + "    " + json_string(name) + ": " + json_string(digest);
    first = false;
  }
  summary += "}\n}\n";
  write_file(o.out + (o.traced ? "/summary.traced.json" : "/summary.json"),
             summary);
  if (o.write_reference) {
    if (status != 0) {
      std::fprintf(stderr, "pvr_e2e: reference not written\n");
    } else {
      write_file(PVR_E2E_REFERENCE, reference + "\n  }\n}\n");
      std::printf("wrote %s\n", PVR_E2E_REFERENCE);
    }
  }
  return status;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  // setup_s starts here, eagerly, not at the first clock read.
  const e2e::Clock::time_point start = e2e::Clock::now();
  const e2e::Options o = e2e::parse(argc, argv);
  try {
    return o.workload.empty() ? e2e::run_all(o) : e2e::run_one(o, start);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pvr_e2e: %s\n", e.what());
    return 2;
  }
}
