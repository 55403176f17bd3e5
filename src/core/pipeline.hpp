// The end-to-end parallel volume renderer (paper §III-B): three sequential
// stages; see class comment below for the model/execute duality.
//
// Beyond the paper's pipeline, the renderer also provides in-situ frames
// (no I/O stage), bivariate/multivariate frames (several variables read in
// one collective pass), radix-k compositing, and multi-block-per-rank
// decompositions — each an extension the paper names as motivation or
// future work.
//
// Original stage structure (paper §III-B): three sequential
// collective stages — I/O, rendering, compositing — executed across all
// ranks. One configuration drives both backends:
//
//   * model_*  — full paper scale (64 .. 32 Ki ranks, 1120^3 .. 4480^3
//                grids); schedules are exact, times come from the machine
//                model, no payloads move;
//   * execute_frame — small scale; reads a real file, casts real rays,
//                composites real pixels, and returns the final image while
//                charging the same modeled times.
//
// FrameStats mirrors the paper's instrumentation: per-stage seconds, their
// percentages of frame time, message statistics, and I/O bandwidths.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "ckpt/checkpoint.hpp"
#include "compose/direct_send.hpp"
#include "compose/radix_k.hpp"
#include "data/synthetic.hpp"
#include "fault/fault_plan.hpp"
#include "fault/fault_timeline.hpp"
#include "format/layout.hpp"
#include "iolib/collective_read.hpp"
#include "iolib/independent_read.hpp"
#include "obs/trace.hpp"
#include "par/thread_pool.hpp"
#include "render/decomposition.hpp"
#include "render/raycaster.hpp"
#include "render/render_model.hpp"
#include "runtime/async_frame.hpp"
#include "steal/steal.hpp"

namespace pvr::core {

struct ExperimentConfig {
  std::int64_t num_ranks = 64;
  format::DatasetDesc dataset;       ///< what is on disk
  std::string variable = "pressure"; ///< which variable to render
  int image_width = 1600;
  int image_height = 1600;

  compose::CompositeConfig composite;
  iolib::Hints hints;                ///< collective I/O tuning
  render::RenderConfig render;
  machine::MachineConfig machine;
  machine::StorageConfig storage;
  std::optional<render::Camera> camera;  ///< default_view if unset
  int ghost = 1;                     ///< ghost layers loaded per block
  /// Paper §III-B: "statically allocates a small number of blocks to each
  /// process". Blocks are interleaved round-robin over ranks.
  int blocks_per_rank = 1;
  /// Render-stage work stealing (DESIGN.md §6): with an active policy, idle
  /// ranks deterministically claim scanline chunks from the slowest live
  /// ranks before the render phase, collapsing the BSP straggler tail under
  /// degraded nodes. kOff (the default) leaves every frame byte-identical
  /// to the pre-stealing pipeline.
  steal::StealConfig steal;
  /// Runtime scheduling discipline (DESIGN.md §9). kBsp (the default) runs
  /// the paper's superstep pipeline: every stage is a global barrier.
  /// kAsync prices the same frame through a deterministic barrier-free
  /// schedule: stage boundaries become per-rank dependencies, so a
  /// compositor rank starts blending as soon as its own sources have
  /// rendered, and barrier skew is reclaimed as overlap. Model mode only
  /// (execute_* always runs the real superstep runtime); requires
  /// direct-send compositing.
  runtime::RuntimeMode runtime_mode = runtime::RuntimeMode::kBsp;
  /// Has no effect: kFree is the only dependency shape, and kAsync always
  /// schedules it.
  runtime::DependencyMode dependency = runtime::DependencyMode::kFree;
  /// Host threads for torus routing, ray casting, and compositing. 0 (the
  /// default) defers to the PVR_THREADS environment variable, else runs
  /// serially. Results are bit-identical for every value (DESIGN.md §8); a
  /// resolved value of 1 allocates no pool at all.
  int host_threads = 0;
};

/// Fail-loud validation of an experiment configuration: throws pvr::Error
/// with an actionable message naming the offending field and value. Called
/// by the ParallelVolumeRenderer constructor; exposed so callers building
/// configs programmatically can validate early.
void validate(const ExperimentConfig& config);

/// Per-frame instrumentation in the paper's terms.
struct FrameStats {
  double io_seconds = 0.0;
  double render_seconds = 0.0;
  double composite_seconds = 0.0;

  iolib::ReadResult io;
  render::RenderEstimate render;
  compose::CompositeStats composite;

  /// Write issued after the frame (a checkpoint in model_run, an output
  /// dump in the examples); all-zero when the frame wrote nothing. Not part
  /// of total_seconds(): writes overlap the pipeline cadence question and
  /// are accounted separately (RunStats::checkpoint_seconds).
  iolib::ReadResult write_io;
  double write_seconds = 0.0;

  /// Fault census + recovery counters; all-zero (coverage 1.0) for healthy
  /// frames. Filled by model_frame_with_faults.
  fault::FaultStats faults;

  /// Work-stealing accounting: what the frame's steal schedule moved and
  /// what it bought (straggler ratio before/after). Defaults (policy kOff,
  /// ratios 1.0) when stealing is disabled. steal.steal_seconds is already
  /// included in render_seconds — the claim/replication exchanges run
  /// inside the render stage.
  steal::StealStats steal;

  /// Async runtime accounting (DESIGN.md §9): graph size, the BSP price
  /// of the same frame, and the seconds reclaimed by overlap. Disabled
  /// (enabled == false, all zero) for kBsp frames.
  runtime::OverlapStats async;

  /// Trace summary for the frame (span counts, per-stage span seconds,
  /// coverage of the frame span by its stage children). All-zero with
  /// enabled == false when no tracer was attached; pointer-free, so stats
  /// outlive the tracer.
  obs::FrameTrace trace;

  double total_seconds() const {
    return io_seconds + render_seconds + composite_seconds;
  }
  // Stage percentages are 0 (not NaN) for a zero-duration frame, which
  // happens for degenerate configs (e.g. in-situ frames whose render and
  // composite both model to 0 work).
  double pct_io() const {
    const double t = total_seconds();
    return t > 0.0 ? 100.0 * io_seconds / t : 0.0;
  }
  double pct_render() const {
    const double t = total_seconds();
    return t > 0.0 ? 100.0 * render_seconds / t : 0.0;
  }
  double pct_composite() const {
    const double t = total_seconds();
    return t > 0.0 ? 100.0 * composite_seconds / t : 0.0;
  }
  /// Read bandwidth in the paper's terms: useful bytes / I/O time.
  double read_bandwidth() const {
    return io_seconds > 0.0 ? double(io.useful_bytes) / io_seconds : 0.0;
  }
  /// Write bandwidth of the frame's post-frame write (checkpoint/output):
  /// useful bytes written / write time; 0 when the frame wrote nothing.
  double write_bandwidth() const {
    return write_seconds > 0.0 ? double(write_io.useful_bytes) / write_seconds
                               : 0.0;
  }
};

/// Accounting of one multi-frame model_run: where the run's time went —
/// useful frames, checkpoint writes, restart reads, and work lost to fault
/// arrivals — and the throughput that bottom line buys relative to a
/// failure-free, checkpoint-free ideal.
struct RunStats {
  std::vector<FrameStats> frames;  ///< one entry per frame, in frame order
  std::int64_t frames_completed = 0;
  std::int64_t faults_struck = 0;       ///< timeline arrivals that fired
  std::int64_t checkpoints_written = 0;
  std::int64_t checkpoints_read = 0;    ///< restarts (rollback loads)

  double frame_seconds = 0.0;       ///< sum of per-frame stage time
  double checkpoint_seconds = 0.0;  ///< checkpoint writes + restart reads
  /// Work redone because of fault arrivals: the stricken fraction of each
  /// failed frame plus every completed-but-unpersisted frame since the
  /// last checkpoint, at the healthy frame price.
  double lost_work_seconds = 0.0;
  double total_seconds = 0.0;  ///< frames + checkpoints + lost work
  /// The same run with no faults and no checkpoints: n_frames healthy
  /// frames back to back.
  double ideal_seconds = 0.0;
  double min_coverage = 1.0;  ///< worst per-frame pixel coverage in the run

  /// Delivered frames per simulated second, checkpoint and fault overheads
  /// included. Always <= ideal_fps(). 0 (not NaN) for an empty run: a
  /// model_run(0) leaves frames_completed and every seconds field at zero,
  /// and a zero-frame run delivers nothing.
  double effective_fps() const {
    if (frames_completed <= 0 || total_seconds <= 0.0) return 0.0;
    return double(frames_completed) / total_seconds;
  }
  double ideal_fps() const {
    if (frames_completed <= 0 || ideal_seconds <= 0.0) return 0.0;
    return double(frames_completed) / ideal_seconds;
  }
  /// Fractional slowdown versus the ideal run (the quantity Young/Daly
  /// minimizes): 0 when nothing was lost or checkpointed.
  double overhead_fraction() const {
    return ideal_seconds > 0.0 ? total_seconds / ideal_seconds - 1.0 : 0.0;
  }
};

class ParallelVolumeRenderer {
 public:
  explicit ParallelVolumeRenderer(const ExperimentConfig& config);

  const ExperimentConfig& config() const { return config_; }
  const machine::Partition& partition() const { return *partition_; }

  /// Attaches (or with nullptr detaches) a simulated-clock tracer for all
  /// subsequent frames. The tracer is forwarded to both runtimes (and
  /// through them to the torus, tree, storage, and compositors); every
  /// frame method then emits a "frame" span with stage children and fills
  /// FrameStats::trace. Borrowed pointer; must outlive traced calls.
  void set_tracer(obs::Tracer* tracer);
  obs::Tracer* tracer() const { return tracer_; }
  /// The host thread pool (null when the pipeline runs serially — i.e.
  /// host_threads/PVR_THREADS resolved to 1).
  par::ThreadPool* pool() const { return pool_.get(); }
  const render::Decomposition& decomposition() const { return *decomp_; }
  const format::VolumeLayout& layout() const { return *layout_; }
  const render::Camera& camera() const { return camera_; }

  /// Block assignments (one block per rank) with ghost layers for I/O.
  std::vector<iolib::RankBlock> io_blocks() const;
  /// Screen-space info of every owned block, for compositing schedules.
  std::vector<compose::BlockScreenInfo> screen_blocks() const;

  // --- model mode (any scale) ---
  iolib::ReadResult model_io(storage::AccessLog* log = nullptr);
  /// Multivariate read: all named variables in one collective pass.
  iolib::ReadResult model_io_vars(const std::vector<std::string>& variables,
                                  storage::AccessLog* log = nullptr);
  iolib::ReadResult model_io_independent(storage::AccessLog* log = nullptr);
  render::RenderEstimate model_render() const;
  compose::CompositeStats model_composite(compose::CompositorPolicy policy,
                                          std::int64_t fixed_m = 0);
  /// Radix-k compositing with rounds of (at most) the given radix; radix 2
  /// is binary swap.
  compose::CompositeStats model_radix_k(int radix);
  FrameStats model_frame();

  /// Degraded-mode frame under an injected fault plan: dead ranks read and
  /// render nothing (their blocks are dropped and the frame's pixel
  /// coverage falls below 100%), routes detour around failed links, and
  /// storage failures are retried/failed-over — all priced into the stage
  /// times. The compositing stage honours config().composite.algorithm:
  /// direct-send reassigns dead compositors' tiles to the next live rank;
  /// radix-k (binary swap at radix 2) substitutes a live proxy for each
  /// dead exchange partner. An empty plan returns exactly model_frame().
  /// Deterministic for a given plan.
  FrameStats model_frame_with_faults(const fault::FaultPlan& plan);

  /// In-situ frame: the data is already resident in the simulation's
  /// memory, so the I/O stage disappears entirely — the scenario the paper
  /// motivates ("eliminate or reduce expensive storage accesses, because
  /// ... I/O dominates large-scale visualization").
  FrameStats model_insitu_frame();

  /// Multi-frame run under a fault timeline with checkpoint/restart
  /// (DESIGN.md §6). Renders `n_frames` frames in order; after every
  /// `policy.interval_frames` completed frames (never after the last) the
  /// rank block state is checkpointed through the collective write path and
  /// priced into the frame's write_io/write_seconds. When a timeline
  /// arrival strikes frame f, the run pays the lost work (the stricken
  /// fraction of f plus every completed-but-unpersisted frame since the
  /// last checkpoint), re-reads the last checkpoint if one exists, and
  /// renders frame f under the arrival's fault plan (degraded coverage,
  /// recovery costs — exactly model_frame_with_faults). With an empty
  /// timeline and a disabled policy the per-frame stats are byte-identical
  /// to n_frames calls of model_frame(). Deterministic for a given
  /// (timeline, policy), including across host_threads settings.
  ///
  /// Determinism lets an untraced run price repeated work once. Its
  /// fault-free frames copy the healthy (or, under kAsync, steady
  /// read-ahead) reference frame. Its checkpoints copy the first write and
  /// its rollbacks the first restart read: both depend only on the state
  /// layout, the state blocks and the image bytes, and no fault plan is
  /// armed outside a frame. A fault-free frame at a read-ahead credit,
  /// traced or not, reuses the healthy frame's collective read, which a
  /// read-ahead frame prices untraced anyway. A traced run prices every
  /// frame, write and read, so each emits its spans; its RunStats equal the
  /// untraced run's bitwise.
  RunStats model_run(std::int64_t n_frames,
                     const fault::FaultTimeline& timeline = {},
                     const ckpt::CheckpointPolicy& policy = {});

  // --- execute mode (small scale, real data) ---
  /// Runs the full pipeline against a real dataset file. If `out` is
  /// non-null it receives the final composited image.
  FrameStats execute_frame(const std::string& path, Image* out);

  /// Execute-mode in-situ frame: bricks are filled from the analytic field
  /// (the "simulation") instead of storage, whole bricks per chunk on the
  /// host pool; renders and composites as usual.
  FrameStats execute_insitu_frame(const data::SupernovaField& field,
                                  Image* out);

  /// Multivariate frame: reads config().variable (color) and
  /// `opacity_variable` in one collective pass and renders with a bivariate
  /// transfer function — the "multivariate visualizations" the paper names
  /// as the payoff of reading multi-variable files directly.
  FrameStats execute_frame_bivariate(
      const std::string& path, const std::string& opacity_variable,
      const render::BivariateTransferFunction& tf, Image* out);

 private:
  runtime::Runtime& model_rt();
  runtime::Runtime& execute_rt();
  /// The compositing stage as configured, for every frame method, model or
  /// execute, healthy or faulty: dispatches on config().composite.algorithm
  /// (direct-send, or radix-k with rounds of at most composite.radix). A
  /// model-mode `rt` prices the schedule of `blocks`; a non-null `detail`
  /// (direct-send only) receives the per-rank message structure for the
  /// async schedule, and the priced stats are identical either way. An
  /// execute-mode `rt` composites `subimages` (one per block) and, if `out`
  /// is non-null, assembles the image into it.
  compose::CompositeStats composite_configured(
      runtime::Runtime& rt, std::span<const compose::BlockScreenInfo> blocks,
      std::span<const render::SubImage> subimages, Image* out,
      compose::DirectSendDetail* detail = nullptr);
  /// The one model-mode frame pricer behind model_frame,
  /// model_frame_with_faults (non-null `plan`), model_insitu_frame
  /// (`insitu`) and model_run (`readahead_seconds` > 0: the previous
  /// frame's composite tail, under which this frame's collective-read fetch
  /// may hide). Every mode runs one stage order — arm faults, I/O, steal
  /// and render estimate, per-rank task inputs (kAsync only), composite —
  /// and folds the stages into a frame time: barrier maxima (kBsp), or the
  /// free dependency graph's critical path, reclaiming skew as overlap
  /// (kAsync). kAsync frames fill stats.async. A non-null `priced_read`
  /// (fault-free read-ahead frames only) is the frame's collective read,
  /// already priced; the frame then prices only the credit split and the
  /// later stages.
  FrameStats price_frame(const fault::FaultPlan* plan, bool insitu,
                         double readahead_seconds,
                         const iolib::ReadResult* priced_read = nullptr);
  /// An execute frame's render call: renders block `b` through `caster`,
  /// over its whole screen footprint, or only the rows of `band` (a stolen
  /// band) when `band` is non-null.
  using BlockRenderFn =
      std::function<render::SubImage(const render::Raycaster& caster,
                                     std::int64_t b,
                                     const render::RowBand* band)>;
  /// Shared execute-mode stages 2+3 of every execute frame: render each
  /// block with `render_block` (stealing row bands when config().steal is
  /// on; each block holds `vars` variables' bricks), composite, fill
  /// stats.render/steal/composite; `out` receives the image if non-null.
  void execute_render_and_composite(const BlockRenderFn& render_block,
                                    int vars, FrameStats* stats, Image* out);
  /// Stages 2+3 for one univariate brick per block, rendered with the
  /// supernova transfer function.
  void execute_render_and_composite(std::span<const Brick> bricks,
                                    FrameStats* stats, Image* out);
  /// Per-block render work for the steal planner (modeled samples, footprint
  /// rows, replication bytes), in block order. A block holds `vars`
  /// variables' bricks, and a replicated block ships all of them.
  std::vector<steal::BlockWork> steal_block_work(int vars) const;
  /// The steal phase, run inside the render stage span of any frame method
  /// when config().steal is enabled: plans the frame's schedule for the
  /// given per-rank slowdowns (null = all healthy), prices the claim — and,
  /// under kReplicateBlocks, the whole-block replication — exchanges
  /// through `rt` (fault-aware when a plan is armed on it), and fills
  /// stats->steal. Each block holds `vars` variables (steal_block_work).
  /// Returns the schedule; empty when stealing is off or the load is
  /// already balanced.
  steal::StealSchedule steal_stage(
      runtime::Runtime& rt,
      const std::function<double(std::int64_t)>& rank_slowdown, int vars,
      FrameStats* stats);

  ExperimentConfig config_;
  std::unique_ptr<machine::Partition> partition_;
  std::unique_ptr<render::Decomposition> decomp_;
  std::unique_ptr<format::VolumeLayout> layout_;
  std::unique_ptr<storage::StorageModel> storage_;
  std::unique_ptr<par::ThreadPool> pool_;  ///< null when serial
  std::unique_ptr<runtime::Runtime> model_rt_;
  std::unique_ptr<runtime::Runtime> execute_rt_;
  render::Camera camera_;
  int variable_ = 0;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace pvr::core
