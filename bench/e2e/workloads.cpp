// The four workloads (README.md, "Workloads"): what each op is, how its
// inputs are built from the seed, and how the traced run re-expresses the op
// as the public-call sequence core makes, with probes beside it.
#include "ckpt/checkpoint.hpp"
#include "compose/direct_send.hpp"
#include "compose/schedule.hpp"
#include "data/writers.hpp"
#include "e2e.hpp"
#include "fault/fault_plan.hpp"
#include "fault/fault_timeline.hpp"
#include "format/file_io.hpp"
#include "format/netcdf.hpp"
#include "iolib/collective_read.hpp"
#include "net/torus.hpp"
#include "render/raycaster.hpp"
#include "runtime/runtime.hpp"
#include "storage/storage_model.hpp"
#include "util/rng.hpp"

namespace e2e {
namespace {

using pvr::core::ExperimentConfig;
using pvr::core::FrameStats;
using pvr::core::ParallelVolumeRenderer;
using pvr::core::RunStats;
using pvr::format::FileFormat;

/// Sink for results the benchmark only times, so they are not optimized out.
volatile std::int64_t g_sink = 0;

/// The paper's frame: one variable, improved direct-send, BSP.
ExperimentConfig paper_config(std::int64_t ranks, std::int64_t grid,
                              int image, FileFormat format) {
  ExperimentConfig cfg;
  cfg.num_ranks = ranks;
  cfg.dataset = pvr::format::supernova_desc(format, grid);
  cfg.variable = cfg.dataset.variables.front();
  cfg.image_width = cfg.image_height = image;
  cfg.composite.policy = pvr::compose::CompositorPolicy::kImproved;
  cfg.host_threads = 1;
  return cfg;
}

/// Runs one set-up step, in a span when the run is traced.
template <typename Fn>
void setup_step(SpanLog* log, const char* name, Fn&& fn) {
  if (log == nullptr) {
    fn();
    return;
  }
  auto s = log->span(name, -1, Kind::kSetup);
  fn();
}

/// The direct-send transfer set of a frame, as the compositor prices it.
std::vector<pvr::net::Transfer> composite_transfers(
    const ExperimentConfig& cfg,
    std::span<const pvr::compose::ScheduledMessage> schedule) {
  std::vector<pvr::net::Transfer> transfers;
  transfers.reserve(schedule.size());
  for (const auto& m : schedule) {
    transfers.push_back(pvr::net::Transfer{
        m.src_rank, m.dst_rank,
        m.pixels() * cfg.composite.wire_bytes_per_pixel});
  }
  return transfers;
}

std::vector<pvr::compose::ScheduledMessage> composite_schedule(
    const ExperimentConfig& cfg,
    std::span<const pvr::compose::BlockScreenInfo> infos) {
  const pvr::compose::ImagePartition tiles(
      cfg.image_width, cfg.image_height,
      pvr::compose::compositor_count(cfg.composite.policy, cfg.num_ranks,
                                     cfg.composite.fixed_compositors));
  return pvr::compose::build_direct_send_schedule(infos, tiles);
}

/// Probes every workload runs beside its op: the op's configuration through
/// the model-mode public calls of machine, format, iolib, storage, net, and
/// compose. With `core_stages`, also core's three model stages (the paper
/// frame has them as its decomposition instead). Returns failed checks.
int layer_probes(ParallelVolumeRenderer& r, pvr::par::ThreadPool* pool2,
                 SpanLog& log, std::int64_t op, bool core_stages) {
  const ExperimentConfig& cfg = r.config();
  int failures = 0;
  {
    auto s = log.span("machine.partition", op, Kind::kProbe);
    const pvr::machine::Partition part(cfg.machine, cfg.num_ranks);
    g_sink = part.num_nodes();
  }

  const std::vector<pvr::iolib::RankBlock> blocks = r.io_blocks();
  const int var = cfg.dataset.variable_index(cfg.variable);
  std::vector<pvr::format::SlabRequest> slabs;
  {
    auto s = log.span("format.slabs", op, Kind::kProbe);
    for (const auto& b : blocks) r.layout().subvolume_slabs(var, b.box, &slabs);
  }
  log.count("format.slabs", double(slabs.size()), "count");

  pvr::runtime::Runtime rt(r.partition(), pvr::runtime::Mode::kModel);
  const pvr::storage::StorageModel sm(r.partition(), cfg.storage);
  pvr::storage::AccessLog accesses;
  pvr::iolib::ReadResult read;
  {
    auto s = log.span("iolib.read", op, Kind::kProbe);
    pvr::iolib::CollectiveReader reader(rt, sm, cfg.hints);
    read = reader.read(r.layout(), var, blocks, nullptr, {}, &accesses);
  }
  log.count("iolib.accesses", double(read.accesses), "count");
  log.count("iolib.physical_bytes", double(read.physical_bytes), "bytes");
  log.count("iolib.data_density", read.data_density(), "ratio");
  log.count("iolib.shuffle_messages", double(read.shuffle_cost.messages),
            "count");
  {
    auto s = log.span("storage.read_cost", op, Kind::kProbe);
    g_sink = sm.read_cost(accesses.accesses()).accesses;
  }

  const std::vector<pvr::compose::BlockScreenInfo> infos = r.screen_blocks();
  std::vector<pvr::compose::ScheduledMessage> schedule;
  {
    auto s = log.span("compose.schedule", op, Kind::kProbe);
    schedule = composite_schedule(cfg, infos);
  }
  const std::vector<pvr::net::Transfer> transfers =
      composite_transfers(cfg, schedule);
  const pvr::net::TorusModel torus(r.partition());
  const pvr::machine::Partition& part = r.partition();
  std::int64_t hops = 0;
  std::int64_t links = 0;
  {
    auto s = log.span("net.route", op, Kind::kProbe);
    for (const pvr::net::Transfer& t : transfers) {
      hops += torus.route(part.node_of_rank(t.src_rank),
                          part.node_of_rank(t.dst_rank),
                          [&](const pvr::net::LinkId&) { ++links; });
    }
  }
  failures += links == hops ? 0 : 1;
  log.count("net.hops", double(hops), "count");
  pvr::net::ExchangeCost serial;
  pvr::net::ExchangeCost threaded;
  {
    auto s = log.span("net.exchange", op, Kind::kProbe);
    serial = torus.exchange(transfers, 1);
  }
  {
    auto s = log.span("net.exchange_mt", op, Kind::kProbe);
    threaded = torus.exchange(transfers, 1, nullptr, nullptr, nullptr, pool2);
  }
  failures += serial.seconds == threaded.seconds ? 0 : 1;
  pvr::compose::CompositeStats composite;
  {
    auto s = log.span("compose.model", op, Kind::kProbe);
    pvr::compose::DirectSendCompositor compositor(rt, cfg.composite);
    composite = compositor.model(infos, cfg.image_width, cfg.image_height);
  }
  failures += composite.messages == std::int64_t(schedule.size()) ? 0 : 1;
  log.count("compose.messages", double(composite.messages), "count");
  log.count("compose.compositors", double(composite.num_compositors),
            "count");

  if (core_stages) {
    {
      auto s = log.span("core.model_io", op, Kind::kProbe);
      g_sink = r.model_io().accesses;
    }
    {
      auto s = log.span("core.model_render", op, Kind::kProbe);
      g_sink = r.model_render().total_samples;
    }
    {
      auto s = log.span("core.model_composite", op, Kind::kProbe);
      g_sink = r.model_composite(cfg.composite.policy).messages;
    }
  }
  return failures;
}

template <typename Stats>
std::string text_digest(const Stats& stats) {
  Fnv1a h;
  h.add(stats_text(stats));
  return h.hex();
}

void derive_common(const SpanLog& log, Metrics* m) {
  const double route_ms = log.op_total_ms("net.route");
  const double hops = m->at("net.hops").value;
  (*m)["net.route_mhops_per_s"] =
      Metric{route_ms > 0.0 ? hops / route_ms * 1e-3 : 0.0, "Mhops/s"};
}

/// Common state: the config, and one renderer per host thread count.
class RendererPair : public Workload {
 protected:
  void build_renderers() {
    r1_ = std::make_unique<ParallelVolumeRenderer>(cfg_);
    ExperimentConfig cfg = cfg_;
    cfg.host_threads = 2;
    r2_ = std::make_unique<ParallelVolumeRenderer>(cfg);
  }
  ParallelVolumeRenderer& renderer(int threads) {
    return threads == 1 ? *r1_ : *r2_;
  }
  pvr::par::ThreadPool* pool2() { return r2_->pool(); }

  ExperimentConfig cfg_;  ///< host_threads = 1
  std::unique_ptr<ParallelVolumeRenderer> r1_;
  std::unique_ptr<ParallelVolumeRenderer> r2_;
};

/// paper-32k: model_frame() of the Fig 5 configuration at 32768 ranks.
class PaperFrame final : public RendererPair {
 public:
  PaperFrame() { cfg_ = paper_config(32768, 1120, 1600, FileFormat::kRaw); }

  void setup(SpanLog*) override { build_renderers(); }
  void op(int threads) override { last_ = renderer(threads).model_frame(); }
  std::string digest() const override { return text_digest(last_); }

  int traced_op(SpanLog& log, std::int64_t id) override {
    ParallelVolumeRenderer& r = *r1_;
    FrameStats f;
    {
      auto op = log.span("e2e.op", id, Kind::kOp);
      {
        auto s = log.span("core.model_io", id, Kind::kOp);
        f.io = r.model_io();
      }
      {
        auto s = log.span("core.model_render", id, Kind::kOp);
        f.render = r.model_render();
      }
      {
        auto s = log.span("core.model_composite", id, Kind::kOp);
        f.composite = r.model_composite(cfg_.composite.policy);
      }
    }
    f.io_seconds = f.io.seconds;
    f.render_seconds = f.render.seconds;
    f.composite_seconds = f.composite.seconds;
    const int failures = stats_text(f) == stats_text(last_) ? 0 : 1;
    return failures + layer_probes(r, pool2(), log, id, false);
  }
  void derive(const SpanLog& log, Metrics* m) const override {
    derive_common(log, m);
  }

 private:
  FrameStats last_;
};

/// The arrival's damage: 3 nodes and 6 torus links in a fixed pattern, and
/// 2 file servers drawn by the seed. Where a node or link dies decides how
/// many messages detour and how many ranks' work is lost; drawing those by
/// seed too moved the faulty frame's host cost from 160 to 330 ms across
/// seeds 1-10 (4-core Xeon host), which would swamp any change the
/// benchmark is meant to see.
pvr::fault::FaultPlan seeded_plan(const pvr::machine::Partition& part,
                                  const pvr::machine::StorageConfig& storage,
                                  std::uint64_t seed) {
  struct Site {
    std::int64_t x, y, z;
    int dim, dir;  ///< the failed link's direction (links only)
  };
  static constexpr Site kNodes[] = {
      {1, 2, 1, 0, 0}, {5, 6, 7, 0, 0}, {2, 4, 12, 0, 0}};
  static constexpr Site kLinks[] = {{0, 0, 2, 0, 0}, {3, 3, 5, 1, 1},
                                    {6, 1, 9, 2, 0}, {7, 7, 0, 2, 1},
                                    {4, 2, 14, 0, 1}, {2, 6, 3, 1, 0}};
  pvr::fault::FaultSpec spec;
  spec.seed = seed;
  pvr::fault::FaultPlan plan(spec);
  const pvr::Vec3i dims = part.torus_dims();
  const auto node_at = [&](const Site& s) {
    return part.node_of_coords({s.x % dims.x, s.y % dims.y, s.z % dims.z});
  };
  for (const Site& s : kNodes) plan.fail_node(node_at(s));
  for (const Site& s : kLinks) plan.fail_link(node_at(s), s.dim, s.dir);
  pvr::Rng rng(seed);
  for (int dead = 0; dead < 2;) {
    const int server = int(rng.next_below(std::uint64_t(storage.num_servers)));
    if (plan.server_failed(server)) continue;
    plan.fail_server(server);
    ++dead;
  }
  return plan;
}

/// run-async-faults: model_run(4) at 4096 ranks under the free-running
/// async runtime, a checkpoint after every frame, and one fault arrival
/// striking frame 2 halfway through.
class RunFaults final : public RendererPair {
 public:
  static constexpr std::int64_t kFrames = 4;
  static constexpr std::int64_t kStrikeFrame = 2;

  explicit RunFaults(std::uint64_t seed) : seed_(seed) {
    cfg_ = paper_config(4096, 1120, 1600, FileFormat::kRaw);
    cfg_.runtime_mode = pvr::runtime::RuntimeMode::kAsync;
    cfg_.dependency = pvr::runtime::DependencyMode::kFree;
    policy_.interval_frames = 1;
  }

  void setup(SpanLog* log) override {
    build_renderers();
    setup_step(log, "fault.plan_build", [&] {
      plan_ = seeded_plan(r1_->partition(), cfg_.storage, seed_);
    });
    const pvr::fault::FaultStats census = plan_.census();
    PVR_REQUIRE(census.failed_nodes >= 1 && census.failed_links >= 1 &&
                    census.failed_servers >= 1,
                "run-async-faults: the arrival must kill a node, a link, and "
                "a server");
    timeline_ = pvr::fault::FaultTimeline();
    timeline_.add(pvr::fault::FaultArrival{kStrikeFrame, 0.5, plan_});
    if (log != nullptr) {
      // The same configuration under the BSP runtime: the async_extra probe.
      ExperimentConfig bsp = cfg_;
      bsp.runtime_mode = pvr::runtime::RuntimeMode::kBsp;
      bsp_ = std::make_unique<ParallelVolumeRenderer>(bsp);
    }
  }
  void op(int threads) override {
    last_ = renderer(threads).model_run(kFrames, timeline_, policy_);
  }
  std::string digest() const override { return text_digest(last_); }

  int traced_op(SpanLog& log, std::int64_t id) override {
    ParallelVolumeRenderer& r = *r1_;
    pvr::runtime::Runtime rt(r.partition(), pvr::runtime::Mode::kModel);
    const pvr::storage::StorageModel sm(r.partition(), cfg_.storage);
    pvr::ckpt::CheckpointCodec codec(rt, sm, cfg_.hints);
    const pvr::format::VolumeLayout state_layout(
        pvr::ckpt::CheckpointCodec::state_desc(cfg_.dataset.dims));
    std::vector<pvr::iolib::RankBlock> state_blocks;
    const pvr::render::Decomposition& decomp = r.decomposition();
    for (std::int64_t b = 0; b < decomp.num_blocks(); ++b) {
      state_blocks.push_back(pvr::iolib::RankBlock{
          pvr::render::Decomposition::rank_of_block(b, cfg_.num_ranks),
          decomp.block_box(b)});
    }

    // model_run's host work, in its order: the healthy reference frame, the
    // steady read-ahead frame (priced by a private call; a healthy frame
    // stands in), frame 0 and 1 checkpoints, the restart read and faulty
    // frame 2, its checkpoint, and frame 3.
    FrameStats frames[3];
    FrameStats faulty;
    pvr::ckpt::CheckpointIo writes[3];
    pvr::ckpt::CheckpointIo restart;
    {
      auto op = log.span("e2e.op", id, Kind::kOp);
      const auto frame = [&](FrameStats* out) {
        auto s = log.span("core.frame", id, Kind::kOp);
        *out = r.model_frame();
      };
      const auto write = [&](std::int64_t f) {
        auto s = log.span("ckpt.write", id, Kind::kOp);
        writes[f] = codec.write(state_layout, state_blocks, f);
      };
      frame(&frames[0]);
      frame(&frames[1]);
      write(0);
      write(1);
      {
        auto s = log.span("ckpt.read", id, Kind::kOp);
        restart = codec.read(state_layout, state_blocks);
      }
      {
        auto s = log.span("core.faulty_frame", id, Kind::kOp);
        faulty = r.model_frame_with_faults(plan_);
      }
      write(2);
      frame(&frames[2]);
    }

    int failures = 0;
    FrameStats first = last_.frames.front();
    first.write_io = {};
    first.write_seconds = 0.0;
    for (const FrameStats& f : frames) {
      failures += stats_text(f) == stats_text(first) ? 0 : 1;
    }
    failures +=
        writes[0].seconds == last_.frames.front().write_seconds ? 0 : 1;
    // model_run sums its checkpoint time in this order.
    const double ckpt_seconds = ((writes[0].seconds + writes[1].seconds) +
                                 restart.seconds) +
                                writes[2].seconds;
    failures += ckpt_seconds == last_.checkpoint_seconds ? 0 : 1;
    const std::string faulty_text = stats_text(faulty);
    if (faulty_canonical_.empty()) faulty_canonical_ = faulty_text;
    failures += faulty_text == faulty_canonical_ ? 0 : 1;
    log.count("storage.failover_extents",
              double(faulty.faults.failover_extents), "count");
    log.count("ckpt.writes", 3.0, "count");

    failures += layer_probes(r, pool2(), log, id, true);
    {
      auto s = log.span("runtime.bsp_frame", id, Kind::kProbe);
      g_sink = bsp_->model_frame().composite.messages;
    }
    const std::vector<pvr::compose::BlockScreenInfo> infos = r.screen_blocks();
    const std::vector<pvr::net::Transfer> transfers =
        composite_transfers(cfg_, composite_schedule(cfg_, infos));
    pvr::fault::FaultStats net_faults;
    {
      auto s = log.span("net.exchange_faulty", id, Kind::kProbe);
      const pvr::net::TorusModel torus(r.partition());
      g_sink = torus.exchange(transfers, 1, &plan_, &net_faults).messages;
    }
    log.count("net.detoured", double(net_faults.rerouted_messages), "count");
    log.count("net.undeliverable", double(net_faults.undeliverable_messages),
              "count");
    log.count("net.detour_ratio",
              double(net_faults.rerouted_messages) / double(transfers.size()),
              "ratio");
    {
      pvr::fault::FaultStats compose_faults;
      rt.set_faults(&plan_, &compose_faults);
      {
        auto s = log.span("compose.model_faulty", id, Kind::kProbe);
        pvr::compose::DirectSendCompositor compositor(rt, cfg_.composite);
        g_sink = compositor.model(infos, cfg_.image_width, cfg_.image_height)
                     .messages;
      }
      rt.set_faults(nullptr, nullptr);
    }
    return failures;
  }
  void derive(const SpanLog& log, Metrics* m) const override {
    derive_common(log, m);
    (*m)["runtime.async_extra_ms"] =
        Metric{log.span_median_ms("core.frame") -
                   log.span_median_ms("runtime.bsp_frame"),
               "ms"};
  }

 private:
  std::uint64_t seed_;
  pvr::ckpt::CheckpointPolicy policy_;
  pvr::fault::FaultPlan plan_;
  pvr::fault::FaultTimeline timeline_;
  std::unique_ptr<ParallelVolumeRenderer> bsp_;
  RunStats last_;
  std::string faulty_canonical_;
};

/// exec-raw / exec-netcdf: execute_frame() on a real file written at set-up
/// from the seeded synthetic field.
class ExecFrame final : public RendererPair {
 public:
  ExecFrame(const Inputs& in, const std::string& file, FileFormat format,
            std::int64_t grid, int image)
      : seed_(in.seed), path_(in.data_dir + "/" + file) {
    cfg_ = paper_config(64, grid, image, format);
  }

  void setup(SpanLog* log) override {
    setup_step(log, "data.write_file", [&] {
      pvr::data::write_supernova_file(cfg_.dataset, path_, seed_);
    });
    build_renderers();
    exec_rt_ = std::make_unique<pvr::runtime::Runtime>(
        r1_->partition(), pvr::runtime::Mode::kExecute);
    storage_ = std::make_unique<pvr::storage::StorageModel>(r1_->partition(),
                                                            cfg_.storage);
    if (log != nullptr && r1_->layout().big_endian_data()) load_codec_inputs();
  }
  void op(int threads) override {
    last_ = renderer(threads).execute_frame(path_, &image_);
  }
  std::string digest() const override {
    Fnv1a h;
    h.add(image_digest(image_));
    h.add(stats_text(last_));
    return h.hex();
  }

  int traced_op(SpanLog& log, std::int64_t id) override {
    ParallelVolumeRenderer& r = *r1_;
    const std::vector<pvr::iolib::RankBlock> blocks = r.io_blocks();
    const std::vector<pvr::compose::BlockScreenInfo> infos = r.screen_blocks();
    const int var = cfg_.dataset.variable_index(cfg_.variable);
    const pvr::render::Decomposition& decomp = r.decomposition();
    const pvr::render::Raycaster caster(cfg_.dataset.dims, cfg_.render);
    const auto tf = pvr::render::TransferFunction::supernova();
    std::vector<pvr::Brick> bricks;
    pvr::iolib::ReadResult read;
    std::vector<pvr::render::SubImage> subimages;
    pvr::Image image;
    {
      auto op = log.span("e2e.op", id, Kind::kOp);
      {
        auto s = log.span("core.alloc_bricks", id, Kind::kOp);
        bricks.reserve(blocks.size());
        for (const auto& b : blocks) bricks.emplace_back(b.box);
      }
      {
        auto s = log.span("iolib.read_exec", id, Kind::kOp);
        pvr::format::DiskFile file(path_,
                                   pvr::format::DiskFile::OpenMode::kRead);
        pvr::iolib::CollectiveReader reader(*exec_rt_, *storage_, cfg_.hints);
        read = reader.read(r.layout(), var, blocks, &file, bricks);
      }
      subimages.reserve(bricks.size());
      for (std::int64_t b = 0; b < decomp.num_blocks(); ++b) {
        auto s = log.span("render.block", id, Kind::kOp);
        subimages.push_back(caster.render_block(bricks[std::size_t(b)],
                                                decomp.block_box(b),
                                                r.camera(), tf));
      }
      {
        auto s = log.span("compose.execute", id, Kind::kOp);
        pvr::compose::DirectSendCompositor compositor(*exec_rt_,
                                                      cfg_.composite);
        compositor.execute(infos, subimages, cfg_.image_width,
                           cfg_.image_height, &image);
      }
    }
    int failures = image_digest(image) == image_digest(image_) ? 0 : 1;
    failures += read.seconds == last_.io.seconds ? 0 : 1;

    std::int64_t samples = 0;
    std::int64_t rays = 0;
    for (const auto& sub : subimages) {
      samples += sub.samples;
      rays += std::int64_t(sub.pixels.size());
    }
    log.count("render.samples", double(samples), "count");
    log.count("render.rays", double(rays), "count");
    log.count("iolib.read_exec_bytes", double(read.physical_bytes), "bytes");

    std::int64_t mt_samples = 0;
    for (std::int64_t b = 0; b < decomp.num_blocks(); ++b) {
      auto s = log.span("render.block_mt", id, Kind::kProbe);
      mt_samples += caster
                        .render_block(bricks[std::size_t(b)],
                                      decomp.block_box(b), r.camera(), tf,
                                      pool2())
                        .samples;
    }
    failures += mt_samples == samples ? 0 : 1;
    if (!header_bytes_.empty()) {
      {
        auto s = log.span("format.header_decode", id, Kind::kProbe);
        g_sink = pvr::format::netcdf::File::decode_header(header_bytes_)
                     .numrecs();
      }
      auto s = log.span("format.be_decode", id, Kind::kProbe);
      pvr::format::big_endian_to_floats(variable_bytes_, variable_floats_);
    }
    return failures + layer_probes(r, pool2(), log, id, true);
  }

  void derive(const SpanLog& log, Metrics* m) const override {
    derive_common(log, m);
    const auto per_second = [](double amount, double ms) {
      return ms > 0.0 ? amount / (ms * 1e-3) : 0.0;
    };
    const double render_ms = log.op_total_ms("render.block");
    const double samples = m->at("render.samples").value;
    const double rays = m->at("render.rays").value;
    (*m)["render.ns_per_sample"] =
        Metric{samples > 0.0 ? render_ms * 1e6 / samples : 0.0, "ns"};
    (*m)["render.mrays_per_s"] =
        Metric{per_second(rays, render_ms) * 1e-6, "Mrays/s"};
    // Each ray yields one subimage pixel, and each is blended once.
    (*m)["compose.blend_mpix_per_s"] = Metric{
        per_second(rays, log.op_total_ms("compose.execute")) * 1e-6, "Mpix/s"};
    (*m)["iolib.read_exec_mb_per_s"] = Metric{
        per_second(m->at("iolib.read_exec_bytes").value,
                   log.op_total_ms("iolib.read_exec")) *
            1e-6,
        "MB/s"};
    if (m->count("format.header_decode_ms") > 0) {
      m->erase("format.header_decode_ms");
      (*m)["format.header_decode_us"] =
          Metric{log.span_median_ms("format.header_decode") * 1e3, "us"};
    }
  }

 private:
  static std::string image_digest(const pvr::Image& image) {
    Fnv1a h;
    h.add(image.pixels().data(), image.pixels().size_bytes());
    return h.hex();
  }

  /// The netCDF codec probes' inputs: the header bytes and the rendered
  /// variable's big-endian bytes, read once outside any span.
  void load_codec_inputs() {
    const pvr::format::VolumeLayout& layout = r1_->layout();
    const pvr::format::DiskFile file(path_,
                                     pvr::format::DiskFile::OpenMode::kRead);
    header_bytes_.resize(std::size_t(layout.netcdf_file().header_bytes()));
    file.read_at(0, header_bytes_);
    const int var = cfg_.dataset.variable_index(cfg_.variable);
    const std::int64_t slice = cfg_.dataset.slice_bytes();
    variable_bytes_.resize(std::size_t(slice * cfg_.dataset.dims.z));
    for (std::int64_t z = 0; z < cfg_.dataset.dims.z; ++z) {
      file.read_at(layout.element_offset(var, {0, 0, z}),
                   std::span(variable_bytes_).subspan(std::size_t(z * slice),
                                                      std::size_t(slice)));
    }
    variable_floats_.resize(variable_bytes_.size() / sizeof(float));
  }

  std::uint64_t seed_;
  std::string path_;
  FrameStats last_;
  pvr::Image image_;
  std::unique_ptr<pvr::runtime::Runtime> exec_rt_;
  std::unique_ptr<pvr::storage::StorageModel> storage_;
  std::vector<std::byte> header_bytes_;
  std::vector<std::byte> variable_bytes_;
  std::vector<float> variable_floats_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "paper-32k", "run-async-faults", "exec-raw", "exec-netcdf"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Inputs& inputs) {
  if (name == "paper-32k") return std::make_unique<PaperFrame>();
  if (name == "run-async-faults") {
    return std::make_unique<RunFaults>(inputs.seed);
  }
  if (name == "exec-raw") {
    return std::make_unique<ExecFrame>(inputs, "exec-raw.raw",
                                       FileFormat::kRaw, 128, 512);
  }
  if (name == "exec-netcdf") {
    return std::make_unique<ExecFrame>(inputs, "exec-netcdf.nc",
                                       FileFormat::kNetcdfRecord, 96, 32);
  }
  throw pvr::Error("unknown workload: " + name);
}

}  // namespace e2e
