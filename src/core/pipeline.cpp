#include "core/pipeline.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/log.hpp"
#include "util/vec.hpp"

namespace pvr::core {

void validate(const ExperimentConfig& config) {
  const auto fail = [](const std::string& field, auto value,
                       const std::string& hint) {
    throw Error("invalid ExperimentConfig: " + field + " = " +
                std::to_string(value) + "; " + hint);
  };
  if (config.num_ranks <= 0) {
    fail("num_ranks", config.num_ranks,
         "need at least one rank (paper scale is 64 .. 32768)");
  }
  if (config.image_width <= 0) {
    fail("image_width", config.image_width,
         "image dimensions must be positive (paper uses up to 4096^2)");
  }
  if (config.image_height <= 0) {
    fail("image_height", config.image_height,
         "image dimensions must be positive (paper uses up to 4096^2)");
  }
  if (config.blocks_per_rank < 1) {
    fail("blocks_per_rank", config.blocks_per_rank,
         "each rank must own at least one block; use 1 for the paper's "
         "static one-block-per-process decomposition");
  }
  if (config.ghost < 0) {
    fail("ghost", config.ghost,
         "ghost layer count cannot be negative; use 0 to disable ghost "
         "loading");
  }
  if (config.composite.algorithm == compose::CompositeAlgorithm::kRadixK &&
      config.composite.radix < 2) {
    fail("composite.radix", config.composite.radix,
         "radix-k compositing needs a target radix of at least 2");
  }
  if (config.composite.algorithm != compose::CompositeAlgorithm::kDirectSend &&
      config.blocks_per_rank != 1) {
    fail("blocks_per_rank", config.blocks_per_rank,
         "radix-k compositing (binary swap is radix 2) composites exactly "
         "one block per rank; use direct-send for multi-block "
         "decompositions");
  }
  if (config.runtime_mode == runtime::RuntimeMode::kAsync &&
      config.composite.algorithm != compose::CompositeAlgorithm::kDirectSend) {
    fail("composite.algorithm", int(config.composite.algorithm),
         "the async runtime (runtime_mode == kAsync) derives "
         "per-compositor dependencies from the direct-send schedule; use "
         "RuntimeMode::kBsp with radix-k");
  }
  if (config.host_threads < 0 || config.host_threads > par::kMaxThreads) {
    fail("host_threads", config.host_threads,
         "host thread count must be in [0, " +
             std::to_string(par::kMaxThreads) +
             "]; 0 defers to PVR_THREADS");
  }
  // Steal config validation throws its own pvr::Error naming the field.
  steal::validate(config.steal);
  const auto& dims = config.dataset.dims;
  if (dims.x <= 0 || dims.y <= 0 || dims.z <= 0) {
    throw Error("invalid ExperimentConfig: dataset.dims = (" +
                std::to_string(dims.x) + ", " + std::to_string(dims.y) +
                ", " + std::to_string(dims.z) +
                "); all dataset dimensions must be positive");
  }
}

ParallelVolumeRenderer::ParallelVolumeRenderer(const ExperimentConfig& config)
    : config_(config) {
  validate(config);
  partition_ =
      std::make_unique<machine::Partition>(config.machine, config.num_ranks);
  decomp_ = std::make_unique<render::Decomposition>(
      config.dataset.dims, config.num_ranks * config.blocks_per_rank);
  layout_ = std::make_unique<format::VolumeLayout>(config.dataset);
  storage_ = std::make_unique<storage::StorageModel>(*partition_,
                                                     config.storage);
  camera_ = config.camera.value_or(render::Camera::default_view(
      config.dataset.dims, config.image_width, config.image_height));
  PVR_REQUIRE(camera_.width() == config.image_width &&
                  camera_.height() == config.image_height,
              "camera image size must match the experiment image size");
  variable_ = config.dataset.variable_index(config.variable);
  // A resolved value of 1 allocates no pool: the serial pipeline is
  // byte-for-byte the pre-parallelism code path.
  const int threads = par::resolve_threads(config.host_threads);
  if (threads > 1) pool_ = std::make_unique<par::ThreadPool>(threads);
}

runtime::Runtime& ParallelVolumeRenderer::model_rt() {
  if (!model_rt_) {
    model_rt_ = std::make_unique<runtime::Runtime>(*partition_,
                                                   runtime::Mode::kModel);
    model_rt_->set_tracer(tracer_);
    model_rt_->set_pool(pool_.get());
  }
  return *model_rt_;
}

runtime::Runtime& ParallelVolumeRenderer::execute_rt() {
  if (!execute_rt_) {
    execute_rt_ = std::make_unique<runtime::Runtime>(*partition_,
                                                     runtime::Mode::kExecute);
    execute_rt_->set_tracer(tracer_);
    execute_rt_->set_pool(pool_.get());
  }
  return *execute_rt_;
}

void ParallelVolumeRenderer::set_tracer(obs::Tracer* tracer) {
  tracer_ = tracer;
  if (model_rt_) model_rt_->set_tracer(tracer);
  if (execute_rt_) execute_rt_->set_tracer(tracer);
}

std::vector<iolib::RankBlock> ParallelVolumeRenderer::io_blocks() const {
  std::vector<iolib::RankBlock> blocks;
  blocks.reserve(std::size_t(decomp_->num_blocks()));
  for (std::int64_t b = 0; b < decomp_->num_blocks(); ++b) {
    blocks.push_back(iolib::RankBlock{
        render::Decomposition::rank_of_block(b, config_.num_ranks),
        decomp_->ghost_box(b, config_.ghost)});
  }
  return blocks;
}

std::vector<compose::BlockScreenInfo>
ParallelVolumeRenderer::screen_blocks() const {
  std::vector<compose::BlockScreenInfo> infos;
  infos.reserve(std::size_t(decomp_->num_blocks()));
  for (std::int64_t b = 0; b < decomp_->num_blocks(); ++b) {
    const Box3i owned = decomp_->block_box(b);
    const Box3d wb = render::world_box_of(owned, config_.dataset.dims);
    compose::BlockScreenInfo info;
    info.rank = render::Decomposition::rank_of_block(b, config_.num_ranks);
    info.footprint = camera_.footprint(wb);
    info.depth = camera_.depth_of(
        {wb.center().x, wb.center().y, wb.center().z});
    infos.push_back(info);
  }
  return infos;
}

iolib::ReadResult ParallelVolumeRenderer::model_io(storage::AccessLog* log) {
  iolib::CollectiveReader reader(model_rt(), *storage_, config_.hints);
  const auto blocks = io_blocks();
  return reader.read(*layout_, variable_, blocks, nullptr, {}, log);
}

iolib::ReadResult ParallelVolumeRenderer::model_io_vars(
    const std::vector<std::string>& variables, storage::AccessLog* log) {
  std::vector<int> vars;
  vars.reserve(variables.size());
  for (const std::string& name : variables) {
    vars.push_back(config_.dataset.variable_index(name));
  }
  iolib::CollectiveReader reader(model_rt(), *storage_, config_.hints);
  const auto blocks = io_blocks();
  return reader.read_vars(*layout_, vars, blocks, nullptr, {}, log);
}

iolib::ReadResult ParallelVolumeRenderer::model_io_independent(
    storage::AccessLog* log) {
  iolib::IndependentReader reader(model_rt(), *storage_, config_.hints);
  const auto blocks = io_blocks();
  return reader.read(*layout_, variable_, blocks, nullptr, {}, log);
}

std::vector<steal::BlockWork> ParallelVolumeRenderer::steal_block_work(
    int vars) const {
  const render::RenderModel rmodel(config_.machine);
  const double step_world =
      config_.render.step_voxels * render::voxel_size(config_.dataset.dims);
  const double edge_scale = render::RenderModel::pixel_edge_scale(camera_);
  std::vector<steal::BlockWork> work;
  work.reserve(std::size_t(decomp_->num_blocks()));
  for (std::int64_t b = 0; b < decomp_->num_blocks(); ++b) {
    const Box3d wb =
        render::world_box_of(decomp_->block_box(b), config_.dataset.dims);
    const Rect fp = camera_.footprint(wb);
    steal::BlockWork w;
    w.block = b;
    w.owner = render::Decomposition::rank_of_block(b, config_.num_ranks);
    w.samples = rmodel.block_samples(wb, camera_, step_world, edge_scale);
    w.rows = std::max(0, fp.height());
    w.bytes = decomp_->ghost_box(b, config_.ghost).volume() *
              config_.dataset.element_bytes * vars;
    work.push_back(w);
  }
  return work;
}

steal::StealSchedule ParallelVolumeRenderer::steal_stage(
    runtime::Runtime& rt,
    const std::function<double(std::int64_t)>& rank_slowdown, int vars,
    FrameStats* stats) {
  stats->steal.policy = config_.steal.policy;
  if (!config_.steal.enabled()) return {};

  const steal::StealPlanner planner(config_.machine, config_.steal);
  const auto work = steal_block_work(vars);
  steal::StealSchedule sched =
      planner.plan(work, config_.num_ranks, rank_slowdown);
  stats->steal.chunks_stolen = sched.chunks_stolen;
  stats->steal.bytes_replicated = sched.bytes_replicated;
  stats->steal.straggler_before = sched.straggler_before;
  stats->steal.straggler_after = sched.straggler_after;
  if (sched.empty()) return sched;

  constexpr std::int32_t kClaimTag = 61;
  constexpr std::int32_t kReplicateTag = 62;
  double steal_seconds = 0.0;
  {
    // Claim descriptors: one control message victim -> thief per merged
    // claim, priced as a real torus exchange (detours and retries apply
    // when a fault plan is armed on the runtime). Steal traffic is
    // asynchronous — it overlaps the render stage's own barrier — so it is
    // priced without a synchronization-skew term of its own.
    obs::ScopedSpan span(tracer_, "steal.claim", obs::Category::kSteal);
    std::vector<runtime::Message> claims;
    claims.reserve(sched.claims.size());
    for (const steal::StealClaim& c : sched.claims) {
      claims.push_back(runtime::Message{c.victim, c.thief, kClaimTag,
                                        config_.steal.claim_bytes, {}});
    }
    const std::int64_t n_claims = std::int64_t(claims.size());
    const net::ExchangeCost cost =
        rt.exchange_messages_overlapped(std::move(claims));
    steal_seconds += cost.seconds;
    if (tracer_ != nullptr) {
      span.arg("claims", double(n_claims));
      span.arg("seconds", cost.seconds);
    }
  }
  if (config_.steal.policy == steal::StealPolicy::kReplicateBlocks) {
    // The schedule's replicas: one whole-block copy (ghost included) per
    // distinct (block, thief) pair, shipped owner -> thief before the
    // thief renders its bands.
    obs::ScopedSpan span(tracer_, "steal.transfer", obs::Category::kSteal);
    std::vector<runtime::Message> copies;
    copies.reserve(sched.replicas.size());
    for (const steal::StealReplica& r : sched.replicas) {
      copies.push_back(
          runtime::Message{r.victim, r.thief, kReplicateTag, r.bytes, {}});
    }
    const std::int64_t n_copies = std::int64_t(copies.size());
    const net::ExchangeCost cost =
        rt.exchange_messages_overlapped(std::move(copies));
    steal_seconds += cost.seconds;
    if (tracer_ != nullptr) {
      span.arg("blocks", double(n_copies));
      span.arg("bytes", double(sched.bytes_replicated));
      span.arg("seconds", cost.seconds);
    }
  }
  stats->steal.steal_seconds = steal_seconds;
  if (tracer_ != nullptr) {
    for (const steal::StealClaim& c : sched.claims) {
      tracer_->metrics().indexed("steal.claims_by_thief").add(c.thief, 1);
      tracer_->metrics()
          .indexed("steal.samples_by_thief")
          .add(c.thief, c.samples);
    }
    tracer_->metrics().counter("steal.chunks_stolen").add(sched.chunks_stolen);
    tracer_->metrics()
        .counter("steal.bytes_replicated")
        .add(sched.bytes_replicated);
  }
  return sched;
}

render::RenderEstimate ParallelVolumeRenderer::model_render() const {
  const render::RenderModel model(config_.machine);
  return model.estimate(*decomp_, config_.num_ranks, camera_,
                        config_.render);
}

compose::CompositeStats ParallelVolumeRenderer::model_composite(
    compose::CompositorPolicy policy, std::int64_t fixed_m) {
  compose::CompositeConfig cc = config_.composite;
  cc.policy = policy;
  cc.fixed_compositors = fixed_m;
  compose::DirectSendCompositor compositor(model_rt(), cc);
  const auto blocks = screen_blocks();
  return compositor.model(blocks, config_.image_width, config_.image_height);
}

compose::CompositeStats ParallelVolumeRenderer::model_radix_k(int radix) {
  compose::RadixKCompositor compositor(
      model_rt(), config_.composite,
      compose::RadixKCompositor::factor(config_.num_ranks, radix));
  const auto blocks = screen_blocks();
  return compositor.model(blocks, config_.image_width, config_.image_height);
}

compose::CompositeStats ParallelVolumeRenderer::composite_configured(
    runtime::Runtime& rt, std::span<const compose::BlockScreenInfo> blocks,
    std::span<const render::SubImage> subimages, Image* out,
    compose::DirectSendDetail* detail) {
  const int width = config_.image_width;
  const int height = config_.image_height;
  const bool execute = rt.mode() == runtime::Mode::kExecute;
  switch (config_.composite.algorithm) {
    case compose::CompositeAlgorithm::kRadixK: {
      compose::RadixKCompositor compositor(
          rt, config_.composite,
          compose::RadixKCompositor::factor(config_.num_ranks,
                                            config_.composite.radix));
      return execute ? compositor.execute(blocks, subimages, width, height,
                                          out)
                     : compositor.model(blocks, width, height);
    }
    case compose::CompositeAlgorithm::kDirectSend:
      break;
  }
  compose::DirectSendCompositor compositor(rt, config_.composite);
  return execute
             ? compositor.execute(blocks, subimages, width, height, out)
             : compositor.model(blocks, width, height, detail);
}

FrameStats ParallelVolumeRenderer::model_frame() {
  return price_frame(nullptr, /*insitu=*/false, /*readahead_seconds=*/0.0);
}

FrameStats ParallelVolumeRenderer::model_frame_with_faults(
    const fault::FaultPlan& plan) {
  return price_frame(plan.empty() ? nullptr : &plan, /*insitu=*/false,
                     /*readahead_seconds=*/0.0);
}

FrameStats ParallelVolumeRenderer::model_insitu_frame() {
  // No I/O stage: the simulation's data is already in each rank's memory.
  return price_frame(nullptr, /*insitu=*/true, /*readahead_seconds=*/0.0);
}

namespace {

/// Arms the runtime's fault state for one frame and disarms it on exit, so
/// a throwing stage cannot leak a dangling plan pointer into later frames.
class FaultScope {
 public:
  FaultScope(runtime::Runtime& rt, const fault::FaultPlan& plan,
             fault::FaultStats* stats)
      : rt_(&rt) {
    rt_->set_faults(&plan, stats);
  }
  ~FaultScope() { rt_->set_faults(nullptr, nullptr); }
  FaultScope(const FaultScope&) = delete;
  FaultScope& operator=(const FaultScope&) = delete;

 private:
  runtime::Runtime* rt_;
};

/// Detaches the tracer of `owner` (a runtime or the renderer) for one
/// stretch priced untraced and reattaches it on exit, so a throwing stretch
/// cannot leave later frames untraced.
template <class Owner>
class Untraced {
 public:
  explicit Untraced(Owner& owner) : owner_(&owner), tracer_(owner.tracer()) {
    owner_->set_tracer(nullptr);
  }
  ~Untraced() { owner_->set_tracer(tracer_); }
  Untraced(const Untraced&) = delete;
  Untraced& operator=(const Untraced&) = delete;

 private:
  Owner* owner_;
  obs::Tracer* tracer_;
};

}  // namespace

FrameStats ParallelVolumeRenderer::price_frame(
    const fault::FaultPlan* plan, bool insitu, double readahead_seconds,
    const iolib::ReadResult* priced_read) {
  runtime::Runtime& rt = model_rt();
  const bool faulty = plan != nullptr;
  const bool async = config_.runtime_mode == runtime::RuntimeMode::kAsync;
  FrameStats stats;
  std::optional<FaultScope> scope;
  if (faulty) {
    stats.faults = plan->census();
    scope.emplace(rt, *plan, &stats.faults);
  }

  obs::ScopedSpan frame(tracer_, "frame", obs::Category::kFrame);
  if (faulty && tracer_ != nullptr) {
    tracer_->instant(
        "fault.plan_armed", obs::Category::kFault,
        {{"failed_nodes", double(stats.faults.failed_nodes)},
         {"failed_links", double(stats.faults.failed_links)},
         {"failed_ions", double(stats.faults.failed_ions)},
         {"failed_servers", double(stats.faults.failed_servers)},
         {"degraded_servers", double(stats.faults.degraded_servers)}});
  }

  // --- Stage 1: collective read; dead ranks request nothing, and in-situ
  // frames skip the stage. Under a read-ahead window (free-running
  // model_run) this frame's storage fetch was issued while the previous
  // frame composited, so it is charged only the unhidden remainder, kept
  // on the books as stats.async.readahead_seconds. ---
  double readahead_credit = 0.0;
  if (!insitu) {
    obs::ScopedSpan stage(tracer_, "stage.io", obs::Category::kIo);
    // A read-ahead read is priced untraced and traced as a synthetic
    // fetch/shuffle split: only the open + storage portion can hide under
    // the previous frame (the shuffle needs the renderers themselves).
    const bool split = readahead_seconds > 0.0;
    if (priced_read != nullptr) {
      // model_run's fault-free read-ahead frames: the read is the healthy
      // frame's, and a split read emits no spans of its own.
      PVR_ASSERT(split && !faulty);
      stats.io = *priced_read;
    } else {
      auto blocks = io_blocks();
      if (faulty) {
        const std::size_t before = blocks.size();
        std::erase_if(blocks, [&](const iolib::RankBlock& b) {
          return plan->rank_failed(b.rank, *partition_);
        });
        stats.faults.dropped_blocks += std::int64_t(before - blocks.size());
        if (tracer_ != nullptr && before != blocks.size()) {
          tracer_->instant("fault.blocks_dropped", obs::Category::kFault,
                           {{"blocks", double(before - blocks.size())}});
        }
      }
      iolib::CollectiveReader reader(rt, *storage_, config_.hints);
      std::optional<Untraced<runtime::Runtime>> untraced;
      if (split) untraced.emplace(rt);
      stats.io = reader.read(*layout_, variable_, blocks, nullptr, {});
    }
    stats.io_seconds = stats.io.seconds;
    if (split) {
      const double fetch =
          std::min(stats.io.seconds,
                   stats.io.open_seconds + stats.io.storage_cost.seconds);
      readahead_credit = std::min(readahead_seconds, fetch);
      stats.io_seconds = stats.io.seconds - readahead_credit;
      if (tracer_ != nullptr) {
        tracer_->instant("io.readahead", obs::Category::kIo,
                         {{"window_seconds", readahead_seconds},
                          {"prefetched_seconds", readahead_credit}});
        const double fetch_charged = fetch - readahead_credit;
        {
          obs::ScopedSpan fetch_span(tracer_, "io.fetch",
                                     obs::Category::kStorage);
          fetch_span.arg("physical_bytes", double(stats.io.physical_bytes));
          tracer_->advance(fetch_charged);
        }
        {
          obs::ScopedSpan shuffle_span(tracer_, "io.shuffle",
                                       obs::Category::kExchange);
          shuffle_span.arg("bytes", double(stats.io.useful_bytes));
          tracer_->advance(stats.io_seconds - fetch_charged);
        }
      }
    }
  }

  // Dead ranks render nothing; degraded-but-alive ranks render slower.
  std::function<double(std::int64_t)> slowdown;
  if (faulty) {
    slowdown = [this, plan](std::int64_t rank) {
      if (plan->rank_failed(rank, *partition_)) return 0.0;
      return plan->rank_degrade(rank, *partition_);
    };
  }

  // --- Stage 2: the straggler is the worst weighted live rank. With
  // stealing enabled, live idle ranks first claim scanline chunks from the
  // slowest live ranks (dead ranks are neither victims nor thieves), so the
  // straggler term shrinks to the post-schedule worst. kAsync schedules
  // the stage inputs here: it needs the composite's per-rank structure
  // before the frame's render charge is known, so it prices the composite
  // now, untraced. ---
  compose::DirectSendDetail detail;
  runtime::AsyncFrameSchedule chain;
  double bsp_seconds = 0.0;
  double exchange_overlapped = 0.0;
  {
    obs::ScopedSpan stage(tracer_, "stage.render", obs::Category::kRender);
    steal::StealSchedule sched;
    if (config_.steal.enabled()) {
      sched = steal_stage(rt, slowdown, /*vars=*/1, &stats);
    }
    if (async) {
      const Untraced untraced(rt);
      stats.composite = composite_configured(rt, screen_blocks(), {},
                                             nullptr, &detail);
    }
    // The estimate is pure, so it runs last: the per-rank seconds it fills
    // under kAsync are then not held across the composite's allocations,
    // which would raise the frame's peak memory.
    runtime::AsyncFrameInputs in;
    const render::RenderModel rmodel(config_.machine);
    stats.render = rmodel.estimate_degraded(
        *decomp_, config_.num_ranks, camera_, config_.render, slowdown,
        async ? &in.render_seconds : nullptr);
    if (!sched.empty()) {
      stats.render.max_rank_samples = sched.max_rank_samples_after;
      stats.render.seconds = sched.worst_after_seconds *
                             (1.0 + config_.machine.render_imbalance);
      stats.render.straggler_rank = sched.worst_after_rank;
    }
    if (async) {
      // Overlapped semantics: dependency-priced traffic pays routing,
      // serialization, and contention, never the barrier-close skew.
      exchange_overlapped = stats.composite.exchange.seconds -
                            stats.composite.exchange.skew_seconds;
      in.has_io = !insitu;
      in.io_seconds = stats.io_seconds;
      in.has_steal = !sched.empty();
      in.steal_seconds = stats.steal.steal_seconds;
      in.live.assign(std::size_t(config_.num_ranks), 1);
      if (faulty) {
        for (std::int64_t r = 0; r < config_.num_ranks; ++r) {
          in.live[std::size_t(r)] = slowdown(r) > 0.0 ? 1 : 0;
        }
      }
      if (!sched.empty()) {
        in.render_seconds = sched.rank_seconds_after;
        for (double& s : in.render_seconds) {
          s *= 1.0 + config_.machine.render_imbalance;
        }
      }
      in.exchange_seconds = exchange_overlapped;
      const double bps = partition_->config().blends_per_second;
      in.blend_seconds.reserve(detail.blend_pixels.size());
      for (const std::int64_t pixels : detail.blend_pixels) {
        in.blend_seconds.push_back(double(pixels) / bps);
      }
      chain = runtime::schedule_async_frame(in, detail.sources);
      // BSP reference price of the same frame, composed exactly as
      // FrameStats::total_seconds() composes it: every async term is <= its
      // BSP term and FP addition is monotone, so reclaimed >= 0 bitwise.
      bsp_seconds = stats.io.seconds +
                    (stats.render.seconds + stats.steal.steal_seconds) +
                    stats.composite.seconds;
      // The render charge is the critical path's render: the rank whose
      // finish actually bound the last compositor, not the global straggler.
      stats.render.seconds = chain.render_seconds;
      if (chain.render_rank >= 0) {
        stats.render.straggler_rank = chain.render_rank;
      }
    }
    stats.render_seconds = stats.render.seconds + stats.steal.steal_seconds;
    if (tracer_ != nullptr) {
      stage.arg("total_samples", double(stats.render.total_samples));
      stage.arg("max_rank_samples", double(stats.render.max_rank_samples));
      stage.arg("ranks", double(config_.num_ranks));
      stage.arg("straggler_rank", double(stats.render.straggler_rank));
      tracer_->advance(stats.render.seconds);
    }
  }

  // --- Stage 3: the configured compositor reads the fault state from the
  // runtime — direct-send reassigns dead tiles, radix-k substitutes live
  // proxies for dead partners; both report coverage. Under kAsync the
  // composite charge is the chain compositor's exchange + blend, traced as
  // synthetic spans; message counts and wire bytes (the physical facts)
  // keep their full-frame values. ---
  {
    obs::ScopedSpan stage(tracer_, "stage.composite",
                          obs::Category::kComposite);
    if (!async) {
      stats.composite = composite_configured(rt, screen_blocks(), {},
                                             nullptr);
    } else {
      double blend_chain = 0.0;
      double exchange_chain = 0.0;
      if (chain.composite_rank >= 0) {
        const std::int64_t worst_pixels =
            detail.blend_pixels[std::size_t(chain.composite_rank)];
        blend_chain =
            double(worst_pixels) / partition_->config().blends_per_second;
        exchange_chain = exchange_overlapped;
        if (tracer_ != nullptr) {
          const net::ExchangeCost& cost = stats.composite.exchange;
          {
            obs::ScopedSpan ex(tracer_, "net.exchange",
                               obs::Category::kExchange);
            ex.arg("messages", double(cost.messages));
            ex.arg("local_messages", double(cost.local_messages));
            ex.arg("bytes", double(cost.total_bytes));
            ex.arg("rounds", 1.0);
            ex.arg("max_hops", double(cost.max_hops));
            ex.arg("congestion_factor", cost.congestion_factor);
            ex.arg("link_seconds", cost.link_seconds);
            ex.arg("endpoint_seconds", cost.endpoint_seconds);
            ex.arg("latency_seconds", cost.latency_seconds);
            ex.arg("skew_seconds", 0.0);
            ex.arg("bottleneck_link", double(cost.bottleneck_link));
            ex.arg("bottleneck_node", double(cost.bottleneck_node));
            ex.arg("overlapped", 1.0);
            if (faulty) ex.arg("retry_seconds", cost.retry_seconds);
            tracer_->advance(exchange_chain);
          }
          {
            obs::ScopedSpan blend_span(tracer_, "composite.blend",
                                       obs::Category::kCompute);
            blend_span.arg("worst_blend_pixels", double(worst_pixels));
            tracer_->advance(blend_chain);
          }
        }
      }
      if (tracer_ != nullptr) {
        stage.arg("compositors", double(stats.composite.num_compositors));
        stage.arg("messages", double(stats.composite.messages));
        stage.arg("bytes", double(stats.composite.bytes));
      }
      stats.composite.exchange.seconds = exchange_chain;
      stats.composite.exchange.skew_seconds = 0.0;
      stats.composite.blend_seconds = blend_chain;
      stats.composite.seconds = chain.composite_seconds;
    }
    stats.composite_seconds = stats.composite.seconds;
  }
  if (faulty && tracer_ != nullptr) {
    tracer_->instant("fault.recovery_complete", obs::Category::kFault,
                     {{"retries", double(stats.faults.retries)},
                      {"coverage", stats.faults.coverage}});
  }

  if (async) {
    stats.async.enabled = true;
    stats.async.tasks = chain.tasks;
    stats.async.edges = chain.edges;
    stats.async.bsp_seconds = bsp_seconds;
    stats.async.reclaimed_seconds = bsp_seconds - stats.total_seconds();
    stats.async.lane_wait_seconds = chain.lane_wait_seconds;
    stats.async.readahead_seconds = readahead_credit;
  }

  if (tracer_ != nullptr) {
    if (async) {
      frame.arg("overlap_reclaimed_seconds", stats.async.reclaimed_seconds);
      frame.arg("bsp_seconds", bsp_seconds);
    }
    stats.trace = obs::summarize_frame(*tracer_, frame.close());
  }
  return stats;
}

RunStats ParallelVolumeRenderer::model_run(
    std::int64_t n_frames, const fault::FaultTimeline& timeline,
    const ckpt::CheckpointPolicy& policy) {
  PVR_REQUIRE(n_frames >= 0, "n_frames cannot be negative");
  RunStats run;
  if (n_frames == 0) return run;

  // Healthy reference frame: the unit of ideal time and of lost work.
  // Priced with the tracer detached so the run's trace holds only events
  // that actually happen; determinism makes it bit-identical to any healthy
  // frame of the loop below.
  const FrameStats healthy = [this] {
    const Untraced untraced(*this);
    return model_frame();
  }();
  const double healthy_seconds = healthy.total_seconds();

  // Free-running async (DESIGN.md §9): from frame 1 on, the collective
  // read's storage fetch hides under the previous frame's composite tail,
  // so the steady-state frame is cheaper than frame 0 and the ideal run is
  // frame0 + (n-1) steady frames. BSP keeps the flat n * healthy ideal.
  const bool async = config_.runtime_mode == runtime::RuntimeMode::kAsync;
  double steady_credit = 0.0;
  FrameStats steady = healthy;
  if (async && n_frames > 1) {
    steady_credit = healthy.composite_seconds;
    const Untraced untraced(*this);
    steady = price_frame(nullptr, /*insitu=*/false, steady_credit, &healthy.io);
  }
  run.ideal_seconds =
      async ? healthy_seconds + double(n_frames - 1) * steady.total_seconds()
            : double(n_frames) * healthy_seconds;

  // Checkpoint state: every rank's owned (non-ghosted) blocks, laid out as
  // one raw variable on the run's grid.
  ckpt::CheckpointCodec codec(model_rt(), *storage_, config_.hints);
  std::unique_ptr<format::VolumeLayout> ckpt_layout;
  std::vector<iolib::RankBlock> state_blocks;
  std::int64_t image_bytes = 0;
  if (policy.enabled()) {
    ckpt_layout = std::make_unique<format::VolumeLayout>(
        ckpt::CheckpointCodec::state_desc(config_.dataset.dims));
    state_blocks.reserve(std::size_t(decomp_->num_blocks()));
    for (std::int64_t b = 0; b < decomp_->num_blocks(); ++b) {
      state_blocks.push_back(iolib::RankBlock{
          render::Decomposition::rank_of_block(b, config_.num_ranks),
          decomp_->block_box(b)});
    }
    if (policy.persist_image) {
      // RGBA float pixels, 16 bytes each.
      image_bytes = std::int64_t(config_.image_width) *
                    std::int64_t(config_.image_height) * 16;
    }
  }

  // Untraced, one model-mode write and one restart read price every
  // checkpoint and rollback of the run: both depend only on the state
  // layout, the state blocks and the image bytes, and on no fault plan (the
  // runtime is armed only inside price_frame). A traced run prices each, so
  // each emits its spans.
  const bool reprice = tracer_ != nullptr;
  std::optional<ckpt::CheckpointIo> written;
  std::optional<ckpt::CheckpointIo> restart;

  std::int64_t last_ckpt_frame = -1;  // nothing persisted yet
  for (std::int64_t f = 0; f < n_frames; ++f) {
    const fault::FaultArrival* arrival = timeline.arrival_at(f);
    if (arrival != nullptr) {
      ++run.faults_struck;
      // Young/Daly lost work: the stricken fraction of this frame plus
      // every frame completed since the last checkpoint, all redone.
      const std::int64_t replayed = f - (last_ckpt_frame + 1);
      const double lost =
          (arrival->fraction + double(replayed)) * healthy_seconds;
      run.lost_work_seconds += lost;
      if (tracer_ != nullptr) {
        tracer_->instant("fault.arrival", obs::Category::kFault,
                         {{"frame", double(f)},
                          {"fraction", arrival->fraction},
                          {"replayed_frames", double(replayed)}});
        obs::ScopedSpan span(tracer_, "ckpt.lost_work",
                             obs::Category::kCheckpoint);
        span.arg("seconds", lost);
        tracer_->advance(lost);
      }
      if (last_ckpt_frame >= 0) {
        // Rollback: reload the surviving block state from the last
        // checkpoint before re-rendering under the arrival's plan.
        if (reprice || !restart) {
          restart = codec.read(*ckpt_layout, state_blocks, nullptr, {},
                               image_bytes);
        }
        ++run.checkpoints_read;
        run.checkpoint_seconds += restart->seconds;
      }
    }

    // Frame f's read-ahead window is the previous frame's composite tail.
    const double credit =
        (async && f > 0) ? run.frames.back().composite_seconds : 0.0;
    const fault::FaultPlan* plan =
        arrival != nullptr && !arrival->plan.empty() ? &arrival->plan
                                                     : nullptr;
    // Untraced fault-free frames reuse the reference frames above, which
    // determinism makes bit-identical; traced frames emit their own spans.
    // A fault-free read-ahead frame reuses the healthy read either way: it
    // is priced untraced, so only the credit split and the later stages run.
    const bool cached = plan == nullptr && tracer_ == nullptr;
    FrameStats stats;
    if (cached && credit == 0.0) {
      stats = healthy;
    } else if (cached && credit == steady_credit) {
      stats = steady;
    } else {
      stats = price_frame(plan, /*insitu=*/false, credit,
                          plan == nullptr && credit > 0.0 ? &healthy.io
                                                          : nullptr);
    }

    // Checkpoint after the frame per policy; the final frame never
    // checkpoints (there is nothing after it left to protect).
    if (policy.enabled() && (f + 1) % policy.interval_frames == 0 &&
        f + 1 < n_frames) {
      if (reprice || !written) {
        written = codec.write(*ckpt_layout, state_blocks, f, image_bytes);
      }
      written->frame_index = f;
      stats.write_io = written->io;
      stats.write_seconds = written->seconds;
      ++run.checkpoints_written;
      run.checkpoint_seconds += written->seconds;
      last_ckpt_frame = f;
    }

    run.frame_seconds += stats.total_seconds();
    run.min_coverage = std::min(run.min_coverage, stats.faults.coverage);
    run.frames.push_back(std::move(stats));
    ++run.frames_completed;
  }
  run.total_seconds =
      run.frame_seconds + run.checkpoint_seconds + run.lost_work_seconds;
  return run;
}

void ParallelVolumeRenderer::execute_render_and_composite(
    std::span<const Brick> bricks, FrameStats* stats, Image* out) {
  PVR_ASSERT(std::int64_t(bricks.size()) == decomp_->num_blocks());
  const render::TransferFunction tf = render::TransferFunction::supernova();
  execute_render_and_composite(
      [&](const render::Raycaster& caster, std::int64_t b,
          const render::RowBand* band) {
        const Brick& brick = bricks[std::size_t(b)];
        const Box3i owned = decomp_->block_box(b);
        return band == nullptr
                   ? caster.render_block(brick, owned, camera_, tf,
                                         pool_.get())
                   : caster.render_block_rows(brick, owned, camera_, tf,
                                              band->begin, band->end,
                                              pool_.get());
      },
      /*vars=*/1, stats, out);
}

void ParallelVolumeRenderer::execute_render_and_composite(
    const BlockRenderFn& render_block, int vars, FrameStats* stats,
    Image* out) {
  runtime::Runtime& rt = execute_rt();

  // --- Stage 2: ray casting, real samples. With stealing enabled, the
  // frame's deterministic steal schedule is planned and priced first; each
  // claimed row band is then rendered separately (the thief's work) and
  // stitched back in row order. Rays are independent on the global sample
  // lattice, so the stitched pixels and the total sample count are
  // bit-identical to the unstolen render — only the per-rank attribution
  // (and with it the measured straggler) changes. ---
  std::vector<render::SubImage> subimages;
  std::vector<compose::BlockScreenInfo> infos;
  {
    obs::ScopedSpan stage(tracer_, "stage.render", obs::Category::kRender);
    const render::Raycaster caster(config_.dataset.dims, config_.render);
    infos = screen_blocks();
    subimages.reserve(infos.size());
    std::vector<std::int64_t> rank_samples(std::size_t(config_.num_ranks), 0);
    steal::StealSchedule sched;
    if (config_.steal.enabled()) {
      sched = steal_stage(rt, nullptr, vars, stats);
    }
    std::size_t next_claim = 0;  // claims are sorted by (block, row_begin)
    for (std::int64_t b = 0; b < decomp_->num_blocks(); ++b) {
      const std::int64_t owner = infos[std::size_t(b)].rank;
      const std::size_t claims_begin = next_claim;
      while (next_claim < sched.claims.size() &&
             sched.claims[next_claim].block == b) {
        ++next_claim;
      }
      if (claims_begin == next_claim) {
        render::SubImage sub = render_block(caster, b, nullptr);
        rank_samples[std::size_t(owner)] += sub.samples;
        subimages.push_back(std::move(sub));
        continue;
      }
      const Rect full = infos[std::size_t(b)].footprint;
      render::SubImage sub;
      sub.rect = full;
      sub.depth = infos[std::size_t(b)].depth;
      sub.pixels.assign(std::size_t(full.pixel_count()), kTransparent);
      const std::size_t width = std::size_t(full.width());
      const auto render_band = [&](std::int64_t row_begin,
                                   std::int64_t row_end,
                                   std::int64_t renderer) {
        if (row_begin >= row_end) return;
        const render::RowBand rows{row_begin, row_end};
        render::SubImage band = render_block(caster, b, &rows);
        std::copy(band.pixels.begin(), band.pixels.end(),
                  sub.pixels.begin() +
                      std::ptrdiff_t(std::size_t(row_begin) * width));
        sub.samples += band.samples;
        rank_samples[std::size_t(renderer)] += band.samples;
      };
      std::int64_t row = 0;
      for (std::size_t k = claims_begin; k < next_claim; ++k) {
        const steal::StealClaim& c = sched.claims[k];
        render_band(row, c.row_begin, owner);
        render_band(c.row_begin, c.row_end, c.thief);
        row = c.row_end;
      }
      render_band(row, std::max(0, full.height()), owner);
      subimages.push_back(std::move(sub));
    }
    const render::RenderModel rmodel(config_.machine);
    stats->render.total_samples = 0;
    for (const auto& s : subimages) stats->render.total_samples += s.samples;
    const auto worst =
        std::max_element(rank_samples.begin(), rank_samples.end());
    stats->render.max_rank_samples = *worst;
    stats->render.straggler_rank = worst - rank_samples.begin();
    // Execute mode charges the *actual* straggler's samples (measured load
    // imbalance), so no modeled imbalance factor is applied.
    stats->render.seconds =
        rmodel.seconds_for_samples(stats->render.max_rank_samples);
    stats->render_seconds = stats->render.seconds + stats->steal.steal_seconds;
    if (tracer_ != nullptr) {
      stage.arg("total_samples", double(stats->render.total_samples));
      stage.arg("max_rank_samples", double(stats->render.max_rank_samples));
      stage.arg("ranks", double(config_.num_ranks));
      stage.arg("straggler_rank", double(stats->render.straggler_rank));
      // The raycast kernel's execution is a kCompute child span covering
      // the balanced share of the stage (average rank load / straggler
      // load); the remainder — the straggler's excess — stays on
      // stage.render's self time, which attribution books as skew. The
      // kRender rule accounts for compute children, so the frame's compute
      // bucket is the same as before the span existed.
      double balanced = 1.0;
      if (config_.num_ranks > 0 && stats->render.max_rank_samples > 0) {
        balanced = std::clamp(double(stats->render.total_samples) /
                                  (double(config_.num_ranks) *
                                   double(stats->render.max_rank_samples)),
                              0.0, 1.0);
      }
      const double kernel_seconds = stats->render.seconds * balanced;
      {
        obs::ScopedSpan kernel(tracer_, "render.kernel",
                               obs::Category::kCompute);
        kernel.arg("samples", double(stats->render.total_samples));
        tracer_->advance(kernel_seconds);
      }
      tracer_->advance(stats->render.seconds - kernel_seconds);
    }
  }

  // --- Stage 3: the configured compositor with real pixels. ---
  {
    obs::ScopedSpan stage(tracer_, "stage.composite",
                          obs::Category::kComposite);
    stats->composite = composite_configured(rt, infos, subimages, out);
    stats->composite_seconds = stats->composite.seconds;
  }
}

FrameStats ParallelVolumeRenderer::execute_frame(const std::string& path,
                                                 Image* out) {
  runtime::Runtime& rt = execute_rt();
  FrameStats stats;
  obs::ScopedSpan frame(tracer_, "frame", obs::Category::kFrame);

  // --- Stage 1: collective read into per-rank bricks (with ghost). ---
  const auto blocks = io_blocks();
  std::vector<Brick> bricks;
  bricks.reserve(blocks.size());
  for (const auto& b : blocks) bricks.push_back(Brick(b.box));
  {
    obs::ScopedSpan stage(tracer_, "stage.io", obs::Category::kIo);
    format::DiskFile file(path, format::DiskFile::OpenMode::kRead);
    iolib::CollectiveReader reader(rt, *storage_, config_.hints);
    stats.io = reader.read(*layout_, variable_, blocks, &file, bricks);
    stats.io_seconds = stats.io.seconds;
  }

  execute_render_and_composite(bricks, &stats, out);
  if (tracer_ != nullptr) {
    stats.trace = obs::summarize_frame(*tracer_, frame.close());
  }
  return stats;
}

FrameStats ParallelVolumeRenderer::execute_frame_bivariate(
    const std::string& path, const std::string& opacity_variable,
    const render::BivariateTransferFunction& tf, Image* out) {
  runtime::Runtime& rt = execute_rt();
  FrameStats stats;
  obs::ScopedSpan frame(tracer_, "frame", obs::Category::kFrame);

  // --- Stage 1: one collective read covering both variables. ---
  const int vars[] = {variable_,
                      config_.dataset.variable_index(opacity_variable)};
  const auto blocks = io_blocks();
  std::vector<Brick> bricks;  // variable-major per block
  bricks.reserve(blocks.size() * 2);
  for (const auto& b : blocks) {
    bricks.push_back(Brick(b.box));
    bricks.push_back(Brick(b.box));
  }
  {
    obs::ScopedSpan stage(tracer_, "stage.io", obs::Category::kIo);
    format::DiskFile file(path, format::DiskFile::OpenMode::kRead);
    iolib::CollectiveReader reader(rt, *storage_, config_.hints);
    stats.io = reader.read_vars(*layout_, vars, blocks, &file, bricks);
    stats.io_seconds = stats.io.seconds;
  }

  // --- Stages 2 and 3, as in every execute frame: only the render call
  // differs. Both bricks of a block come from Brick(b.box), so they share
  // the box the kernel requires. ---
  execute_render_and_composite(
      [&](const render::Raycaster& caster, std::int64_t b,
          const render::RowBand* band) {
        const Brick& color = bricks[std::size_t(b) * 2];
        const Brick& opacity = bricks[std::size_t(b) * 2 + 1];
        const Box3i owned = decomp_->block_box(b);
        return band == nullptr
                   ? caster.render_block(color, opacity, owned, camera_, tf,
                                         pool_.get())
                   : caster.render_block_rows(color, opacity, owned, camera_,
                                              tf, band->begin, band->end,
                                              pool_.get());
      },
      /*vars=*/2, &stats, out);
  if (tracer_ != nullptr) {
    stats.trace = obs::summarize_frame(*tracer_, frame.close());
  }
  return stats;
}

FrameStats ParallelVolumeRenderer::execute_insitu_frame(
    const data::SupernovaField& field, Image* out) {
  FrameStats stats;
  const data::Variable var = data::variable_from_name(config_.variable);
  const auto blocks = io_blocks();
  std::vector<Brick> bricks(blocks.size());
  // Each chunk constructs and fills whole bricks, so no voxel depends on the
  // thread count and the zero fill runs on the pool too.
  par::parallel_for(pool_.get(), std::int64_t(bricks.size()), 1,
                    [&](std::int64_t begin, std::int64_t end, std::int64_t) {
                      for (std::int64_t b = begin; b < end; ++b) {
                        Brick& brick = bricks[std::size_t(b)];
                        brick = Brick(blocks[std::size_t(b)].box);
                        field.fill_brick(var, config_.dataset.dims, &brick);
                      }
                    });
  obs::ScopedSpan frame(tracer_, "frame", obs::Category::kFrame);
  execute_render_and_composite(bricks, &stats, out);
  if (tracer_ != nullptr) {
    stats.trace = obs::summarize_frame(*tracer_, frame.close());
  }
  return stats;
}

}  // namespace pvr::core
