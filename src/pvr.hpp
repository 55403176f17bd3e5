// Umbrella header: the complete public API of the pvr library.
//
//   pvr::core      — end-to-end parallel volume rendering pipeline
//   pvr::render    — decomposition, camera, transfer functions, ray caster
//   pvr::compose   — direct-send (original/improved) and radix-k (binary
//                    swap is radix 2)
//   pvr::iolib     — two-phase collective I/O, hints, independent reads
//   pvr::format    — raw, netCDF classic (CDF-1/2/5), SHDF layouts & codecs
//   pvr::data      — synthetic supernova data, writers, upsampling
//   pvr::storage   — parallel file system model, access logs
//   pvr::ckpt      — checkpoint/restart codec and Young/Daly intervals
//   pvr::fault     — deterministic fault injection, plans and timelines
//   pvr::steal     — deterministic render-stage work-stealing schedules
//   pvr::obs       — simulated-clock tracing, metrics, trace/metric export
//   pvr::profile   — critical path, bottleneck attribution, perf gating
//   pvr::runtime   — superstep rank runtime (execute & model modes)
//   pvr::net       — torus and tree network models
//   pvr::machine   — Blue Gene/P machine description and partitions
#pragma once

#include "ckpt/checkpoint.hpp"
#include "compose/direct_send.hpp"
#include "compose/image_partition.hpp"
#include "compose/policy.hpp"
#include "compose/radix_k.hpp"
#include "compose/schedule.hpp"
#include "core/pipeline.hpp"
#include "data/synthetic.hpp"
#include "data/upsample.hpp"
#include "data/writers.hpp"
#include "fault/fault_plan.hpp"
#include "fault/fault_timeline.hpp"
#include "format/dataset.hpp"
#include "format/extent.hpp"
#include "format/file_io.hpp"
#include "format/layout.hpp"
#include "format/netcdf.hpp"
#include "format/shdf.hpp"
#include "iolib/collective_read.hpp"
#include "iolib/collective_write.hpp"
#include "iolib/hints.hpp"
#include "iolib/independent_read.hpp"
#include "machine/config.hpp"
#include "machine/partition.hpp"
#include "net/torus.hpp"
#include "net/transfer.hpp"
#include "net/tree.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "par/thread_pool.hpp"
#include "profile/diff.hpp"
#include "profile/json.hpp"
#include "profile/profile.hpp"
#include "render/camera.hpp"
#include "render/decomposition.hpp"
#include "render/raycaster.hpp"
#include "render/render_model.hpp"
#include "render/simd/vec8.hpp"
#include "render/transfer_function.hpp"
#include "runtime/runtime.hpp"
#include "steal/steal.hpp"
#include "storage/access_log.hpp"
#include "storage/storage_model.hpp"
#include "util/brick.hpp"
#include "util/color.hpp"
#include "util/image.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/units.hpp"
#include "util/vec.hpp"
