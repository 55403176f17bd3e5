#include "ckpt/checkpoint.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <vector>

#include "iolib/collective_read.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace pvr::ckpt {

namespace {
constexpr char kMagic[8] = {'P', 'V', 'R', 'C', 'K', 'P', 'T', '1'};
}  // namespace

format::DatasetDesc CheckpointCodec::state_desc(const Vec3i& dims) {
  format::DatasetDesc desc;
  desc.format = format::FileFormat::kRaw;
  desc.dims = dims;
  desc.variables = {"state"};
  return desc;
}

double CheckpointCodec::metadata_cost(const format::VolumeLayout& layout,
                                      std::int64_t image_bytes) {
  obs::Tracer* tracer = rt_->tracer();
  const storage::PhysicalAccess access{
      layout.file_bytes(), kTrailerBytes + image_bytes, /*client_rank=*/0};
  const storage::IoCost cost = storage_->read_cost(
      std::span<const storage::PhysicalAccess>(&access, 1),
      rt_->fault_plan(), rt_->fault_stats(),
      tracer != nullptr ? &tracer->metrics() : nullptr);
  if (tracer != nullptr) {
    obs::ScopedSpan span(tracer, "storage.ckpt_trailer",
                         obs::Category::kStorage);
    span.arg("bytes", double(access.bytes));
    tracer->advance(cost.seconds);
  }
  return cost.seconds;
}

CheckpointIo CheckpointCodec::write(const format::VolumeLayout& layout,
                                    std::span<const iolib::RankBlock> blocks,
                                    std::int64_t frame_index,
                                    std::int64_t image_bytes,
                                    format::FileHandle* file,
                                    std::span<const Brick> bricks) {
  PVR_REQUIRE(frame_index >= 0, "checkpoint frame index cannot be negative");
  PVR_REQUIRE(image_bytes >= 0, "image payload cannot be negative");
  obs::ScopedSpan span(rt_->tracer(), "ckpt.write",
                       obs::Category::kCheckpoint);

  CheckpointIo ck;
  ck.frame_index = frame_index;
  iolib::CollectiveWriter writer(*rt_, *storage_, hints_);
  ck.io = writer.write(layout, /*var=*/0, blocks, file, bricks);

  if (file != nullptr) {
    const std::int64_t state_bytes = layout.file_bytes();
    std::array<std::byte, std::size_t(kTrailerBytes)> trailer{};
    std::memcpy(trailer.data(), kMagic, sizeof(kMagic));
    std::memcpy(trailer.data() + 8, &frame_index, 8);
    std::memcpy(trailer.data() + 16, &state_bytes, 8);
    std::memcpy(trailer.data() + 24, &image_bytes, 8);
    file->write_at(state_bytes, trailer);
    if (image_bytes > 0) {
      // The image payload is priced but its pixels are owned by the caller;
      // a zero-filled placeholder keeps the file size self-consistent.
      const std::vector<std::byte> zeros(std::size_t(image_bytes), std::byte{0});
      file->write_at(state_bytes + kTrailerBytes, zeros);
    }
  }
  // Commit: the trailer lands only after every state byte, and the barrier
  // makes the checkpoint valid on all ranks at once.
  ck.metadata_seconds = metadata_cost(layout, image_bytes) + rt_->barrier();
  ck.seconds = ck.io.seconds + ck.metadata_seconds;
  ck.bytes = ck.io.useful_bytes + kTrailerBytes + image_bytes;
  span.arg("frame", double(frame_index));
  span.arg("bytes", double(ck.bytes));
  return ck;
}

CheckpointIo CheckpointCodec::read(const format::VolumeLayout& layout,
                                   std::span<const iolib::RankBlock> blocks,
                                   format::FileHandle* file,
                                   std::span<Brick> bricks,
                                   std::int64_t image_bytes) {
  PVR_REQUIRE(image_bytes >= 0, "image payload cannot be negative");
  obs::ScopedSpan span(rt_->tracer(), "ckpt.read",
                       obs::Category::kCheckpoint);

  CheckpointIo ck;
  if (file != nullptr) {
    const std::int64_t state_bytes = layout.file_bytes();
    if (file->size() < state_bytes + kTrailerBytes) {
      throw Error("checkpoint restart failed: file holds " +
                  std::to_string(file->size()) + " bytes, need " +
                  std::to_string(state_bytes + kTrailerBytes) +
                  " (state + trailer); the checkpoint is truncated or was "
                  "written for a different grid");
    }
    std::array<std::byte, std::size_t(kTrailerBytes)> trailer{};
    file->read_at(state_bytes, trailer);
    if (std::memcmp(trailer.data(), kMagic, sizeof(kMagic)) != 0) {
      throw Error("checkpoint restart failed: bad trailer magic (not a pvr "
                  "checkpoint, or state size mismatch)");
    }
    std::int64_t stored_state = 0;
    std::memcpy(&ck.frame_index, trailer.data() + 8, 8);
    std::memcpy(&stored_state, trailer.data() + 16, 8);
    std::memcpy(&image_bytes, trailer.data() + 24, 8);
    if (stored_state != state_bytes) {
      throw Error("checkpoint restart failed: trailer records " +
                  std::to_string(stored_state) + " state bytes, layout "
                  "expects " + std::to_string(state_bytes));
    }
    if (ck.frame_index < 0) {
      throw Error("checkpoint restart failed: trailer records frame " +
                  std::to_string(ck.frame_index));
    }
    const std::int64_t payload = file->size() - state_bytes - kTrailerBytes;
    if (image_bytes < 0 || image_bytes > payload) {
      throw Error("checkpoint restart failed: trailer records a " +
                  std::to_string(image_bytes) + "-byte image, the file "
                  "holds " + std::to_string(payload) + " bytes past it");
    }
  }
  iolib::CollectiveReader reader(*rt_, *storage_, hints_);
  ck.io = reader.read(layout, /*var=*/0, blocks, file, bricks);
  ck.metadata_seconds = metadata_cost(layout, image_bytes);
  ck.seconds = ck.io.seconds + ck.metadata_seconds;
  ck.bytes = ck.io.useful_bytes + kTrailerBytes + image_bytes;
  span.arg("frame", double(ck.frame_index));
  span.arg("bytes", double(ck.bytes));
  return ck;
}

double optimal_interval(double checkpoint_seconds, double mtbf_seconds) {
  PVR_REQUIRE(checkpoint_seconds >= 0.0,
              "checkpoint cost cannot be negative");
  PVR_REQUIRE(mtbf_seconds > 0.0, "MTBF must be positive");
  return std::sqrt(2.0 * checkpoint_seconds * mtbf_seconds);
}

std::int64_t optimal_interval_frames(double checkpoint_seconds,
                                     double mtbf_seconds,
                                     double frame_seconds) {
  PVR_REQUIRE(frame_seconds > 0.0, "frame time must be positive");
  const double frames =
      optimal_interval(checkpoint_seconds, mtbf_seconds) / frame_seconds;
  return std::max<std::int64_t>(1, std::int64_t(std::llround(frames)));
}

double expected_overhead(double interval_seconds, double checkpoint_seconds,
                         double mtbf_seconds) {
  PVR_REQUIRE(interval_seconds > 0.0, "interval must be positive");
  PVR_REQUIRE(checkpoint_seconds >= 0.0,
              "checkpoint cost cannot be negative");
  PVR_REQUIRE(mtbf_seconds > 0.0, "MTBF must be positive");
  return checkpoint_seconds / interval_seconds +
         interval_seconds / (2.0 * mtbf_seconds);
}

}  // namespace pvr::ckpt
