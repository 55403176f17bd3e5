#include "iolib/independent_read.hpp"

#include <cstring>

#include "obs/trace.hpp"
#include "util/error.hpp"

namespace pvr::iolib {

IndependentReader::IndependentReader(runtime::Runtime& rt,
                                     const storage::StorageModel& sm,
                                     const Hints& hints)
    : rt_(&rt), storage_(&sm), hints_(hints) {}

ReadResult IndependentReader::read(const format::VolumeLayout& layout,
                                   int var,
                                   std::span<const RankBlock> blocks,
                                   format::FileHandle* file,
                                   std::span<Brick> bricks,
                                   storage::AccessLog* log) {
  const bool execute = rt_->mode() == runtime::Mode::kExecute &&
                       file != nullptr && !bricks.empty();
  if (execute) {
    PVR_REQUIRE(bricks.size() == blocks.size(),
                "need one brick per block in execute mode");
    PVR_REQUIRE(layout.desc().element_bytes == 4,
                "execute-mode scatter supports float32 only");
  }

  obs::Tracer* tracer = rt_->tracer();
  obs::ScopedSpan io_span(tracer, "io.independent_read", obs::Category::kIo);

  ReadResult result;
  result.open_seconds = model_open_cost(layout, blocks, *storage_, log);
  if (tracer != nullptr) {
    obs::ScopedSpan open_span(tracer, "io.open", obs::Category::kStorage);
    tracer->advance(result.open_seconds);
  }

  std::vector<storage::PhysicalAccess> accesses;
  std::vector<format::SlabRequest> slabs;
  std::vector<std::byte> buf;
  std::vector<float> row;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    slabs.clear();
    layout.subvolume_slabs(var, blocks[i].box, &slabs);
    const Box3i clipped =
        blocks[i].box.intersect(Box3i{{0, 0, 0}, layout.desc().dims});
    for (std::size_t s = 0; s < slabs.size(); ++s) {
      const format::SlabRequest& slab = slabs[s];
      result.useful_bytes += slab.useful_bytes();
      const std::int64_t z = clipped.lo.z + std::int64_t(s);
      if (hints_.data_sieving || slab.contiguous()) {
        // One access covering the slab hull (holes included).
        accesses.push_back(storage::PhysicalAccess{
            slab.first, slab.hull().length, blocks[i].rank});
      } else {
        for (std::int64_t r = 0; r < slab.nrows; ++r) {
          accesses.push_back(storage::PhysicalAccess{
              slab.first + r * slab.row_stride, slab.row_bytes,
              blocks[i].rank});
        }
      }
      if (execute) {
        // Read the hull once and scatter the rows.
        const format::Extent hull = slab.hull();
        buf.resize(std::size_t(hull.length));
        file->read_at(hull.offset, buf);
        Brick& brick = bricks[i];
        for (std::int64_t r = 0; r < slab.nrows; ++r) {
          const std::int64_t start = slab.first + r * slab.row_stride;
          const std::size_t count = std::size_t(slab.row_bytes / 4);
          const std::byte* src = buf.data() + (start - hull.offset);
          float* dst = brick.data().data() +
                       brick.row_index(clipped.lo.y + r, z) +
                       std::size_t(clipped.lo.x - brick.box().lo.x);
          if (layout.big_endian_data()) {
            format::big_endian_to_floats({src, count * 4}, {dst, count});
          } else {
            std::memcpy(dst, src, count * 4);
          }
        }
      }
    }
  }

  {
    obs::ScopedSpan storage_span(tracer, "io.storage",
                                 obs::Category::kStorage);
    result.storage_cost = storage_->read_cost(
        accesses, rt_->fault_plan(), rt_->fault_stats(),
        tracer != nullptr ? &tracer->metrics() : nullptr);
    if (tracer != nullptr) {
      storage_span.arg("accesses", double(result.storage_cost.accesses));
      storage_span.arg("physical_bytes",
                       double(result.storage_cost.physical_bytes));
      tracer->advance(result.storage_cost.seconds);
    }
  }
  result.accesses = result.storage_cost.accesses;
  result.physical_bytes = result.storage_cost.physical_bytes;
  if (log != nullptr) {
    log->record_all(accesses);
    log->set_useful_bytes(result.useful_bytes);
  }
  result.seconds = result.open_seconds + result.storage_cost.seconds;
  if (tracer != nullptr) {
    io_span.arg("blocks", double(blocks.size()));
    io_span.arg("useful_bytes", double(result.useful_bytes));
    io_span.arg("physical_bytes", double(result.physical_bytes));
  }
  return result;
}

}  // namespace pvr::iolib
