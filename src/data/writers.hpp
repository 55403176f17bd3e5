// Dataset writers: produce real on-disk files in every studied format from
// the synthetic field (or from caller-provided slices). Writing goes through
// the same VolumeLayout the readers use, so the files are layout-true by
// construction, and the netCDF/SHDF headers come from the real codecs.
#pragma once

#include <functional>
#include <string>

#include "data/synthetic.hpp"
#include "format/file_io.hpp"
#include "format/layout.hpp"

namespace pvr::data {

/// Produces z-slice `z` of every variable at once: slices[var] receives
/// dims.x * dims.y floats of variable `var`, x fastest.
using SliceProducer = std::function<void(
    std::int64_t z, std::span<const std::span<float>> slices)>;

/// Writes a complete dataset file described by `layout` into `file`,
/// pulling slice data from `producer` one z-slice of every variable at a
/// time, so it holds one slice buffer per variable and never a volume.
/// Handles headers and on-disk byte order per format.
void write_dataset(const format::VolumeLayout& layout,
                   const SliceProducer& producer, format::FileHandle* file);

/// Convenience: writes the synthetic supernova time step to `path`,
/// evaluating each voxel once for all of the file's variables.
void write_supernova_file(const format::DatasetDesc& desc,
                          const std::string& path,
                          std::uint64_t seed = 1530);

/// Reads a whole variable into a Brick covering the full volume (simple
/// serial read used for ground truth in tests). The brick is resized.
void read_variable(const format::VolumeLayout& layout, int var,
                   const format::FileHandle& file, Brick* out);

}  // namespace pvr::data
