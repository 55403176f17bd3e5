// Trilinear upsampling (paper §IV-B: the 2240^3 and 4480^3 time steps were
// produced by upsampling the 1120^3 data "efficiently, in parallel ... as a
// separate step prior to executing the visualization"). The streaming
// variant upsamples file-to-file one output z-slice of every variable at a
// time, from the two input slices of each variable that bracket it, so
// memory stays O(slice * variables) regardless of volume size.
#pragma once

#include <cstdint>

#include "data/writers.hpp"
#include "util/brick.hpp"

namespace pvr::data {

/// Upsamples `src` (interpreted on a grid of src_dims) by an integer factor
/// into `dst`, whose box must be factor * src box. Voxel-center convention:
/// dst voxel i samples src at ((i + 0.5) / factor) - 0.5.
void upsample_brick(const Brick& src, const Vec3i& src_dims, int factor,
                    Brick* dst);

/// File-to-file streaming upsample of every variable. `src_layout` and
/// `dst_layout` must describe the same variables with dst dims = factor *
/// src dims (formats may differ).
void upsample_dataset(const format::VolumeLayout& src_layout,
                      const format::FileHandle& src_file, int factor,
                      const format::VolumeLayout& dst_layout,
                      format::FileHandle* dst_file);

}  // namespace pvr::data
