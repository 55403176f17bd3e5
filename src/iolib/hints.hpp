// MPI-IO-style hints controlling the collective read path. The paper's
// "original" vs "tuned" PnetCDF modes differ only in these values: tuning
// sets cb_buffer_bytes to the netCDF record size so that each two-phase
// buffer covers exactly one record and no unwanted records are read.
#pragma once

#include <cstdint>

#include "util/units.hpp"

namespace pvr::iolib {

struct Hints {
  /// Size of each aggregator's staging buffer (cb_buffer_size). ROMIO's
  /// default on the studied systems was 16 MiB.
  std::int64_t cb_buffer_bytes = 16 * MiB;
  /// Number of aggregators per I/O node (cb_nodes is derived as
  /// ions * aggregators_per_ion, capped by the rank count).
  int aggregators_per_ion = 8;
  /// Data sieving for independent reads: read the hull of each slab in one
  /// access instead of one access per row.
  bool data_sieving = true;

  static Hints untuned() { return Hints{}; }

  /// The paper's tuned configuration: buffer matched to one variable's
  /// netCDF record — a 2D slice, nx * ny * 4 bytes (the paper sets the read
  /// buffer to "the netCDF record size (1120^2 x 4 bytes)").
  static Hints tuned_for_record(std::int64_t record_bytes) {
    Hints h;
    h.cb_buffer_bytes = record_bytes;
    return h;
  }
};

}  // namespace pvr::iolib
