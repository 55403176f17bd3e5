// Unified layout API over all storage formats: maps (variable, subvolume) to
// file byte ranges.
//
// A subvolume's bytes are summarized as SlabRequests — one per z-slice of
// a block, describing its regular row structure (row length, stride,
// count, hull). Every format puts a variable's consecutive z-slices one
// slice_stride() apart, so a block's whole request is a SlabRun: its first
// slice, the slice count and that stride. The collective I/O engine works
// on slab runs, which keeps model-mode runs at 32 Ki ranks tractable while
// remaining byte-exact: any individual row position is recoverable
// arithmetically from the run.
#pragma once

#include <memory>
#include <vector>

#include "format/dataset.hpp"
#include "format/extent.hpp"
#include "format/netcdf.hpp"
#include "format/shdf.hpp"

namespace pvr::format {

/// Regular run structure of one z-slice (netCDF record) of a block request:
/// `nrows` runs of `row_bytes`, starting at hull.offset, spaced `row_stride`.
struct SlabRequest {
  std::int64_t first = 0;      ///< offset of the first run
  std::int64_t row_bytes = 0;  ///< bytes per contiguous run
  std::int64_t row_stride = 0; ///< distance between run starts (>= row_bytes)
  std::int64_t nrows = 0;      ///< number of runs

  bool operator==(const SlabRequest&) const = default;

  std::int64_t useful_bytes() const { return row_bytes * nrows; }
  std::int64_t hull_end() const {
    return nrows == 0 ? first : first + (nrows - 1) * row_stride + row_bytes;
  }
  Extent hull() const { return Extent{first, hull_end() - first}; }
  bool contiguous() const { return nrows <= 1 || row_stride == row_bytes; }

  /// First wanted byte >= pos within this slab, or hull_end() if none.
  std::int64_t first_wanted_at_or_after(std::int64_t pos) const;
  /// Last wanted byte < pos (exclusive bound), or `first` if none; returns
  /// the exclusive end of wanted data strictly below pos.
  std::int64_t last_wanted_before(std::int64_t pos) const;
  /// Wanted bytes within [lo, hi).
  std::int64_t useful_bytes_in(std::int64_t lo, std::int64_t hi) const;
};

/// One (variable, box) request as a run of z-slices: slice k is `first`
/// moved k strides on in the file (VolumeLayout::slice_stride()), with the
/// same row shape, at z = z0 + k.
struct SlabRun {
  SlabRequest first;        ///< the slice at z0
  std::int64_t z0 = 0;      ///< z of the first slice
  std::int64_t slices = 0;  ///< slice count; 0 when the box misses the volume

  /// Slice k of the run, given the layout's slice_stride().
  SlabRequest slice(std::int64_t k, std::int64_t stride) const {
    SlabRequest s = first;
    s.first += k * stride;
    return s;
  }
};

/// Layout calculator for one stored time step.
class VolumeLayout {
 public:
  explicit VolumeLayout(DatasetDesc desc);

  const DatasetDesc& desc() const { return desc_; }
  std::int64_t file_bytes() const { return file_bytes_; }
  /// netCDF data is big-endian on disk; raw and SHDF are native.
  bool big_endian_data() const {
    return desc_.format == FileFormat::kNetcdfRecord ||
           desc_.format == FileFormat::kNetcdf64;
  }

  /// File offset of element (x, y, z) of a variable.
  std::int64_t element_offset(int var, const Vec3i& idx) const;

  /// Bytes between consecutive z-slices of one variable: one record for
  /// netCDF record variables, one xy-plane otherwise. The same for every
  /// variable and box.
  std::int64_t slice_stride() const { return slice_stride_; }

  /// The slab run of a subvolume clipped to the volume.
  SlabRun slab_run(int var, const Box3i& box) const;

  /// Slab summaries of a subvolume: its slab run expanded, one SlabRequest
  /// per z-slice.
  void subvolume_slabs(int var, const Box3i& box,
                       std::vector<SlabRequest>* out) const;

  /// Small metadata reads each process performs at open time (format
  /// dependent; SHDF's 11 tiny accesses, netCDF's header read, none for raw).
  std::vector<Extent> open_metadata_accesses() const;

  /// The netCDF header object when the format is a netCDF variant.
  const netcdf::File& netcdf_file() const;
  /// The SHDF metadata when the format is SHDF.
  const shdf::FileInfo& shdf_info() const;

 private:
  DatasetDesc desc_;
  std::int64_t file_bytes_ = 0;
  std::int64_t slice_stride_ = 0;
  std::unique_ptr<netcdf::File> nc_;
  std::unique_ptr<shdf::FileInfo> shdf_;
};

}  // namespace pvr::format
