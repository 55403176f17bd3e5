#include "format/layout.hpp"

namespace pvr::format {

const char* format_name(FileFormat fmt) {
  switch (fmt) {
    case FileFormat::kRaw:
      return "raw";
    case FileFormat::kNetcdfRecord:
      return "netcdf-record";
    case FileFormat::kNetcdf64:
      return "netcdf-64bit";
    case FileFormat::kShdf:
      return "shdf";
  }
  return "unknown";
}

std::int64_t SlabRequest::first_wanted_at_or_after(std::int64_t pos) const {
  if (nrows == 0) return hull_end();
  if (pos <= first) return first;
  if (pos >= hull_end()) return hull_end();
  const std::int64_t rel = pos - first;
  const std::int64_t row = rel / row_stride;
  const std::int64_t within = rel % row_stride;
  if (row < nrows && within < row_bytes) return pos;  // inside a run
  const std::int64_t next_row = row + 1;
  if (next_row >= nrows) return hull_end();
  return first + next_row * row_stride;
}

std::int64_t SlabRequest::last_wanted_before(std::int64_t pos) const {
  if (nrows == 0 || pos <= first) return first;
  if (pos >= hull_end()) return hull_end();
  const std::int64_t rel = pos - first;
  const std::int64_t row = rel / row_stride;
  const std::int64_t within = rel % row_stride;
  if (row < nrows && within > 0 && within <= row_bytes) return pos;
  if (row >= nrows) return hull_end();
  // pos falls in the gap after run `row` (or at a run start): wanted data
  // ends at the end of run `row` if within >= row_bytes, else at the end of
  // the previous run.
  if (within >= row_bytes) return first + row * row_stride + row_bytes;
  if (row == 0) return first;
  return first + (row - 1) * row_stride + row_bytes;
}

std::int64_t SlabRequest::useful_bytes_in(std::int64_t lo,
                                          std::int64_t hi) const {
  if (nrows == 0) return 0;
  lo = std::max(lo, first);
  hi = std::min(hi, hull_end());
  if (lo >= hi) return 0;
  auto covered_below = [&](std::int64_t pos) {
    // Wanted bytes in [first, pos).
    if (pos <= first) return std::int64_t{0};
    const std::int64_t rel = pos - first;
    const std::int64_t full_rows = std::min(nrows, rel / row_stride);
    std::int64_t sum = full_rows * row_bytes;
    if (full_rows < nrows) {
      sum += std::min(rel - full_rows * row_stride, row_bytes);
    }
    return sum;
  };
  return covered_below(hi) - covered_below(lo);
}

VolumeLayout::VolumeLayout(DatasetDesc desc) : desc_(std::move(desc)) {
  PVR_REQUIRE(desc_.dims.x > 0 && desc_.dims.y > 0 && desc_.dims.z > 0,
              "dataset dims must be positive");
  PVR_REQUIRE(!desc_.variables.empty(), "dataset needs variables");
  PVR_REQUIRE(desc_.element_bytes > 0, "element size must be positive");
  switch (desc_.format) {
    case FileFormat::kRaw:
      PVR_REQUIRE(desc_.variables.size() == 1,
                  "raw format stores exactly one variable per file");
      file_bytes_ = desc_.bytes_per_variable();
      break;
    case FileFormat::kNetcdfRecord:
      nc_ = std::make_unique<netcdf::File>(netcdf::make_volume_file(
          netcdf::Version::k64BitOffset, desc_.dims.x, desc_.dims.y,
          desc_.dims.z, desc_.variables, /*record_z=*/true));
      file_bytes_ = nc_->file_bytes();
      break;
    case FileFormat::kNetcdf64:
      nc_ = std::make_unique<netcdf::File>(netcdf::make_volume_file(
          netcdf::Version::k64BitData, desc_.dims.x, desc_.dims.y,
          desc_.dims.z, desc_.variables, /*record_z=*/false));
      file_bytes_ = nc_->file_bytes();
      break;
    case FileFormat::kShdf:
      shdf_ = std::make_unique<shdf::FileInfo>(shdf::make_layout(
          desc_.dims, desc_.variables, desc_.element_bytes));
      file_bytes_ = shdf_->file_bytes();
      break;
  }
  slice_stride_ = desc_.format == FileFormat::kNetcdfRecord
                      ? nc_->record_size()
                      : desc_.slice_bytes();
}

const netcdf::File& VolumeLayout::netcdf_file() const {
  PVR_REQUIRE(nc_ != nullptr, "not a netCDF layout");
  return *nc_;
}

const shdf::FileInfo& VolumeLayout::shdf_info() const {
  PVR_REQUIRE(shdf_ != nullptr, "not an SHDF layout");
  return *shdf_;
}

std::int64_t VolumeLayout::element_offset(int var, const Vec3i& idx) const {
  PVR_REQUIRE(var >= 0 && var < int(desc_.variables.size()),
              "variable index out of range");
  PVR_REQUIRE(idx.x >= 0 && idx.x < desc_.dims.x && idx.y >= 0 &&
                  idx.y < desc_.dims.y && idx.z >= 0 && idx.z < desc_.dims.z,
              "element index out of range");
  const std::int64_t eb = desc_.element_bytes;
  const std::int64_t in_slice = (idx.y * desc_.dims.x + idx.x) * eb;
  const std::int64_t linear =
      ((idx.z * desc_.dims.y + idx.y) * desc_.dims.x + idx.x) * eb;
  switch (desc_.format) {
    case FileFormat::kRaw:
      return linear;
    case FileFormat::kNetcdfRecord:
      return nc_->data_offset(var, idx.z) + in_slice;
    case FileFormat::kNetcdf64:
      return nc_->data_offset(var) + linear;
    case FileFormat::kShdf:
      return shdf_->vars[std::size_t(var)].offset + linear;
  }
  throw Error("unknown format");
}

SlabRun VolumeLayout::slab_run(int var, const Box3i& box) const {
  const Box3i clipped = box.intersect(Box3i{{0, 0, 0}, desc_.dims});
  if (clipped.empty()) return {};
  const std::int64_t eb = desc_.element_bytes;
  SlabRun run;
  run.first.first = element_offset(var, clipped.lo);
  run.first.row_bytes = (clipped.hi.x - clipped.lo.x) * eb;
  run.first.row_stride = desc_.dims.x * eb;
  run.first.nrows = clipped.hi.y - clipped.lo.y;
  // Full-width rows (row_bytes == row_stride) are contiguous across y;
  // contiguous() reports that and the sieving math handles it, while the
  // per-row structure stays intact so receivers can map rows back to y.
  run.z0 = clipped.lo.z;
  run.slices = clipped.hi.z - clipped.lo.z;
  return run;
}

void VolumeLayout::subvolume_slabs(int var, const Box3i& box,
                                   std::vector<SlabRequest>* out) const {
  PVR_REQUIRE(out != nullptr, "null output vector");
  const SlabRun run = slab_run(var, box);
  for (std::int64_t k = 0; k < run.slices; ++k) {
    out->push_back(run.slice(k, slice_stride_));
  }
}

std::vector<Extent> VolumeLayout::open_metadata_accesses() const {
  switch (desc_.format) {
    case FileFormat::kRaw:
      return {};  // no self-describing header
    case FileFormat::kNetcdfRecord:
    case FileFormat::kNetcdf64:
      return {Extent{0, nc_->header_bytes()}};
    case FileFormat::kShdf:
      return shdf::open_metadata_accesses(*shdf_);
  }
  throw Error("unknown format");
}

}  // namespace pvr::format
