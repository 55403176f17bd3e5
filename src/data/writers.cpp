#include "data/writers.hpp"

#include <cstring>
#include <vector>

#include "util/error.hpp"

namespace pvr::data {

void write_dataset(const format::VolumeLayout& layout,
                   const SliceProducer& producer,
                   format::FileHandle* file) {
  PVR_REQUIRE(file != nullptr, "null file");
  const format::DatasetDesc& desc = layout.desc();
  PVR_REQUIRE(desc.element_bytes == 4, "writers support float32 only");

  // Header bytes straight from the codecs.
  switch (desc.format) {
    case format::FileFormat::kRaw:
      break;  // headerless
    case format::FileFormat::kNetcdfRecord:
    case format::FileFormat::kNetcdf64: {
      const std::vector<std::byte> hdr = layout.netcdf_file().encode_header();
      file->write_at(0, hdr);
      break;
    }
    case format::FileFormat::kShdf: {
      const std::vector<std::byte> meta =
          format::shdf::encode_metadata(layout.shdf_info());
      file->write_at(0, meta);
      break;
    }
  }

  const std::size_t slice_elems = std::size_t(desc.dims.x * desc.dims.y);
  std::vector<std::vector<float>> buffers(
      std::size_t(desc.num_variables()), std::vector<float>(slice_elems));
  std::vector<std::span<float>> slices(buffers.begin(), buffers.end());
  std::vector<std::byte> bytes(slice_elems * 4);
  for (std::int64_t z = 0; z < desc.dims.z; ++z) {
    producer(z, slices);
    for (int var = 0; var < int(desc.num_variables()); ++var) {
      const std::span<const float> slice = slices[std::size_t(var)];
      if (layout.big_endian_data()) {
        format::floats_to_big_endian(slice, bytes);
      } else {
        std::memcpy(bytes.data(), slice.data(), bytes.size());
      }
      // A slice is contiguous in every studied format; its position comes
      // from the layout, so the write order does not change the file.
      const std::int64_t off = layout.element_offset(var, {0, 0, z});
      file->write_at(off, bytes);
    }
  }
}

void write_supernova_file(const format::DatasetDesc& desc,
                          const std::string& path, std::uint64_t seed) {
  const format::VolumeLayout layout(desc);
  const SupernovaField field(seed);
  std::vector<Variable> vars;
  for (const std::string& name : desc.variables) {
    vars.push_back(variable_from_name(name));
  }
  std::vector<float*> rows(vars.size());
  format::DiskFile file(path, format::DiskFile::OpenMode::kTruncate);
  write_dataset(
      layout,
      [&](std::int64_t z, std::span<const std::span<float>> slices) {
        for (std::int64_t y = 0; y < desc.dims.y; ++y) {
          for (std::size_t v = 0; v < vars.size(); ++v) {
            rows[v] = slices[v].data() + std::size_t(y * desc.dims.x);
          }
          field.fill_row(vars, y, z, 0, desc.dims.x, desc.dims, rows);
        }
      },
      &file);
}

void read_variable(const format::VolumeLayout& layout, int var,
                   const format::FileHandle& file, Brick* out) {
  PVR_REQUIRE(out != nullptr, "null brick");
  const format::DatasetDesc& desc = layout.desc();
  *out = Brick(Box3i{{0, 0, 0}, desc.dims});
  const std::int64_t slice_elems = desc.dims.x * desc.dims.y;
  std::vector<std::byte> bytes(std::size_t(slice_elems) * 4);
  for (std::int64_t z = 0; z < desc.dims.z; ++z) {
    const std::int64_t off = layout.element_offset(var, {0, 0, z});
    file.read_at(off, bytes);
    float* dst = out->data().data() + std::size_t(z * slice_elems);
    if (layout.big_endian_data()) {
      format::big_endian_to_floats(bytes, {dst, std::size_t(slice_elems)});
    } else {
      std::memcpy(dst, bytes.data(), bytes.size());
    }
  }
}

}  // namespace pvr::data
