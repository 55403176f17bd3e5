// Two-phase collective read, modeled after ROMIO's generalized collective
// buffering (Thakur et al., "Data sieving and collective I/O in ROMIO"):
//
//   1. every rank's wanted bytes are assembled into a global request in
//      file order: the format layout gives each (block, variable) a slab run
//      (its first z-slice, the slice count, and a stride shared by the whole
//      file), and a sweep over the runs emits every slice in offset order,
//      overlapping blocks' equal offsets in block order, with no sort and
//      memory linear in the block count,
//   2. the file range [min, max) of the request is partitioned into file
//      domains over A aggregator ranks (A = IONs x aggregators_per_ion,
//      capped by the rank count), aligned to file-system stripes,
//   3. each aggregator processes its domain in cb_buffer_bytes windows,
//      reading each window once from the first to the last byte any rank
//      wants inside it (data sieving: holes in between are read too); a
//      domain's windows and its per-rank shuffle bytes depend only on the
//      entries overlapping it, so the plan builds them in chunks of whole
//      domains on the runtime's host pool (inline without one), each
//      rank's bytes for an aggregator folded into one total and drained
//      in rank order,
//   4. window contents are scattered to the requesting ranks over the
//      torus (the "shuffle"): one message per (aggregator, rank) pair,
//      priced by the network model.
//
// The same code runs in model mode (no bytes move; costs and access logs
// only) and execute mode (a real file is read and per-rank Bricks are
// filled, validating byte-for-byte correctness at small scale).
#pragma once

#include <span>
#include <vector>

#include "format/file_io.hpp"
#include "format/layout.hpp"
#include "iolib/hints.hpp"
#include "runtime/runtime.hpp"
#include "storage/access_log.hpp"
#include "storage/storage_model.hpp"
#include "util/brick.hpp"

namespace pvr::iolib {

/// Assignment of one data block (global index box) to one rank.
struct RankBlock {
  std::int64_t rank = 0;
  Box3i box;
};

/// Outcome of one collective (or independent) read.
struct ReadResult {
  double seconds = 0.0;         ///< open + physical reads + shuffle
  double open_seconds = 0.0;
  storage::IoCost storage_cost; ///< physical access cost breakdown
  net::ExchangeCost shuffle_cost;
  std::int64_t useful_bytes = 0;
  std::int64_t physical_bytes = 0;
  std::int64_t accesses = 0;

  /// Application-visible bandwidth: useful bytes / total time (the rate the
  /// paper's Fig 7 reports).
  double bandwidth_useful() const {
    return seconds > 0.0 ? double(useful_bytes) / seconds : 0.0;
  }
  /// The paper's data density (Fig 10): useful / physically read.
  double data_density() const {
    return physical_bytes > 0 ? double(useful_bytes) / double(physical_bytes)
                              : 0.0;
  }
};

class CollectiveReader {
 public:
  CollectiveReader(runtime::Runtime& rt, const storage::StorageModel& sm,
                   const Hints& hints);

  /// Reads variable `var` of `layout`, one block per entry of `blocks`.
  /// In execute mode pass the real `file` and one Brick per block (bricks[i]
  /// receives blocks[i]; each brick must already have box == blocks[i].box).
  /// Pass `log` to capture the physical access pattern (Fig 9).
  ReadResult read(const format::VolumeLayout& layout, int var,
                  std::span<const RankBlock> blocks,
                  format::FileHandle* file = nullptr,
                  std::span<Brick> bricks = {},
                  storage::AccessLog* log = nullptr);

  /// Multivariate collective read: all listed variables in one two-phase
  /// pass (the paper's motivation for reading netCDF directly: "multiple
  /// variables simultaneously available for rendering"). In execute mode
  /// `bricks` holds blocks.size() * vars.size() bricks, variable-major per
  /// block: bricks[b * vars.size() + v] receives variable vars[v] of
  /// blocks[b].
  ReadResult read_vars(const format::VolumeLayout& layout,
                       std::span<const int> vars,
                       std::span<const RankBlock> blocks,
                       format::FileHandle* file = nullptr,
                       std::span<Brick> bricks = {},
                       storage::AccessLog* log = nullptr);

  const Hints& hints() const { return hints_; }

 private:
  runtime::Runtime* rt_;
  const storage::StorageModel* storage_;
  Hints hints_;
};

/// Models the per-rank open-time metadata reads (netCDF header, SHDF object
/// headers): each distinct rank of `blocks` reads them once. Returns modeled
/// seconds and appends the accesses to `log`, rank by rank in order of first
/// appearance.
double model_open_cost(const format::VolumeLayout& layout,
                       std::span<const RankBlock> blocks,
                       const storage::StorageModel& sm,
                       storage::AccessLog* log);

}  // namespace pvr::iolib
