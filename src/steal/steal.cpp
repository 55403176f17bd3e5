#include "steal/steal.hpp"

#include <algorithm>
#include <queue>

#include "util/error.hpp"

namespace pvr::steal {

const char* to_string(StealPolicy policy) {
  switch (policy) {
    case StealPolicy::kOff: return "off";
    case StealPolicy::kScanlineChunks: return "scanline_chunks";
    case StealPolicy::kReplicateBlocks: return "replicate_blocks";
  }
  return "off";
}

void validate(const StealConfig& config) {
  if (config.chunks_per_block < 1) {
    throw Error("invalid StealConfig: chunks_per_block = " +
                std::to_string(config.chunks_per_block) +
                "; a block must be divisible into at least one chunk");
  }
  if (config.claim_bytes < 0) {
    throw Error("invalid StealConfig: claim_bytes = " +
                std::to_string(config.claim_bytes) +
                "; claim descriptors cannot have negative size");
  }
}

StealPlanner::StealPlanner(const machine::MachineConfig& machine,
                           StealConfig config)
    : machine_(&machine), config_(config) {
  PVR_REQUIRE(valid(machine), "invalid machine config");
  validate(config_);
}

namespace {

/// One stealable unit: a contiguous row band of a block's footprint.
struct Chunk {
  std::int64_t block = 0;
  std::int64_t row_begin = 0;
  std::int64_t row_end = 0;
  std::int64_t samples = 0;
};

/// Lazy heap entry: (time snapshot, rank). Entries are invalidated by
/// comparing the snapshot bitwise against the rank's current time, so the
/// heap never needs decrease-key. Ties break toward the lower rank for
/// determinism.
struct HeapEntry {
  double time = 0.0;
  std::int64_t rank = 0;
};

struct VictimOrder {  // max-heap on time; lower rank wins ties
  bool operator()(const HeapEntry& a, const HeapEntry& b) const {
    if (a.time != b.time) return a.time < b.time;
    return a.rank > b.rank;
  }
};

struct ThiefOrder {  // min-heap on time; lower rank wins ties
  bool operator()(const HeapEntry& a, const HeapEntry& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.rank > b.rank;
  }
};

}  // namespace

StealSchedule StealPlanner::plan(
    std::span<const BlockWork> blocks, std::int64_t num_ranks,
    const std::function<double(std::int64_t)>& rank_slowdown) const {
  PVR_REQUIRE(num_ranks > 0, "need at least one rank");
  StealSchedule sched;

  // --- Per-rank state: slowdown, liveness, seconds-per-sample weight. ---
  const double rate = machine_->samples_per_second;
  std::vector<double> weight(std::size_t(num_ranks), 0.0);
  std::vector<char> live(std::size_t(num_ranks), 0);
  for (std::int64_t r = 0; r < num_ranks; ++r) {
    const double s = rank_slowdown == nullptr ? 1.0 : rank_slowdown(r);
    if (!(s > 0.0)) continue;  // dead: never a victim nor a thief
    live[std::size_t(r)] = 1;
    weight[std::size_t(r)] = s / rate;
  }

  // --- Per-rank load and per-rank stacks of stealable chunks. Chunks are
  // pushed in ascending row order and popped from the back, so a victim
  // sheds its footprint tail first and always keeps a row prefix. ---
  std::vector<double> t(std::size_t(num_ranks), 0.0);
  std::vector<std::int64_t> rank_samples(std::size_t(num_ranks), 0);
  std::vector<std::vector<Chunk>> stealable;
  stealable.resize(std::size_t(num_ranks));
  std::int64_t total_live_samples = 0;
  const std::int64_t C = config_.chunks_per_block;
  for (const BlockWork& b : blocks) {
    PVR_REQUIRE(b.owner >= 0 && b.owner < num_ranks,
                "block owner out of range");
    if (!live[std::size_t(b.owner)]) continue;  // dropped with its dead owner
    t[std::size_t(b.owner)] += double(b.samples) * weight[std::size_t(b.owner)];
    rank_samples[std::size_t(b.owner)] += b.samples;
    total_live_samples += b.samples;
    if (b.samples <= 0 || b.rows <= 0) continue;  // nothing to steal
    const std::int64_t chunks = std::min<std::int64_t>(C, b.rows);
    for (std::int64_t c = 0; c < chunks; ++c) {
      Chunk chunk;
      chunk.block = b.block;
      chunk.row_begin = b.rows * c / chunks;
      chunk.row_end = b.rows * (c + 1) / chunks;
      // Cumulative apportioning: chunk samples sum exactly to b.samples.
      chunk.samples = b.samples * chunk.row_end / b.rows -
                      b.samples * chunk.row_begin / b.rows;
      stealable[std::size_t(b.owner)].push_back(chunk);
    }
  }

  // --- Load-balance yardsticks. The ideal is water-filling: spread the
  // live samples over live ranks in proportion to their speed, so every
  // rank finishes at T_ideal = total / (rate * sum of 1/slowdown). ---
  double inv_slowdown_sum = 0.0;
  double worst_before = 0.0;
  for (std::int64_t r = 0; r < num_ranks; ++r) {
    if (!live[std::size_t(r)]) continue;
    inv_slowdown_sum += 1.0 / (weight[std::size_t(r)] * rate);
    worst_before = std::max(worst_before, t[std::size_t(r)]);
  }
  const double ideal_seconds =
      inv_slowdown_sum > 0.0
          ? double(total_live_samples) / (rate * inv_slowdown_sum)
          : 0.0;
  sched.worst_before_seconds = worst_before;
  sched.straggler_before =
      ideal_seconds > 0.0 ? worst_before / ideal_seconds : 1.0;

  // --- Greedy rebalance over lazy heaps: worst live rank sheds its next
  // tail chunk to the best live rank while that strictly lowers their
  // pairwise maximum. Each chunk moves at most once, so the loop is bounded
  // by the total chunk count; every accepted move keeps the global maximum
  // non-increasing (the thief stays strictly below the old straggler). ---
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, VictimOrder> victims;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, ThiefOrder> thieves;
  std::vector<char> frozen(std::size_t(num_ranks), 0);
  for (std::int64_t r = 0; r < num_ranks; ++r) {
    if (!live[std::size_t(r)]) continue;
    if (!stealable[std::size_t(r)].empty()) {
      victims.push(HeapEntry{t[std::size_t(r)], r});
    }
    thieves.push(HeapEntry{t[std::size_t(r)], r});
  }
  std::vector<StealClaim> raw;
  while (!victims.empty()) {
    const HeapEntry ve = victims.top();
    victims.pop();
    const std::size_t v = std::size_t(ve.rank);
    if (ve.time != t[v] || frozen[v] || stealable[v].empty()) continue;

    // Find the current cheapest live thief (lazy entries skipped).
    HeapEntry te{};
    bool have_thief = false;
    while (!thieves.empty()) {
      te = thieves.top();
      if (te.time != t[std::size_t(te.rank)]) {
        thieves.pop();
        continue;
      }
      have_thief = true;
      break;
    }
    if (!have_thief || te.rank == ve.rank) break;  // all ranks equally loaded

    const Chunk chunk = stealable[v].back();
    const std::size_t i = std::size_t(te.rank);
    const double thief_after = t[i] + double(chunk.samples) * weight[i];
    if (!(thief_after < t[v])) {
      // The cheapest thief cannot take this victim's chunk without becoming
      // the new straggler; no thief ever will (thief loads only grow), so
      // the victim is done shedding.
      frozen[v] = 1;
      continue;
    }
    stealable[v].pop_back();
    t[v] -= double(chunk.samples) * weight[v];
    rank_samples[v] -= chunk.samples;
    thieves.pop();
    t[i] = thief_after;
    rank_samples[i] += chunk.samples;
    raw.push_back(StealClaim{chunk.block, ve.rank, te.rank, chunk.row_begin,
                             chunk.row_end, chunk.samples});
    thieves.push(HeapEntry{t[i], te.rank});
    thieves.push(HeapEntry{t[v], ve.rank});
    if (!stealable[v].empty()) victims.push(HeapEntry{t[v], ve.rank});
  }
  sched.chunks_stolen = std::int64_t(raw.size());

  // --- Canonical claim order + merge of adjacent same-thief chunks, so
  // each block's claims are disjoint ascending row bands. ---
  std::sort(raw.begin(), raw.end(),
            [](const StealClaim& a, const StealClaim& b) {
              if (a.block != b.block) return a.block < b.block;
              return a.row_begin < b.row_begin;
            });
  for (const StealClaim& c : raw) {
    if (!sched.claims.empty()) {
      StealClaim& last = sched.claims.back();
      if (last.block == c.block && last.thief == c.thief &&
          last.row_end == c.row_begin) {
        last.row_end = c.row_end;
        last.samples += c.samples;
        continue;
      }
    }
    sched.claims.push_back(c);
  }

  // --- Replication: one whole-block copy per distinct (block, thief)
  // pair. Claims are sorted by block, so an earlier replica of the pair is
  // among the trailing replicas of the same block. ---
  if (config_.policy == StealPolicy::kReplicateBlocks) {
    for (const StealClaim& c : sched.claims) {
      bool seen = false;
      for (auto r = sched.replicas.rbegin();
           !seen && r != sched.replicas.rend() && r->block == c.block; ++r) {
        seen = r->thief == c.thief;
      }
      if (seen) continue;
      const auto it = std::find_if(
          blocks.begin(), blocks.end(),
          [&](const BlockWork& b) { return b.block == c.block; });
      PVR_ASSERT(it != blocks.end());
      sched.replicas.push_back(
          StealReplica{c.block, c.victim, c.thief, it->bytes});
      sched.bytes_replicated += it->bytes;
    }
  }

  double worst_after = 0.0;
  std::int64_t worst_after_rank = -1;
  std::int64_t max_samples_after = 0;
  for (std::int64_t r = 0; r < num_ranks; ++r) {
    if (!live[std::size_t(r)]) continue;
    if (t[std::size_t(r)] > worst_after) {  // strict: lowest rank wins ties
      worst_after = t[std::size_t(r)];
      worst_after_rank = r;
    }
    max_samples_after =
        std::max(max_samples_after, rank_samples[std::size_t(r)]);
  }
  sched.worst_after_seconds = worst_after;
  sched.worst_after_rank = worst_after_rank;
  sched.rank_seconds_after = t;  // dead ranks never accumulated: exactly 0.0
  sched.straggler_after =
      ideal_seconds > 0.0 ? worst_after / ideal_seconds : 1.0;
  sched.max_rank_samples_after = max_samples_after;
  return sched;
}

}  // namespace pvr::steal
