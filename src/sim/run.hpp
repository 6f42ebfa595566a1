// Run configuration, walk selection and result summary shared by both
// engines.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "core/histogram.hpp"
#include "core/stats.hpp"
#include "core/types.hpp"
#include "sim/types.hpp"

namespace lowsense {

/// How SimCore::run walks a quiet active span (active slots with no
/// access and no arrival) — the one thing the two engines do differently.
enum class EngineKind {
  kEvent,  ///< account the span in one step (default)
  kSlot,   ///< resolve every slot of the span: the model of §1.1 verbatim
};

struct RunConfig {
  /// Stop after this many ACTIVE slots (0 = unlimited). Implicit-throughput
  /// experiments bound runs this way since inactive slots are free.
  std::uint64_t max_active_slots = 0;

  /// Stop after absolute slot index (0 = unlimited).
  Slot max_slot = 0;

  /// Master seed; packet i draws its gap stream from Rng::stream(seed, i)
  /// and its slot-keyed send coins from CounterRng(seed, 2^32 + i).
  std::uint64_t seed = 1;

  /// Shards the packet population of THIS run over that many threads
  /// (1 = serial, 0 = one shard per core). Results are bit-identical for
  /// every value — sharding changes wall time, never the trace — so it
  /// composes freely with replicate-level parallelism (--threads=).
  unsigned shards = 1;

  /// Open-system storage: recycle a departed packet's slab so resident
  /// memory tracks the LIVE backlog instead of the arrival horizon.
  /// Every observable quantity is keyed on logical packet ids (which are
  /// never reused), so results are bit-identical for either value on any
  /// finite scenario — bench_t14 enforces that as a hard check. `false`
  /// keeps the closed-population layout (slabs are never reused; memory
  /// grows with total arrivals), retained for that cross-check and for
  /// post-run inspection of departed packets.
  bool reclaim = true;
};

struct RunResult {
  Counters counters;             ///< final cumulative counters
  bool drained = false;          ///< all arrived packets departed & stream exhausted
  std::uint64_t max_accesses = 0;         ///< worst per-packet channel accesses
  std::uint64_t peak_backlog = 0;         ///< max packets simultaneously in system
  double max_window_seen = 0.0;           ///< w_max over the whole run
  std::uint64_t jams_total = 0;           ///< jammer's own count (incl. inactive slots)
  std::uint64_t slab_capacity = 0;        ///< packet slabs ever allocated (Σ over shards):
                                          ///< ≈ peak live backlog with reclaim, total
                                          ///< arrivals without — the memory-model witness
  std::uint64_t slabs_recycled = 0;       ///< slab acquisitions served from the free lists
  StreamingStats access_stats;   ///< per-packet accesses (all packets, incl. survivors)
  StreamingStats send_stats;     ///< per-packet transmissions
  StreamingStats latency_stats;  ///< departure - arrival (departed packets only)
  LogHistogram access_hist{2.0};

  /// Overall throughput (T_t + J_t)/S_t — equals N/S on drained unjammed runs.
  double throughput() const noexcept { return counters.throughput(); }
  double implicit_throughput() const noexcept { return counters.implicit_throughput(); }
  double mean_accesses() const noexcept { return access_stats.mean(); }
};

/// The one definition of "the same run": the name of the first observable
/// field in which `a` and `b` differ, or "" when none does. Every field is
/// a pure function of (scenario, seed), whatever the engine, shards,
/// threads or reclaim, and the floating-point ones (contention, windows,
/// each StreamingStats whole: n, mean, M2, min, max, sum) follow one
/// canonical order, so all compare exactly. Skipped: slab_capacity and
/// slabs_recycled, which witness where packets were placed, not events.
inline std::string first_difference(const RunResult& a, const RunResult& b) {
  const std::pair<const char*, bool> fields[] = {
      {"counters", a.counters == b.counters},
      {"drained", a.drained == b.drained},
      {"max_accesses", a.max_accesses == b.max_accesses},
      {"peak_backlog", a.peak_backlog == b.peak_backlog},
      {"max_window_seen", a.max_window_seen == b.max_window_seen},
      {"jams_total", a.jams_total == b.jams_total},
      {"access_stats", a.access_stats == b.access_stats},
      {"send_stats", a.send_stats == b.send_stats},
      {"latency_stats", a.latency_stats == b.latency_stats},
      {"access_hist", a.access_hist == b.access_hist},
  };
  for (const auto& [name, same] : fields) {
    if (!same) return name;
  }
  return "";
}

}  // namespace lowsense
