// Shard-local slice of the simulation state: the shard's PacketStore
// (slab/SoA packet storage with id recycling — see packet_store.hpp),
// its own AccessWheel, and the per-slot scratch the three resolve phases
// fill in parallel.
//
// A run with S shards assigns the packet with logical id to shard
// id % S, so the shard of a packet is a pure function of its id and the
// shard count — slab placement never leaks into it. That mapping is
// SimCore's alone: a shard does not know its own index and holds no
// reference to another shard or to a run-wide packet list (its store's
// `active` flags are the only record of its live packets; see
// packet_store.hpp). Everything a phase writes while running
// concurrently is confined to its own shard: packet slabs, wheel, and
// the scratch buffers below. Cross-shard state
// (channel outcome, jammer, observers, counters, contention) lives in
// SimCore and is only touched in the serial phases, in canonical
// ascending-LOGICAL-id order — which is what makes a sharded run
// bit-identical to --shards=1 (see sim_core.hpp).
//
// The wheel and the scratch lists index packets by SLAB handle (the
// wheel's payload is opaque to it); the aligned *_ids lists carry the
// logical ids so the serial merges can compare identities without
// touching the records.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "sim/access_wheel.hpp"
#include "sim/packet_store.hpp"

namespace lowsense::detail {

/// A (logical id, slab) pair — the unit phase 1 canonicalizes.
using IdSlab = std::pair<PacketId, std::uint32_t>;

/// Phase 1 sorts buckets below kSmallBucket accessors by insertion, in
/// place; larger ones go through an IdSorter. The choice depends on the
/// bucket size and id span only.
inline constexpr std::size_t kSmallBucket = 16;
inline constexpr std::size_t kRadixSortMinBucket = 64;

/// Sorts `items` by ascending logical id (the canonical order of phase 1).
/// Ids must be distinct, as they are within one slot's bucket, so the
/// result equals std::sort's. Buckets of kRadixSortMinBucket or more use
/// a stable LSD radix sort on id - min_id with 8-bit digits, as many
/// passes as the id span needs; `scratch` is its ping-pong buffer
/// (contents unspecified afterwards). Smaller ones use std::sort.
void sort_by_id(std::vector<IdSlab>& items, std::vector<IdSlab>& scratch);

/// Phase 1's canonicalizer for a shard's buckets of kSmallBucket or more
/// accessors: sorts aligned id/slab lists by ascending id (ids distinct,
/// so the order is std::sort's). A bucket whose id span max - min is at
/// most bitmap_cutoff(k) is sorted in O(k + span / 64) by marking each
/// id - min in a bitmap, parking its slab at slab_at[id - min], and
/// reading both back in bit order; the scan zeroes the bitmap again.
/// The rest go through sort_by_id. Both scratch arrays grow with the
/// largest span seen, up to kBitmapCap entries.
class IdSorter {
 public:
  static constexpr PacketId kBitmapCap = PacketId{1} << 16;
  static constexpr PacketId kBitmapSpanPerId = 64;

  /// The largest id span (max - min) a bucket of k ids sorts by bitmap.
  static constexpr PacketId bitmap_cutoff(std::size_t k) noexcept {
    return std::min<PacketId>(k * kBitmapSpanPerId, kBitmapCap - 1);
  }

  /// Sorts ids ascending and permutes the aligned slabs alongside.
  void sort(std::span<PacketId> ids, std::span<std::uint32_t> slabs);

  const std::vector<std::uint64_t>& bitmap() const noexcept { return bits_; }
  std::size_t slab_at_capacity() const noexcept { return slab_at_.capacity(); }

 private:
  std::vector<std::uint64_t> bits_;     ///< one bit per id - min; all zero between calls
  std::vector<std::uint32_t> slab_at_;  ///< slab of id - min (valid where the bit is set)
  std::vector<IdSlab> tmp_;             ///< sort_by_id's input
  std::vector<IdSlab> scratch_;         ///< sort_by_id's second buffer
};

class PacketShard {
 public:
  /// What the parallel feedback phase computes per accessor; applied to
  /// the shared layer serially, merged across shards in ascending-id
  /// order. Entries are aligned with `accessors` (sorted by logical id).
  struct Outcome {
    double contention_delta = 0.0;  ///< new send_prob - old send_prob
    double old_window = 0.0;
    double new_window = 0.0;
    bool departed = false;  ///< the slot's winner: no feedback, no redraw
  };

  PacketStore& store() noexcept { return store_; }
  const PacketStore& store() const noexcept { return store_; }

  AccessWheel& wheel() noexcept { return wheel_; }
  const AccessWheel& wheel() const noexcept { return wheel_; }

  // ------------------------------------------------- per-slot scratch
  // Filled by SimCore's resolve phases; kept here so each phase only
  // ever writes shard-owned memory while running in parallel.
  std::vector<std::uint32_t> accessors;  ///< slab handles, sorted by logical id
  std::vector<PacketId> accessor_ids;    ///< logical ids, aligned with accessors
  std::vector<std::uint32_t> senders;    ///< transmitting subset (slabs, same order)
  std::vector<PacketId> sender_ids;      ///< logical ids, aligned with senders
  /// Aligned with `accessors`; only the first accessors.size() entries
  /// are this slot's (the vector grows but never shrinks or zero-fills).
  std::vector<Outcome> outcomes;
  IdSorter sorter;                     ///< phase 1's sort for buckets >= kSmallBucket
  std::vector<std::uint8_t> coin_out;  ///< sent this slot? aligned with `accessors`
  /// Phase 3's step_batch items: the accessors that did not depart, in
  /// `accessors` order.
  std::vector<StepItem> steps;

 private:
  PacketStore store_;
  AccessWheel wheel_;
};

}  // namespace lowsense::detail
