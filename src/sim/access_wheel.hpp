// Hierarchical timing-wheel index of pending channel accesses.
//
// Both engines need the same query: "which packets access the channel in
// slot t?" The wheel answers it in O(accessors) by bucketing each packet
// under its absolute next-access slot, in a three-level radix hierarchy:
//
//  * level 1 — a ring of kWindow per-slot buckets covering the window
//    [cursor, cursor + kWindow), with an occupancy bitmap for fast
//    next-event scans;
//  * level 2 — a ring of kWindow COARSE buckets, each spanning kWindow
//    slots (coarse index c = slot >> 12), covering the next kWindow^2 =
//    ~16.8M slots, with its own bitmap and a cached per-bucket minimum
//    so the next-event query stays O(bitmap scan). A coarse bucket is
//    flushed into level 1 wholesale when the cursor enters its span —
//    at that point every entry it holds is inside the level-1 window;
//  * level 3 — low-sensing windows grow polylog, so gaps beyond even the
//    coarse span can occur on extreme runs; those land in a sparse
//    ordered map keyed by COARSE index and migrate into level 2 as the
//    coarse window slides over them. In steady state this map is empty:
//    it exists for correctness, not speed.
//
// STORAGE. Every bucket of every level is a FIFO chain of fixed-size
// chunks (kChunk entries each) drawn from one free-list pool per wheel
// per entry type: level 1 chains plain ids out of the id pool, levels 2
// and 3 chain Entry{slot, id} out of the entry pool. pop_slot and every
// migration hand a bucket's chunks back to its pool's free list, so the
// pools only ever hold the high-water mark of
//     sum over non-empty buckets b of ceil(n_b / kChunk)
// chunks (plus the one chunk a far -> level-2 migration holds while it
// pushes): about (entries / kChunk) plus one partly filled chunk per
// non-empty bucket. Wheel memory thus follows what is scheduled, not each
// bucket's largest burst, and stays proportional to the live backlog.
// Chunks keep a bucket's pop a run of contiguous copies; intrusive
// per-id links would save the same memory but turn every pop into a
// chain of dependent loads.
//
// DRAIN-WHILE-PUSH RULE. ChunkPool::drain hands its callback a pointer
// into the pool's chunk storage, which a push may grow (reallocate).
// Far -> level-2 migration drains one chain of the entry pool while
// pushing into chains of that same pool, so it copies each chunk out
// before its first push; drain itself re-reads the chain link by index
// after every callback. No pointer into a pool may be held across a push
// into it. (Copying every chunk inside drain would be simpler, but made
// a 4096-id churn about 20 ns per pop slower on a 4-vCPU Xeon.)
//
// Invariants, relied on by both engines:
//  * every scheduled slot is >= cursor();
//  * pop_slot is called with non-decreasing t, and a packet is indexed
//    under at most one slot at a time (SimCore re-schedules a packet only
//    when its access is popped and resolved);
//  * slots the cursor jumps over hold no entries (the engines only skip
//    to the next event), so sliding either window is migration, never
//    loss.
//
// Within one slot's bucket, entries that migrated down from level 2/3
// pop after entries scheduled directly into the ring (each level appends
// in insertion order). Nothing downstream depends on a per-slot pop
// order: the resolve phases canonicalize by logical packet id.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "core/types.hpp"

namespace lowsense::detail {

class AccessWheel {
 public:
  AccessWheel();

  /// Indexes packet `id` under absolute slot `slot` (never kNoSlot).
  /// Requires slot >= cursor().
  void schedule(std::uint32_t id, Slot slot);

  /// Appends every id scheduled at exactly `t` to *out and advances the
  /// cursor to t + 1. Requires t >= cursor().
  void pop_slot(Slot t, std::vector<std::uint32_t>* out);

  /// Smallest scheduled slot (>= cursor()), or kNoSlot when empty.
  Slot next_scheduled() const;

  /// Next slot pop_slot may be called with.
  Slot cursor() const noexcept { return cursor_; }

  bool empty() const noexcept { return size_ == 0; }
  std::uint64_t size() const noexcept { return size_; }

  static constexpr Slot kWindow = 4096;  ///< span of each level (power of two)
  /// First slot beyond the level-2 horizon; schedules at or past this
  /// distance from the cursor go through the level-3 far map.
  static constexpr Slot kCoarseSpan = kWindow * kWindow;

  /// Entries per chunk of a bucket chain.
  static constexpr std::uint32_t kChunk = 16;

  /// Chunks the wheel's two pools hold (live plus free-listed): a
  /// read-only diagnostic of the storage invariant above.
  std::size_t pool_chunks() const noexcept { return ids_.chunks() + entries_.chunks(); }

 private:
  static constexpr Slot kLogWindow = 12;
  static_assert(Slot{1} << kLogWindow == kWindow);
  static constexpr Slot kMask = kWindow - 1;
  static constexpr std::size_t kWords = kWindow / 64;

  /// One level-2 / level-3 entry: the exact slot travels with the id so
  /// migration down the hierarchy can re-bucket it precisely.
  struct Entry {
    Slot slot;
    std::uint32_t id;
  };

  /// FIFO chains of kChunk-entry chunks over one free-list pool. Every
  /// chunk of a chain but its tail is full, so a chain's size alone
  /// locates the next free entry.
  template <class T>
  class ChunkPool {
   public:
    static constexpr std::uint32_t kNil = ~std::uint32_t{0};

    struct Chain {
      std::uint32_t head = kNil;
      std::uint32_t tail = kNil;
      std::uint32_t size = 0;
    };

    void push(Chain& c, const T& v) {
      const std::uint32_t fill = c.size % kChunk;
      if (fill == 0) {
        const std::uint32_t fresh = acquire();
        if (c.size == 0) {
          c.head = fresh;
        } else {
          next_[c.tail] = fresh;
        }
        c.tail = fresh;
      }
      chunks_[c.tail][fill] = v;
      ++c.size;
    }

    /// Empties `c`, calling emit(const T* items, std::size_t n) once per
    /// chunk in FIFO order; each chunk returns to the free list after its
    /// emit. `items` points into the pool and dies with the next push
    /// into this pool: an emit that pushes here must copy them first
    /// (the drain-while-push rule).
    template <class Emit>
    void drain(Chain& c, Emit&& emit) {
      std::uint32_t left = c.size;
      std::uint32_t k = c.head;
      c = Chain{};
      while (left != 0) {
        const std::uint32_t n = std::min(left, kChunk);
        emit(chunks_[k].data(), std::size_t{n});
        const std::uint32_t next = next_[k];
        next_[k] = free_;
        free_ = k;
        left -= n;
        k = next;
      }
    }

    std::size_t chunks() const noexcept { return chunks_.size(); }

   private:
    std::uint32_t acquire() {
      if (free_ != kNil) {
        const std::uint32_t k = free_;
        free_ = next_[k];
        return k;
      }
      chunks_.emplace_back();
      next_.push_back(kNil);
      return static_cast<std::uint32_t>(chunks_.size() - 1);
    }

    std::vector<std::array<T, kChunk>> chunks_;
    std::vector<std::uint32_t> next_;  ///< chain link, or free-list link
    std::uint32_t free_ = kNil;        ///< head of the free list
  };

  using IdChain = ChunkPool<std::uint32_t>::Chain;
  using EntryChain = ChunkPool<Entry>::Chain;

  bool in_window(Slot slot) const noexcept { return slot - cursor_ < kWindow; }
  Slot coarse_cursor() const noexcept { return cursor_ >> kLogWindow; }

  void ring_insert(std::uint32_t id, Slot slot);
  void l2_insert(Entry e);
  /// Pulls level-3 buckets the coarse window now covers into level 2,
  /// then flushes the level-2 bucket at the cursor's own coarse index
  /// into the ring. Called whenever cursor_ advances.
  void migrate();

  /// Smallest slot in the ring (requires ring_count_ > 0).
  Slot ring_next() const noexcept;
  /// Smallest slot in level 2 (requires l2_count_ > 0).
  Slot l2_next() const noexcept;

  Slot cursor_ = 0;
  std::uint64_t size_ = 0;  ///< total scheduled ids (all levels)

  ChunkPool<std::uint32_t> ids_;  ///< level-1 chunks
  ChunkPool<Entry> entries_;       ///< level-2 and level-3 chunks

  // Level 1: per-slot buckets over [cursor, cursor + kWindow).
  std::uint64_t ring_count_ = 0;
  std::vector<IdChain> ring_;
  std::uint64_t occupied_[kWords] = {};

  // Level 2: per-kWindow-span coarse buckets over the next kCoarseSpan
  // slots, with cached per-bucket minima for the next-event query.
  std::uint64_t l2_count_ = 0;
  std::vector<EntryChain> l2_;
  std::vector<Slot> l2_min_;  ///< kNoSlot when the bucket is empty
  std::uint64_t l2_occupied_[kWords] = {};

  // Level 3: coarse index -> bucket, for slots >= cursor + kCoarseSpan.
  struct FarBucket {
    Slot min_slot = kNoSlot;
    EntryChain entries;
  };
  std::map<Slot, FarBucket> far_;
};

}  // namespace lowsense::detail
