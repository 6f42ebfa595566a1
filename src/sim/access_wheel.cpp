#include "sim/access_wheel.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace lowsense::detail {

namespace {

inline void set_bit(std::uint64_t* bits, std::size_t idx) noexcept {
  bits[idx >> 6] |= 1ULL << (idx & 63);
}

inline void clear_bit(std::uint64_t* bits, std::size_t idx) noexcept {
  bits[idx >> 6] &= ~(1ULL << (idx & 63));
}

/// Offset from `start` to the first set bit of a kWindow-bit ring bitmap,
/// scanning forward with wraparound; kWindow when no bit is set. Bits
/// >= start are covered by the first (masked) word; on wraparound only
/// bits < start can still be set.
std::size_t scan_from(const std::uint64_t* bits, std::size_t start) noexcept {
  constexpr std::size_t kWords = AccessWheel::kWindow / 64;
  constexpr std::size_t kMask = AccessWheel::kWindow - 1;
  std::size_t w = start >> 6;
  std::uint64_t word = bits[w] & (~0ULL << (start & 63));
  for (std::size_t step = 0; step <= kWords; ++step) {
    if (word != 0) {
      const std::size_t idx = (w << 6) + static_cast<std::size_t>(std::countr_zero(word));
      return (idx - start) & kMask;
    }
    w = (w + 1) % kWords;
    word = bits[w];
  }
  return static_cast<std::size_t>(AccessWheel::kWindow);
}

}  // namespace

AccessWheel::AccessWheel() : ring_(kWindow), l2_(kWindow), l2_min_(kWindow, kNoSlot) {}

void AccessWheel::ring_insert(std::uint32_t id, Slot slot) {
  ids_.push(ring_[slot & kMask], id);
  set_bit(occupied_, slot & kMask);
  ++ring_count_;
}

void AccessWheel::l2_insert(Entry e) {
  const std::size_t pos = (e.slot >> kLogWindow) & kMask;
  entries_.push(l2_[pos], e);
  if (e.slot < l2_min_[pos]) l2_min_[pos] = e.slot;
  set_bit(l2_occupied_, pos);
  ++l2_count_;
}

void AccessWheel::schedule(std::uint32_t id, Slot slot) {
  assert(slot != kNoSlot && slot >= cursor_);
  ++size_;
  if (in_window(slot)) {
    ring_insert(id, slot);
    return;
  }
  const Slot c = slot >> kLogWindow;
  if (c - coarse_cursor() < kWindow) {
    l2_insert({slot, id});
  } else {
    FarBucket& fb = far_[c];
    entries_.push(fb.entries, {slot, id});
    if (slot < fb.min_slot) fb.min_slot = slot;
  }
}

void AccessWheel::migrate() {
  const Slot cc = coarse_cursor();
  // Level 3 -> level 2: pull far buckets the coarse window now covers.
  while (!far_.empty() && far_.begin()->first < cc + kWindow) {
    const auto it = far_.begin();
    assert(it->first >= cc && "far bucket left behind a cursor jump");
    // l2_insert pushes into the pool `e` points into: copy first.
    entries_.drain(it->second.entries, [this](const Entry* e, std::size_t n) {
      Entry chunk[kChunk];
      std::copy_n(e, n, chunk);
      for (std::size_t i = 0; i < n; ++i) l2_insert(chunk[i]);
    });
    far_.erase(it);
  }
  // Level 2 -> ring: flush the coarse bucket the cursor sits in. Every
  // entry it holds now lies inside the level-1 window: its slots are in
  // [cursor, (cc + 1) << kLogWindow) ⊆ [cursor, cursor + kWindow).
  // Coarse buckets the cursor jumped over were empty (engines only skip
  // to the next event), and the bucket one past the window's tail keeps
  // its entries until the cursor enters it — next_scheduled accounts for
  // them, so the engines still pop those slots on time.
  if (l2_count_ != 0) {
    const std::size_t pos = cc & kMask;
    EntryChain& bucket = l2_[pos];
    if (bucket.size != 0) {
      assert(l2_min_[pos] >> kLogWindow == cc);
      l2_count_ -= bucket.size;
      entries_.drain(bucket, [this](const Entry* e, std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) {
          assert(e[i].slot >= cursor_ && in_window(e[i].slot));
          ring_insert(e[i].id, e[i].slot);
        }
      });
      l2_min_[pos] = kNoSlot;
      clear_bit(l2_occupied_, pos);
    }
  }
}

void AccessWheel::pop_slot(Slot t, std::vector<std::uint32_t>* out) {
  assert(t >= cursor_);
  if (t != cursor_) {
    // Slots being jumped over hold no entries (the engines only skip to
    // the next event), so sliding the windows is just migration.
    cursor_ = t;
    migrate();
  }
  IdChain& bucket = ring_[t & kMask];
  if (bucket.size != 0) {
    size_ -= bucket.size;
    ring_count_ -= bucket.size;
    ids_.drain(bucket, [out](const std::uint32_t* ids, std::size_t n) {
      out->insert(out->end(), ids, ids + n);
    });
    clear_bit(occupied_, t & kMask);
  }
  cursor_ = t + 1;
  migrate();
}

Slot AccessWheel::ring_next() const noexcept {
  const std::size_t start = cursor_ & kMask;
  const std::size_t off = scan_from(occupied_, start);
  assert(off < kWindow && "ring_count_ > 0 but no occupied bit found");
  return cursor_ + off;
}

Slot AccessWheel::l2_next() const noexcept {
  const std::size_t start = coarse_cursor() & kMask;
  const std::size_t off = scan_from(l2_occupied_, start);
  assert(off < kWindow && "l2_count_ > 0 but no occupied bit found");
  return l2_min_[(start + off) & kMask];
}

Slot AccessWheel::next_scheduled() const {
  if (size_ == 0) return kNoSlot;
  Slot best = kNoSlot;
  if (ring_count_ != 0) best = ring_next();
  // The ring and level 2 overlap: the coarse bucket just past the
  // window's tail can hold in-window slots until the cursor enters it,
  // so neither level alone bounds the minimum. Far entries, by contrast,
  // start a whole coarse window out — beyond anything the lower levels
  // hold — so they only matter when both are empty.
  if (l2_count_ != 0) best = std::min(best, l2_next());
  if (best == kNoSlot && !far_.empty()) best = far_.begin()->second.min_slot;
  return best;
}

}  // namespace lowsense::detail
