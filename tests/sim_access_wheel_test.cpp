// Unit tests of the AccessWheel: ring/overflow placement, window-slide
// migration, cursor advancement, next-event queries, FIFO order across
// chunk boundaries and chunk-pool recycling — the invariants both engines
// lean on for accessor lookup.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <map>
#include <numeric>
#include <random>
#include <vector>

#include "sim/access_wheel.hpp"

namespace lowsense {
namespace {

using detail::AccessWheel;

std::vector<std::uint32_t> pop(AccessWheel& w, Slot t) {
  std::vector<std::uint32_t> out;
  w.pop_slot(t, &out);
  return out;
}

TEST(AccessWheel, StartsEmpty) {
  AccessWheel w;
  EXPECT_TRUE(w.empty());
  EXPECT_EQ(w.size(), 0u);
  EXPECT_EQ(w.cursor(), 0u);
  EXPECT_EQ(w.next_scheduled(), kNoSlot);
}

TEST(AccessWheel, PopReturnsExactlyTheSlotsEntries) {
  AccessWheel w;
  w.schedule(1, 5);
  w.schedule(2, 5);
  w.schedule(3, 6);
  EXPECT_EQ(w.next_scheduled(), 5u);

  EXPECT_TRUE(pop(w, 4).empty());
  EXPECT_EQ(pop(w, 5), (std::vector<std::uint32_t>{1, 2}));
  EXPECT_EQ(w.cursor(), 6u);
  EXPECT_EQ(w.next_scheduled(), 6u);
  EXPECT_EQ(pop(w, 6), (std::vector<std::uint32_t>{3}));
  EXPECT_TRUE(w.empty());
}

TEST(AccessWheel, SameSlotAsCursorIsPoppable) {
  AccessWheel w;
  w.schedule(9, 0);
  EXPECT_EQ(pop(w, 0), (std::vector<std::uint32_t>{9}));
}

TEST(AccessWheel, FarFutureGoesThroughOverflowAndComesBack) {
  AccessWheel w;
  const Slot far = 10 * AccessWheel::kWindow + 7;
  w.schedule(4, far);
  w.schedule(5, 2);
  EXPECT_EQ(w.next_scheduled(), 2u);
  EXPECT_EQ(pop(w, 2), (std::vector<std::uint32_t>{5}));

  // With the ring empty, the overflow minimum is the next event.
  EXPECT_EQ(w.next_scheduled(), far);
  // Jumping the cursor straight to the far slot must migrate the entry.
  EXPECT_EQ(pop(w, far), (std::vector<std::uint32_t>{4}));
  EXPECT_TRUE(w.empty());
}

TEST(AccessWheel, WindowBoundaryEdges) {
  AccessWheel w;
  // Last in-window slot vs. first out-of-window slot.
  w.schedule(1, AccessWheel::kWindow - 1);
  w.schedule(2, AccessWheel::kWindow);
  EXPECT_EQ(w.next_scheduled(), AccessWheel::kWindow - 1);

  // Advancing one slot slides the window over the overflow entry.
  EXPECT_TRUE(pop(w, 0).empty());
  EXPECT_EQ(w.cursor(), 1u);
  EXPECT_EQ(pop(w, AccessWheel::kWindow - 1), (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(pop(w, AccessWheel::kWindow), (std::vector<std::uint32_t>{2}));
}

TEST(AccessWheel, OverflowMigrationPreservesSchedulingOrderWithinSlot) {
  AccessWheel w;
  const Slot far = 3 * AccessWheel::kWindow;
  w.schedule(7, far);
  w.schedule(8, far);
  // Walk the cursor close enough that `far` enters the window.
  for (Slot t = 0; t < 3 * AccessWheel::kWindow; ++t) {
    ASSERT_TRUE(pop(w, t).empty()) << t;
  }
  EXPECT_EQ(w.next_scheduled(), far);
  EXPECT_EQ(pop(w, far), (std::vector<std::uint32_t>{7, 8}));
}

TEST(AccessWheel, CoarseAndFarBoundaryEdges) {
  // One entry on each side of every level boundary: first level-2 slot,
  // last level-2 slot, first level-3 (far-map) slot.
  AccessWheel w;
  const Slot l2_first = AccessWheel::kWindow;
  const Slot l2_last = AccessWheel::kCoarseSpan - 1;
  const Slot far_first = AccessWheel::kCoarseSpan;
  w.schedule(1, far_first);
  w.schedule(2, l2_last);
  w.schedule(3, l2_first);
  EXPECT_EQ(w.size(), 3u);
  EXPECT_EQ(w.next_scheduled(), l2_first);

  EXPECT_EQ(pop(w, l2_first), (std::vector<std::uint32_t>{3}));
  EXPECT_EQ(w.next_scheduled(), l2_last);
  EXPECT_EQ(pop(w, l2_last), (std::vector<std::uint32_t>{2}));
  EXPECT_EQ(w.next_scheduled(), far_first);
  EXPECT_EQ(pop(w, far_first), (std::vector<std::uint32_t>{1}));
  EXPECT_TRUE(w.empty());
}

TEST(AccessWheel, InWindowEntriesParkedInTheNextCoarseBucketAreVisible) {
  AccessWheel w;
  const Slot parked = AccessWheel::kWindow + 5;
  w.schedule(11, parked);  // out of window now: parks in level 2
  // Walk the cursor to where `parked` is inside the level-1 window but
  // its coarse bucket is still one ahead of the cursor's — the entry
  // stays parked in level 2, yet must be visible to next_scheduled and
  // pop on time.
  for (Slot t = 0; t < AccessWheel::kWindow - 2; ++t) ASSERT_TRUE(pop(w, t).empty());
  EXPECT_EQ(w.next_scheduled(), parked);
  EXPECT_EQ(pop(w, parked), (std::vector<std::uint32_t>{11}));
  EXPECT_TRUE(w.empty());
}

TEST(AccessWheel, GiantJumpMigratesThroughAllLevels) {
  // A single cursor jump past the whole coarse span must pull a far
  // entry down through level 2 into the ring in one migration chain.
  AccessWheel w;
  const Slot far = 2 * AccessWheel::kCoarseSpan + 123;
  w.schedule(21, far);
  EXPECT_EQ(w.next_scheduled(), far);
  EXPECT_EQ(pop(w, far), (std::vector<std::uint32_t>{21}));
  EXPECT_TRUE(w.empty());
  EXPECT_EQ(w.cursor(), far + 1);
}

TEST(AccessWheel, NextScheduledWrapsAroundRing) {
  AccessWheel w;
  // Put the cursor deep into the ring, then schedule a slot whose bucket
  // index is BELOW the cursor index (bitmap scan must wrap).
  const Slot mid = AccessWheel::kWindow - 10;
  for (Slot t = 0; t < mid; ++t) ASSERT_TRUE(pop(w, t).empty());
  const Slot wrapped = AccessWheel::kWindow + 3;  // index 3 < index of mid
  w.schedule(6, wrapped);
  EXPECT_EQ(w.next_scheduled(), wrapped);
  EXPECT_EQ(pop(w, wrapped), (std::vector<std::uint32_t>{6}));
}

std::vector<std::uint32_t> iota_ids(std::uint32_t first, std::uint32_t n) {
  std::vector<std::uint32_t> ids(n);
  std::iota(ids.begin(), ids.end(), first);
  return ids;
}

// Bucket sizes on both sides of every chunk boundary.
constexpr std::uint32_t kChunk = AccessWheel::kChunk;
constexpr std::uint32_t kBucketSizes[] = {
    1, kChunk - 1, kChunk, kChunk + 1, 2 * kChunk, 2 * kChunk + 1, 100};

TEST(AccessWheel, SlotPopsInSchedulingOrderAcrossChunkBoundariesOnEveryLevel) {
  // Ring (in window), level 2 (>= kWindow ahead) and the far map
  // (>= kCoarseSpan ahead); the cursor jumps straight to the slot, so the
  // level-2/far entries reach the ring through one migration chain.
  const Slot targets[] = {7, AccessWheel::kWindow + 7, AccessWheel::kCoarseSpan + 7,
                          3 * AccessWheel::kCoarseSpan + 7};
  for (const Slot target : targets) {
    for (const std::uint32_t n : kBucketSizes) {
      AccessWheel w;
      for (std::uint32_t id = 0; id < n; ++id) w.schedule(id, target);
      EXPECT_EQ(w.next_scheduled(), target);
      EXPECT_EQ(pop(w, target), iota_ids(0, n)) << "slot " << target << " size " << n;
      EXPECT_TRUE(w.empty());
    }
  }
}

TEST(AccessWheel, RingDirectEntriesPopBeforeMigratedOnes) {
  // `s` parks in level 2; once the cursor puts it inside the ring window
  // (but before it enters its coarse bucket) new entries go straight into
  // the ring. Popping `s` migrates the parked chain behind them.
  for (const std::uint32_t parked : kBucketSizes) {
    for (const std::uint32_t direct : kBucketSizes) {
      AccessWheel w;
      const Slot s = AccessWheel::kWindow + 9;
      for (std::uint32_t i = 0; i < parked; ++i) w.schedule(1000 + i, s);
      for (Slot t = 0; t < 20; ++t) ASSERT_TRUE(pop(w, t).empty());
      for (std::uint32_t i = 0; i < direct; ++i) w.schedule(i, s);
      std::vector<std::uint32_t> want = iota_ids(0, direct);
      const std::vector<std::uint32_t> migrated = iota_ids(1000, parked);
      want.insert(want.end(), migrated.begin(), migrated.end());
      EXPECT_EQ(pop(w, s), want) << "parked " << parked << " direct " << direct;
    }
  }
}

TEST(AccessWheel, GiantJumpDrainsFarChainsIntoTheirOwnPool) {
  // Far -> level-2 migration pushes into the entry pool it is draining.
  // The pool starts the jump exactly full (3 + 1 chunks, a power-of-two
  // capacity), so the first push that needs a fresh chunk reallocates
  // the chunk storage under the drain.
  AccessWheel w;
  const Slot a = 2 * AccessWheel::kCoarseSpan + 5;
  const Slot b = a + 3 * AccessWheel::kWindow;
  for (std::uint32_t id = 0; id < 2 * kChunk + 1; ++id) w.schedule(id, a);
  w.schedule(500, b);
  EXPECT_EQ(w.pool_chunks(), 4u);
  EXPECT_EQ(pop(w, a), iota_ids(0, 2 * kChunk + 1));
  EXPECT_EQ(w.next_scheduled(), b);
  EXPECT_EQ(pop(w, b), (std::vector<std::uint32_t>{500}));
  EXPECT_TRUE(w.empty());
}

TEST(AccessWheel, PoolStaysWithinPeakLiveChunks) {
  // A 4096-id burst into one slot, then 4096 ids over 4096 slots, then
  // the burst again. Live chunks peak at max(4096 / kChunk, 4096) = 4096;
  // per-bucket storage would keep each bucket's largest burst on top.
  AccessWheel w;
  const std::uint32_t n = 4096;
  std::size_t peak_live = 0;
  Slot t = 0;
  for (int round = 0; round < 3; ++round) {
    for (std::uint32_t id = 0; id < n; ++id) w.schedule(id, t);
    peak_live = std::max<std::size_t>(peak_live, n / kChunk);
    EXPECT_LE(w.pool_chunks(), peak_live);
    EXPECT_EQ(pop(w, t).size(), n);
    ++t;
    for (std::uint32_t id = 0; id < n; ++id) w.schedule(id, t + id);
    peak_live = std::max<std::size_t>(peak_live, n);
    EXPECT_LE(w.pool_chunks(), peak_live);
    for (std::uint32_t id = 0; id < n; ++id) ASSERT_EQ(pop(w, t + id).size(), 1u);
    t += n;
    EXPECT_TRUE(w.empty());
  }
  EXPECT_EQ(w.pool_chunks(), n);
}

TEST(AccessWheel, RepeatedPatternDoesNotGrowThePool) {
  // One pattern touching every level: bursts into the ring, level 2 and
  // the far map, popped to empty. After the first round every chunk comes
  // off the free lists.
  AccessWheel w;
  Slot t = 0;
  std::size_t after_first = 0;
  for (int round = 0; round < 5; ++round) {
    const Slot near = t + 3;
    const Slot coarse = t + 2 * AccessWheel::kWindow + 1;
    const Slot far = t + AccessWheel::kCoarseSpan + 2 * AccessWheel::kWindow;
    for (std::uint32_t id = 0; id < 100; ++id) {
      w.schedule(id, near);
      w.schedule(1000 + id, coarse);
      w.schedule(2000 + id, far);
    }
    EXPECT_EQ(pop(w, near).size(), 100u);
    EXPECT_EQ(pop(w, coarse).size(), 100u);
    EXPECT_EQ(pop(w, far).size(), 100u);
    EXPECT_TRUE(w.empty());
    if (round == 0) after_first = w.pool_chunks();
    EXPECT_EQ(w.pool_chunks(), after_first) << "round " << round;
    t = far + 1;
  }
}

TEST(AccessWheel, RandomizedAgainstReferenceMap) {
  // Model: a multimap slot -> ids. Drive schedule/pop in cursor order with
  // random near/far offsets and spot-check next_scheduled throughout.
  std::mt19937_64 gen(123);
  auto uniform = [&gen](std::uint64_t lo, std::uint64_t hi) {
    return std::uniform_int_distribution<std::uint64_t>(lo, hi)(gen);
  };

  AccessWheel w;
  std::map<Slot, std::vector<std::uint32_t>> model;
  Slot t = 0;
  std::uint32_t next_id = 0;

  for (int step = 0; step < 5000; ++step) {
    // Schedule a few entries at mixed distances from the cursor.
    const int k = static_cast<int>(uniform(0, 2));
    for (int i = 0; i < k; ++i) {
      Slot target = t;
      switch (uniform(0, 5)) {
        case 0: target = t + uniform(0, 3); break;
        case 1: target = t + uniform(0, AccessWheel::kWindow - 1); break;
        case 2: target = t + AccessWheel::kWindow + uniform(0, 50); break;
        case 3: target = t + uniform(0, 100 * AccessWheel::kWindow); break;
        // Level-2/3 boundary straddles: just around the coarse span, and
        // anywhere across several coarse spans (deep level-3 traffic).
        case 4: target = t + AccessWheel::kCoarseSpan - 25 + uniform(0, 50); break;
        default: target = t + uniform(0, 3 * AccessWheel::kCoarseSpan); break;
      }
      w.schedule(next_id, target);
      model[target].push_back(next_id);
      ++next_id;
    }

    const Slot expect_next = model.empty() ? kNoSlot : model.begin()->first;
    ASSERT_EQ(w.next_scheduled(), expect_next) << "step " << step;

    // Advance: usually to the next event, sometimes slot-by-slot — but
    // never past a scheduled slot (the engines only ever jump to the next
    // event, and the wheel's contract assumes skipped slots are empty).
    Slot target = t;
    if (!model.empty() && uniform(0, 1)) {
      target = model.begin()->first;
    } else {
      target = t + uniform(0, 2);
      if (!model.empty()) target = std::min(target, model.begin()->first);
    }
    std::vector<std::uint32_t> got;
    w.pop_slot(target, &got);
    std::vector<std::uint32_t> want;
    if (auto it = model.find(target); it != model.end()) {
      want = it->second;
      model.erase(it);
    }
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    ASSERT_EQ(got, want) << "step " << step << " slot " << target;
    t = target + 1;
    ASSERT_EQ(w.cursor(), t);
    ASSERT_EQ(w.size(), [&] {
      std::uint64_t n = 0;
      for (const auto& [s, ids] : model) n += ids.size();
      return n;
    }()) << "step " << step;
  }
}

TEST(AccessWheel, RandomizedBurstsAgainstReferenceMap) {
  // Like RandomizedAgainstReferenceMap, but each step schedules a burst
  // of 0-40 ids into 1-3 slots, so buckets span several chunks on every
  // level and migrations move multi-chunk chains. A slot whose ids were
  // all scheduled straight into the ring must pop in scheduling order;
  // other slots are compared as sets.
  std::mt19937_64 gen(321);
  auto uniform = [&gen](std::uint64_t lo, std::uint64_t hi) {
    return std::uniform_int_distribution<std::uint64_t>(lo, hi)(gen);
  };

  AccessWheel w;
  std::map<Slot, std::vector<std::uint32_t>> model;
  std::map<Slot, bool> direct_only;  ///< every id scheduled in-window
  std::uint64_t live = 0;
  Slot t = 0;
  std::uint32_t next_id = 0;

  for (int step = 0; step < 4000; ++step) {
    const std::uint64_t burst = uniform(0, 40);
    Slot targets[3];
    const std::uint64_t k = uniform(1, 3);
    for (std::uint64_t j = 0; j < k; ++j) {
      switch (uniform(0, 4)) {
        case 0: targets[j] = t + uniform(0, 8); break;
        case 1: targets[j] = t + uniform(0, AccessWheel::kWindow - 1); break;
        case 2: targets[j] = t + AccessWheel::kWindow + uniform(0, 3 * AccessWheel::kWindow); break;
        case 3: targets[j] = t + uniform(0, 64 * AccessWheel::kWindow); break;
        default: targets[j] = t + AccessWheel::kCoarseSpan + uniform(0, 4 * AccessWheel::kWindow);
      }
    }
    for (std::uint64_t i = 0; i < burst; ++i) {
      const Slot target = targets[uniform(0, k - 1)];
      w.schedule(next_id, target);
      model[target].push_back(next_id);
      const bool direct = target - t < AccessWheel::kWindow;
      auto [it, fresh] = direct_only.try_emplace(target, direct);
      if (!fresh) it->second = it->second && direct;
      ++next_id;
      ++live;
    }

    const Slot expect_next = model.empty() ? kNoSlot : model.begin()->first;
    ASSERT_EQ(w.next_scheduled(), expect_next) << "step " << step;

    // Advance to the next event or by up to 2 slots, never past an event.
    Slot target = t + uniform(0, 2);
    if (!model.empty() && (uniform(0, 2) != 0 || target > model.begin()->first)) {
      target = model.begin()->first;
    }
    std::vector<std::uint32_t> got;
    w.pop_slot(target, &got);
    std::vector<std::uint32_t> want;
    bool exact = true;
    if (auto it = model.find(target); it != model.end()) {
      want = it->second;
      exact = direct_only.at(target);
      model.erase(it);
      direct_only.erase(target);
    }
    if (exact) {
      ASSERT_EQ(got, want) << "step " << step << " slot " << target;
    } else {
      std::sort(got.begin(), got.end());
      std::sort(want.begin(), want.end());
      ASSERT_EQ(got, want) << "step " << step << " slot " << target;
    }
    live -= got.size();
    t = target + 1;
    ASSERT_EQ(w.cursor(), t);
    ASSERT_EQ(w.size(), live) << "step " << step;
  }
}

}  // namespace
}  // namespace lowsense
