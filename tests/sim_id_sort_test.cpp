// Phase 1's canonicalization: detail::sort_by_id (std::sort below
// kRadixSortMinBucket, LSD radix on id - min_id at or above it) and the
// IdSorter in front of it (a bitmap over id - min_id for buckets spanning
// at most bitmap_cutoff(k) ids) must put every bucket in exactly
// std::sort's order, whatever the bucket size, id span, id magnitude, or
// slab order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "sim/packet_shard.hpp"

namespace lowsense::detail {
namespace {

/// n distinct ids spanning exactly [base, base + span] (both ends
/// present), in random order, paired with a random permutation of slabs
/// — the non-monotone slab order that recycling produces.
std::vector<IdSlab> bucket(std::size_t n, PacketId base, PacketId span, Rng& rng) {
  std::set<PacketId> ids;
  if (n > 0) ids.insert(base);
  if (n > 1) ids.insert(base + span);
  while (ids.size() < n) ids.insert(base + 1 + rng.next_below(span - 1));
  std::vector<IdSlab> out;
  std::uint32_t slab = 0;
  for (const PacketId id : ids) out.push_back({id, slab++});
  // Shuffle ids and slabs independently.
  for (std::size_t i = 0; i + 1 < n; ++i) {
    std::swap(out[i].first, out[i + rng.next_below(n - i)].first);
    std::swap(out[i].second, out[i + rng.next_below(n - i)].second);
  }
  return out;
}

TEST(SortById, MatchesStdSortAcrossSizesSpansAndMagnitudes) {
  Rng rng(41);
  const std::size_t sizes[] = {0, 1, 63, 64, 65, 4096};
  // Spans just below and just past each 8-bit digit boundary the radix
  // pass count depends on.
  const PacketId spans[] = {(1ULL << 8) - 1,  (1ULL << 8) + 3,  (1ULL << 12) - 1,
                            (1ULL << 16) - 1, (1ULL << 16) + 5, (1ULL << 24) + 7,
                            (1ULL << 32) - 1, (1ULL << 32) + 9, (1ULL << 40) + 1};
  const PacketId bases[] = {0, 12345, (1ULL << 32) + 17, (1ULL << 62)};
  std::vector<IdSlab> scratch;
  for (const std::size_t n : sizes) {
    for (const PacketId span : spans) {
      if (n > span + 1) continue;  // cannot hold n distinct ids
      for (const PacketId base : bases) {
        std::vector<IdSlab> got = bucket(n, base, span, rng);
        std::vector<IdSlab> want = got;
        std::sort(want.begin(), want.end());
        sort_by_id(got, scratch);
        ASSERT_EQ(got, want) << "n=" << n << " span=" << span << " base=" << base;
      }
    }
  }
}

TEST(IdSorter, MatchesStdSortAroundTheBitmapCutoff) {
  // Spans one below, at, and one past the cutoff, so both tiers run on
  // either side of the boundary; bases up to ids ending at 2^64 - 1. One
  // sorter serves every call, as a shard's does: each call must leave
  // its bitmap all zero, since the next one ORs into it.
  Rng rng(43);
  IdSorter sorter;
  for (const std::size_t k : {16, 63, 64, 2733}) {
    const PacketId cutoff = IdSorter::bitmap_cutoff(k);
    for (const PacketId span : {cutoff - 1, cutoff, cutoff + 1}) {
      const PacketId top = std::numeric_limits<PacketId>::max() - span;
      for (const PacketId base : {PacketId{0}, PacketId{98765}, top - 1, top}) {
        const std::string where = "k=" + std::to_string(k) + " span=" + std::to_string(span) +
                                  " base=" + std::to_string(base);
        std::vector<IdSlab> want = bucket(k, base, span, rng);
        std::vector<PacketId> ids;
        std::vector<std::uint32_t> slabs;
        for (const IdSlab& e : want) {
          ids.push_back(e.first);
          slabs.push_back(e.second);
        }
        std::sort(want.begin(), want.end());
        sorter.sort(ids, slabs);
        for (std::size_t i = 0; i < k; ++i) {
          ASSERT_EQ(ids[i], want[i].first) << where << " i=" << i;
          ASSERT_EQ(slabs[i], want[i].second) << where << " i=" << i;
        }
        ASSERT_TRUE(std::all_of(sorter.bitmap().begin(), sorter.bitmap().end(),
                                [](std::uint64_t w) { return w == 0; }))
            << where;
        ASSERT_LE(sorter.slab_at_capacity(), IdSorter::kBitmapCap) << where;
      }
    }
  }
}

TEST(IdSorter, OnlyBucketsWithinTheCutoffUseTheBitmap) {
  // The bitmap's scratch is allocated on first use, so an untouched
  // sorter shows which tier a call took.
  Rng rng(44);
  for (const std::size_t k : {16, 64, 2733}) {
    const PacketId cutoff = IdSorter::bitmap_cutoff(k);
    IdSorter past;
    std::vector<PacketId> ids;
    std::vector<std::uint32_t> slabs;
    for (const IdSlab& e : bucket(k, 7, cutoff + 1, rng)) {
      ids.push_back(e.first);
      slabs.push_back(e.second);
    }
    past.sort(ids, slabs);
    EXPECT_EQ(past.slab_at_capacity(), 0u) << "k=" << k;
    EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
    IdSorter at;
    ids.clear();
    slabs.clear();
    for (const IdSlab& e : bucket(k, 7, cutoff, rng)) {
      ids.push_back(e.first);
      slabs.push_back(e.second);
    }
    at.sort(ids, slabs);
    EXPECT_GT(at.slab_at_capacity(), cutoff) << "k=" << k;
    EXPECT_LE(at.slab_at_capacity(), IdSorter::kBitmapCap) << "k=" << k;
    EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
  }
  EXPECT_EQ(IdSorter::bitmap_cutoff(2733), IdSorter::kBitmapCap - 1);
}

}  // namespace
}  // namespace lowsense::detail
