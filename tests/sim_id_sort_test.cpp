// Phase 1's canonicalization: detail::sort_by_id (std::sort below
// kRadixSortMinBucket, LSD radix on id - min_id at or above it) must put
// every bucket in exactly std::sort's order, whatever the bucket size,
// id span, id magnitude, or slab order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
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

}  // namespace
}  // namespace lowsense::detail
