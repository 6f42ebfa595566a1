// Fixture: raw SIMD intrinsics in src/. Vector code can fuse or reorder
// FP math per host, and nothing proves it bit-identical to the scalar
// coin replay, so the rule bans it everywhere.
// expect-lint: raw-simd
#include <immintrin.h>

unsigned popcount_lanes(const long long* data) {
  __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data));
  __m256i s = _mm256_srli_epi64(v, 11);
  return static_cast<unsigned>(_mm256_extract_epi64(s, 0));
}
