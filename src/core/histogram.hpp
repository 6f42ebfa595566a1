// Log-bucketed histogram for heavy-tailed quantities (latency, access
// counts, window sizes). Buckets grow geometrically so that a single
// histogram spans many orders of magnitude with bounded memory.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace lowsense {

class LogHistogram {
 public:
  /// `base` is the bucket growth factor (>1). Bucket k covers
  /// [base^k, base^(k+1)) for k >= 0; values < 1 land in bucket 0.
  explicit LogHistogram(double base = 2.0);

  void add(double value, std::uint64_t weight = 1);

  std::uint64_t total() const noexcept { return total_; }
  double min() const noexcept { return total_ ? min_ : 0.0; }
  double max() const noexcept { return total_ ? max_ : 0.0; }

  /// Approximate quantile from bucket boundaries (geometric interpolation).
  double quantile(double q) const;

  /// Rendered ASCII bar chart, one row per non-empty bucket.
  std::string render(std::size_t width = 50) const;

  std::size_t bucket_count() const noexcept { return counts_.size(); }
  std::uint64_t bucket(std::size_t i) const { return counts_.at(i); }
  double bucket_lo(std::size_t i) const;

  bool operator==(const LogHistogram&) const = default;

 private:
  std::size_t bucket_index(double value) const;

  double base_;
  double log_base_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace lowsense
