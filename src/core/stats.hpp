// Streaming and batch statistics used by the metrics layer and the harness.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace lowsense {

/// Welford-style streaming moments: O(1) memory, numerically stable.
class StreamingStats {
 public:
  void add(double x) noexcept;

  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  double variance() const noexcept;  ///< Sample variance (n-1 denominator).
  double stddev() const noexcept;
  double min() const noexcept { return n_ ? min_ : 0.0; }
  double max() const noexcept { return n_ ? max_ : 0.0; }
  double sum() const noexcept { return sum_; }

  /// Merges another accumulator into this one (parallel-friendly).
  void merge(const StreamingStats& other) noexcept;

  /// Every word (n, mean, M2, min, max, sum): mean and M2 see fold order.
  bool operator==(const StreamingStats&) const = default;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Batch summary over a sample vector. The input is copied and sorted once.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double p25 = 0.0;
  double median = 0.0;
  double p75 = 0.0;
  double p99 = 0.0;
  double max = 0.0;

  static Summary of(std::vector<double> xs);
};

/// Quantile of a sorted sample by linear interpolation; q in [0,1].
double quantile_sorted(const std::vector<double>& sorted, double q);

/// Ordinary least squares fit y = a + b*x. Returns {a, b, r2}.
struct LinearFit {
  double intercept = 0.0;
  double slope = 0.0;
  double r2 = 0.0;
};
LinearFit fit_linear(const std::vector<double>& x, const std::vector<double>& y);

/// Fits y ~ a * (ln x)^b by regressing ln y on ln ln x. Used to check
/// "polylog" energy claims: b is the estimated polylog exponent.
struct PolylogFit {
  double coeff = 0.0;     ///< a
  double exponent = 0.0;  ///< b
  double r2 = 0.0;
};
PolylogFit fit_polylog(const std::vector<double>& x, const std::vector<double>& y);

/// Fits y ~ a * x^b (power law) by regressing ln y on ln x.
PolylogFit fit_power(const std::vector<double>& x, const std::vector<double>& y);

}  // namespace lowsense
