// Console table / CSV rendering for the benchmark harness. Every bench
// prints its results through this module so all experiments share one
// readable, machine-parseable format.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace lowsense {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Adds one row; missing cells render empty, extras are dropped.
  void add_row(std::vector<std::string> cells);

  /// Convenience: formats doubles with `precision` significant digits;
  /// precision <= 0 means fixed-point with no decimals (counts, rates).
  static std::string num(double v, int precision = 4);

  std::size_t rows() const noexcept { return rows_.size(); }

  /// Pretty ASCII rendering with aligned columns.
  std::string render() const;

  /// RFC-4180-ish CSV (quotes cells containing commas/quotes/newlines).
  std::string csv() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace lowsense
