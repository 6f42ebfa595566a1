#include "core/table.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace lowsense {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void Table::add_row(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::num(double v, int precision) {
  std::ostringstream out;
  if (precision <= 0) {
    // A counted quantity: fixed-point, no decimals (precision 0 in the
    // default float format would mean one significant digit).
    out.setf(std::ios::fixed, std::ios::floatfield);
    out.precision(0);
  } else if (v != 0.0 && (std::fabs(v) >= 1e7 || std::fabs(v) < 1e-4)) {
    out.setf(std::ios::scientific);
    out.precision(precision - 1);
  } else {
    out.precision(precision);
  }
  out << v;
  return out.str();
}

std::string Table::render() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c) widths[c] = std::max(widths[c], row[c].size());

  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& cells) {
    out << "|";
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      const std::string& cell = c < cells.size() ? cells[c] : std::string();
      out << " " << cell << std::string(widths[c] - cell.size(), ' ') << " |";
    }
    out << "\n";
  };
  auto emit_rule = [&] {
    out << "+";
    for (std::size_t c = 0; c < headers_.size(); ++c) out << std::string(widths[c] + 2, '-') << "+";
    out << "\n";
  };

  emit_rule();
  emit_row(headers_);
  emit_rule();
  for (const auto& row : rows_) emit_row(row);
  emit_rule();
  return out.str();
}

namespace {

std::string csv_escape(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"') out += '"';
    out += ch;
  }
  out += '"';
  return out;
}

}  // namespace

std::string Table::csv() const {
  std::ostringstream out;
  for (std::size_t c = 0; c < headers_.size(); ++c)
    out << (c ? "," : "") << csv_escape(headers_[c]);
  out << "\n";
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < headers_.size(); ++c)
      out << (c ? "," : "") << csv_escape(c < row.size() ? row[c] : std::string());
    out << "\n";
  }
  return out.str();
}

}  // namespace lowsense
