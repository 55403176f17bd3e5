// ASCII table and CSV emission for the benchmark harness; every figure/table
// bench prints its paper-style rows through this.
#pragma once

#include <string>
#include <vector>

namespace pvr {

/// Column-aligned text table with an optional title, printed to stdout or
/// rendered to a string. Cells are strings; helpers format numbers.
class TextTable {
 public:
  explicit TextTable(std::string title = {}) : title_(std::move(title)) {}

  void set_header(std::vector<std::string> header);
  void add_row(std::vector<std::string> row);

  std::string str() const;
  void print() const;

  std::size_t row_count() const { return rows_.size(); }

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Fixed-precision formatting helpers used by bench output.
std::string fmt_f(double v, int precision = 2);
std::string fmt_int(std::int64_t v);
/// Human core counts in the paper's style: 64, 128, ..., 1K, 2K, ... 32K.
std::string fmt_procs(std::int64_t p);
/// e.g. "1120^3"
std::string fmt_cubed(std::int64_t n);
/// e.g. "1600^2"
std::string fmt_squared(std::int64_t n);
/// Bytes with binary-ish units in the paper's style (GB as 1e9).
std::string fmt_bytes(double bytes);

}  // namespace pvr
