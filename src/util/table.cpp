#include "util/table.hpp"

#include <cinttypes>
#include <cstdio>
#include <sstream>

#include "util/error.hpp"

namespace pvr {

void TextTable::set_header(std::vector<std::string> header) {
  header_ = std::move(header);
}

void TextTable::add_row(std::vector<std::string> row) {
  PVR_REQUIRE(header_.empty() || row.size() == header_.size(),
              "row width must match header width");
  rows_.push_back(std::move(row));
}

std::string TextTable::str() const {
  std::vector<std::size_t> widths(header_.size());
  auto grow = [&](const std::vector<std::string>& row) {
    if (widths.size() < row.size()) widths.resize(row.size());
    for (std::size_t i = 0; i < row.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  };
  grow(header_);
  for (const auto& row : rows_) grow(row);

  std::ostringstream os;
  if (!title_.empty()) os << title_ << '\n';
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      os << row[i];
      if (i + 1 < row.size()) {
        os << std::string(widths[i] - row[i].size() + 2, ' ');
      }
    }
    os << '\n';
  };
  if (!header_.empty()) {
    emit(header_);
    std::size_t total = 0;
    for (std::size_t i = 0; i < widths.size(); ++i) {
      total += widths[i] + (i + 1 < widths.size() ? 2 : 0);
    }
    os << std::string(total, '-') << '\n';
  }
  for (const auto& row : rows_) emit(row);
  return os.str();
}

void TextTable::print() const { std::fputs(str().c_str(), stdout); }


std::string fmt_f(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string fmt_int(std::int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  return buf;
}

std::string fmt_procs(std::int64_t p) {
  if (p >= 1024 && p % 1024 == 0) return fmt_int(p / 1024) + "K";
  return fmt_int(p);
}

std::string fmt_cubed(std::int64_t n) { return fmt_int(n) + "^3"; }
std::string fmt_squared(std::int64_t n) { return fmt_int(n) + "^2"; }

std::string fmt_bytes(double bytes) {
  if (bytes >= 1e9) return fmt_f(bytes / 1e9, 1) + " GB";
  if (bytes >= 1e6) return fmt_f(bytes / 1e6, 1) + " MB";
  if (bytes >= 1e3) return fmt_f(bytes / 1e3, 1) + " KB";
  return fmt_f(bytes, 0) + " B";
}

}  // namespace pvr
