#include "common/table.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "common/strings.hpp"

namespace rw {

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void Table::add_row(std::vector<std::string> cells) {
  if (cells.size() != headers_.size())
    throw std::invalid_argument("Table::add_row: cell count mismatch");
  rows_.push_back(std::move(cells));
}

std::string Table::num(double v, int precision) {
  return strformat("%.*f", precision, v);
}

std::string Table::num(std::uint64_t v) { return std::to_string(v); }

std::string Table::percent(double fraction, int precision) {
  return strformat("%.*f%%", precision, fraction * 100.0);
}

std::string Table::to_string() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c)
    widths[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());

  auto render_row = [&](const std::vector<std::string>& row) {
    std::string line = "|";
    for (std::size_t c = 0; c < row.size(); ++c) {
      line += ' ';
      line += row[c];
      line.append(widths[c] - row[c].size() + 1, ' ');
      line += '|';
    }
    line += '\n';
    return line;
  };

  std::string out = render_row(headers_);
  std::string rule = "|";
  for (const std::size_t w : widths) {
    rule.append(w + 2, '-');
    rule += '|';
  }
  out += rule + '\n';
  for (const auto& row : rows_) out += render_row(row);
  return out;
}

void Table::print(const std::string& title) const {
  std::printf("\n== %s ==\n%s\n", title.c_str(), to_string().c_str());
  std::fflush(stdout);
}

}  // namespace rw
