// ASCII table formatting for the experiment benches.
//
// Every bench binary in bench/ prints the rows the corresponding paper
// claim would be supported by; this renderer keeps that output aligned and
// diff-friendly so EXPERIMENTS.md can quote it verbatim.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace rw {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Append a row; width must match the header count.
  void add_row(std::vector<std::string> cells);

  /// Convenience cell formatters.
  static std::string num(double v, int precision = 2);
  static std::string num(std::uint64_t v);
  static std::string percent(double fraction, int precision = 1);

  /// Render with column alignment and a header rule.
  [[nodiscard]] std::string to_string() const;

  /// Render `title`, a rule, the table, and a blank line to stdout.
  void print(const std::string& title) const;

  [[nodiscard]] std::size_t row_count() const { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace rw
