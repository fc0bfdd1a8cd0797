#include "common/table.hpp"

#include <gtest/gtest.h>

namespace rw {
namespace {

TEST(Table, AlignsColumns) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  const std::string s = t.to_string();
  // Every line has the same length when columns are aligned.
  std::size_t first_len = s.find('\n');
  std::size_t pos = 0;
  while (pos < s.size()) {
    const std::size_t next = s.find('\n', pos);
    EXPECT_EQ(next - pos, first_len);
    pos = next + 1;
  }
}

TEST(Table, RejectsWrongArity) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(std::uint64_t{42}), "42");
  EXPECT_EQ(Table::percent(0.5), "50.0%");
  EXPECT_EQ(Table::percent(0.123, 2), "12.30%");
}

}  // namespace
}  // namespace rw
