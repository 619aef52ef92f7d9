// approx_table_bytes: the tier-2 state cache's byte accounting, for plain
// and dictionary-coded string columns.
#include <gtest/gtest.h>

#include <string>

#include "../dataflow/dictionary_fixture.hpp"
#include "serve/query_engine.hpp"

namespace ivt::serve {
namespace {

constexpr std::size_t kStr = sizeof(std::string);

TEST(TableBytesTest, DictionaryColumnsCountCodesAndEachDictionaryOnce) {
  // Two partitions × 2 rows: t (int64) and two string columns coded over
  // one shared dictionary {"", "x", "with,comma", "with \"quote\""}.
  const dataflow::Table coded = dataflow::testing::dictionary_table();
  const std::size_t t_bytes = 4 * (1 + 8);
  const std::size_t code_bytes = 8 * (1 + 4);
  const std::size_t dictionary_bytes = 4 * kStr + (0 + 1 + 10 + 12);
  EXPECT_EQ(approx_table_bytes(coded), t_bytes + code_bytes + dictionary_bytes);
}

TEST(TableBytesTest, PlainStringColumnsCountEveryCell) {
  const dataflow::Table plain =
      dataflow::testing::plain_copy(dataflow::testing::dictionary_table());
  // a: "x", "with,comma", "with \"quote\"", null; b: null, "", "x",
  // "with \"quote\"". A null cell still holds an (empty) std::string.
  const std::size_t string_bytes = (1 + 10 + 12) + (0 + 0 + 1 + 12);
  EXPECT_EQ(approx_table_bytes(plain),
            4 * (1 + 8) + 8 * (1 + kStr) + string_bytes);
}

}  // namespace
}  // namespace ivt::serve
