// A small table whose string columns are dictionary-coded over one shared
// dictionary, and the same cells in plain string columns, for checking
// that every sink renders the two encodings identically.
#pragma once

#include <memory>
#include <utility>

#include "dataflow/table.hpp"

namespace ivt::dataflow::testing {

/// Two partitions of two rows: t, then string columns a and b holding
/// separators, quotes, nulls and a valid empty string.
inline Table dictionary_table() {
  const Schema schema{{{"t", ValueType::Int64},
                       {"a", ValueType::String},
                       {"b", ValueType::String}}};
  auto dict = std::make_shared<const Column::Dictionary>(
      Column::Dictionary{"", "x", "with,comma", "with \"quote\""});
  Table table(schema);
  for (std::int64_t p = 0; p < 2; ++p) {
    Column t(ValueType::Int64);
    t.append_int64(2 * p);
    t.append_int64(2 * p + 1);
    Partition part;
    part.columns.push_back(std::move(t));
    part.columns.push_back(p == 0 ? Column::dictionary_coded(dict, {1, 2},
                                                             {1, 1})
                                  : Column::dictionary_coded(dict, {3, 0},
                                                             {1, 0}));
    part.columns.push_back(p == 0 ? Column::dictionary_coded(dict, {0, 0},
                                                             {0, 1})
                                  : Column::dictionary_coded(dict, {1, 3},
                                                             {1, 1}));
    table.add_partition(std::move(part));
  }
  return table;
}

/// `table` with every column copied cell by cell into plain columns.
inline Table plain_copy(const Table& table) {
  Table plain(table.schema());
  for (const Partition& src : table.partitions()) {
    Partition dst = Table::make_partition(table.schema());
    for (std::size_t c = 0; c < src.columns.size(); ++c) {
      for (std::size_t r = 0; r < src.num_rows(); ++r) {
        dst.columns[c].append_from(src.columns[c], r);
      }
    }
    plain.add_partition(std::move(dst));
  }
  return plain;
}

}  // namespace ivt::dataflow::testing
