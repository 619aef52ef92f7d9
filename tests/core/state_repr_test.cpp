#include "core/state_repr.hpp"

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <set>
#include <sstream>
#include <unordered_map>

#include "core/schemas.hpp"
#include "dataflow/csv.hpp"
#include "dataflow/ops.hpp"
#include "serve/query_engine.hpp"
#include "test_fixtures.hpp"

namespace ivt::core {
namespace {

using testing::kMs;

dataflow::Engine& engine() {
  static dataflow::Engine e{{.workers = 4, .default_partitions = 2}};
  return e;
}

struct KrepRow {
  std::int64_t t;
  std::string s_id;
  std::string value;
  std::string kind = kElementState;
};

dataflow::Table make_krep(const std::vector<KrepRow>& rows) {
  dataflow::TableBuilder builder(krep_schema(), 0);
  for (const KrepRow& row : rows) {
    dataflow::Partition& dst = builder.current_partition();
    dst.columns[0].append_int64(row.t);
    dst.columns[1].append_string(row.s_id);
    dst.columns[2].append_string(row.value);
    dst.columns[3].append_null();
    dst.columns[4].append_string(row.kind);
    dst.columns[5].append_string("FC");
    builder.commit_row();
  }
  return builder.build();
}

TEST(StateReprTest, PaperTable4Shape) {
  // Simplified version of paper Table 4: lights + speed.
  const auto krep = make_krep({
      {2000 * kMs, "headlight", "off"},
      {2000 * kMs, "speed", "(high,increasing)"},
      {4000 * kMs, "lever", "pushed up"},
      {20100 * kMs, "headlight", "parklight on"},
      {23500 * kMs, "headlight", "headlight on"},
  });
  const auto state = build_state_representation(engine(), krep);
  // Columns: t + 3 signals in chronological first-appearance order.
  ASSERT_EQ(state.schema().size(), 4u);
  EXPECT_EQ(state.schema().field(0).name, "t");
  EXPECT_EQ(state.schema().field(1).name, "headlight");
  EXPECT_EQ(state.schema().field(2).name, "speed");
  EXPECT_EQ(state.schema().field(3).name, "lever");
  EXPECT_EQ(state.num_rows(), 4u);  // 2000 merged, 4000, 20100, 23500
}

TEST(StateReprTest, ForwardFill) {
  const auto krep = make_krep({
      {0, "a", "1"},
      {1000, "b", "x"},
      {2000, "a", "2"},
  });
  const auto state = build_state_representation(engine(), krep);
  const auto rows = state.collect_rows();
  ASSERT_EQ(rows.size(), 3u);
  const std::size_t a = state.schema().require("a");
  const std::size_t b = state.schema().require("b");
  // Row 0: a=1, b missing.
  EXPECT_EQ(rows[0][a], dataflow::Value{"1"});
  EXPECT_TRUE(rows[0][b].is_null());
  // Row 1: a carried forward.
  EXPECT_EQ(rows[1][a], dataflow::Value{"1"});
  EXPECT_EQ(rows[1][b], dataflow::Value{"x"});
  // Row 2: b carried forward.
  EXPECT_EQ(rows[2][a], dataflow::Value{"2"});
  EXPECT_EQ(rows[2][b], dataflow::Value{"x"});
}

TEST(StateReprTest, SameTimestampMergesIntoOneRow) {
  const auto krep = make_krep({
      {500, "a", "1"},
      {500, "b", "2"},
  });
  const auto state = build_state_representation(engine(), krep);
  EXPECT_EQ(state.num_rows(), 1u);
}

TEST(StateReprTest, MergeDisabledKeepsRows) {
  const auto krep = make_krep({
      {500, "a", "1"},
      {500, "b", "2"},
  });
  StateRepresentationOptions options;
  options.merge_same_timestamp = false;
  const auto state = build_state_representation(engine(), krep, options);
  EXPECT_EQ(state.num_rows(), 2u);
}

TEST(StateReprTest, UnsortedInputIsSortedFirst) {
  const auto krep = make_krep({
      {2000, "a", "late"},
      {0, "a", "early"},
  });
  const auto state = build_state_representation(engine(), krep);
  const auto rows = state.collect_rows();
  EXPECT_EQ(rows[0][0], dataflow::Value{std::int64_t{0}});
  EXPECT_EQ(rows[0][1], dataflow::Value{"early"});
  EXPECT_EQ(rows[1][1], dataflow::Value{"late"});
}

TEST(StateReprTest, ExtensionsAreMomentaryByDefault) {
  const auto krep = make_krep({
      {0, "a", "1"},
      {1000, "a.gap", "0.5", kElementExtension},
      {2000, "a", "2"},
  });
  const auto state = build_state_representation(engine(), krep);
  const auto rows = state.collect_rows();
  const std::size_t gap_col = state.schema().require("a.gap");
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_TRUE(rows[0][gap_col].is_null());
  EXPECT_EQ(rows[1][gap_col], dataflow::Value{"0.5"});
  // NOT forward-filled: the violation was momentary.
  EXPECT_TRUE(rows[2][gap_col].is_null());
}

TEST(StateReprTest, ExtensionsCanBeExcluded) {
  const auto krep = make_krep({
      {0, "a", "1"},
      {1000, "a.gap", "0.5", kElementExtension},
  });
  StateRepresentationOptions options;
  options.include_extensions = false;
  const auto state = build_state_representation(engine(), krep, options);
  EXPECT_FALSE(state.schema().contains("a.gap"));
  EXPECT_EQ(state.num_rows(), 1u);
}

TEST(StateReprTest, OutlierValuePropagatesLikeState) {
  const auto krep = make_krep({
      {0, "speed", "(high,steady)"},
      {1000, "speed", "outlier v=800", kElementOutlier},
      {2000, "speed", "(high,steady)"},
  });
  const auto state = build_state_representation(engine(), krep);
  const auto rows = state.collect_rows();
  EXPECT_EQ(rows[1][1], dataflow::Value{"outlier v=800"});
  EXPECT_EQ(rows[2][1], dataflow::Value{"(high,steady)"});
}

TEST(StateReprTest, EmptyInput) {
  const auto krep = make_krep({});
  const auto state = build_state_representation(engine(), krep);
  EXPECT_EQ(state.num_rows(), 0u);
  EXPECT_EQ(state.schema().size(), 1u);  // just "t"
}

/// The boxed row-at-a-time builder the coded one replaced: sort_by on t,
/// one pass for column order, one forward-filling pass that appends a
/// boxed row per state change. Kept as the oracle.
dataflow::Table reference_state(dataflow::Engine& engine,
                                const dataflow::Table& krep,
                                const StateRepresentationOptions& options) {
  const dataflow::Table sorted =
      dataflow::sort_by(engine, krep, {{"t", true}}, "reference_sort");
  const std::size_t t_col = sorted.schema().require("t");
  const std::size_t sid_col = sorted.schema().require("s_id");
  const std::size_t value_col = sorted.schema().require("value");
  const std::size_t kind_col = sorted.schema().require("element_kind");
  auto skipped = [&](const dataflow::RowView& row) {
    return !options.include_extensions &&
           row.string_at(kind_col) == kElementExtension;
  };
  std::vector<dataflow::Field> fields{{"t", dataflow::ValueType::Int64}};
  std::unordered_map<std::string, std::size_t> column_of;
  sorted.for_each_row([&](const dataflow::RowView& row) {
    if (skipped(row)) return;
    if (column_of.emplace(row.string_at(sid_col), column_of.size()).second) {
      fields.push_back({row.string_at(sid_col), dataflow::ValueType::String});
    }
  });
  dataflow::TableBuilder builder(dataflow::Schema{fields}, 0);
  std::vector<dataflow::Value> current(column_of.size());
  std::vector<bool> touched(column_of.size(), false);
  std::int64_t pending_t = 0;
  bool pending = false;
  auto emit = [&] {
    if (!pending) return;
    std::vector<dataflow::Value> row{dataflow::Value{pending_t}};
    row.insert(row.end(), current.begin(), current.end());
    builder.append_row(std::move(row));
    for (std::size_t c = 0; c < current.size(); ++c) {
      if (options.momentary_extensions && touched[c]) {
        current[c] = dataflow::Value{};
        touched[c] = false;
      }
    }
    pending = false;
  };
  sorted.for_each_row([&](const dataflow::RowView& row) {
    if (skipped(row)) return;
    const std::int64_t t = row.int64_at(t_col);
    if (pending && (!options.merge_same_timestamp || t != pending_t)) emit();
    const std::size_t c = column_of.at(row.string_at(sid_col));
    current[c] = dataflow::Value{row.string_at(value_col)};
    if (row.string_at(kind_col) == kElementExtension) touched[c] = true;
    pending_t = t;
    pending = true;
  });
  emit();
  return builder.build().repartitioned(engine.default_partitions());
}

/// A LIG-shaped K_rep: 180 signal types, one partition per sequence (a
/// few signals have two) plus extension partitions, timestamps on a coarse
/// grid so elements collide, within a sequence and across sequences of
/// one signal (same-timestamp merges whose winner depends on a stable
/// sort), a few null values, outliers, and momentary extension elements.
dataflow::Table lig_shaped_krep() {
  std::mt19937_64 rng(20180624);
  dataflow::Table krep(krep_schema());
  auto add_partition = [&](const std::string& s_id, const char* kind,
                           std::size_t n) {
    dataflow::TableBuilder builder(krep_schema(), 0);
    std::int64_t t = static_cast<std::int64_t>(rng() % 50) * kMs;
    for (std::size_t i = 0; i < n; ++i) {
      dataflow::Partition& dst = builder.current_partition();
      dst.columns[0].append_int64(t);
      dst.columns[1].append_string(s_id);
      if (rng() % 40 == 0) {
        dst.columns[2].append_null();
      } else {
        dst.columns[2].append_string("v" + std::to_string(rng() % 6));
      }
      dst.columns[3].append_null();
      const bool outlier = kind == kElementState && rng() % 25 == 0;
      dst.columns[4].append_string(outlier ? kElementOutlier : kind);
      dst.columns[5].append_string("FC");
      builder.commit_row();
      t += static_cast<std::int64_t>(rng() % 400) * kMs;
    }
    krep.add_partition(builder.build().partition(0));
  };
  for (int s = 0; s < 180; ++s) {
    add_partition("LIG_s" + std::to_string(s), kElementState, 8 + rng() % 40);
  }
  for (int s = 0; s < 180; s += 20) {  // a signal seen on a second bus
    add_partition("LIG_s" + std::to_string(s), kElementState, 8 + rng() % 40);
  }
  for (int s = 0; s < 180; s += 9) {
    add_partition("LIG_s" + std::to_string(s) + ".cycle_violation",
                  kElementExtension, 4 + rng() % 8);
  }
  return krep;
}

std::string render(const dataflow::Table& table) {
  std::ostringstream out;
  dataflow::write_csv(table, out);
  return out.str();
}

TEST(StateReprTest, LigShapedMatchesBoxedReference) {
  const dataflow::Table krep = lig_shaped_krep();
  // The defaults, then each option flipped on its own.
  std::vector<StateRepresentationOptions> variants(4);
  variants[1].merge_same_timestamp = false;
  variants[2].include_extensions = false;
  variants[3].momentary_extensions = false;
  for (const StateRepresentationOptions& options : variants) {
    SCOPED_TRACE(::testing::Message()
                 << "merge=" << options.merge_same_timestamp
                 << " extensions=" << options.include_extensions
                 << " momentary=" << options.momentary_extensions);
    const dataflow::Table state =
        build_state_representation(engine(), krep, options);
    const dataflow::Table expected = reference_state(engine(), krep, options);
    ASSERT_EQ(state.schema().size(), options.include_extensions ? 201u : 181u);
    EXPECT_EQ(render(state), render(expected));
    ASSERT_EQ(state.num_partitions(), expected.num_partitions());
    for (std::size_t p = 0; p < state.num_partitions(); ++p) {
      EXPECT_EQ(state.partition(p).num_rows(),
                expected.partition(p).num_rows());
    }
  }
}

TEST(StateReprTest, MemoryScalesWithCodesNotStrings) {
  const dataflow::Table krep = lig_shaped_krep();
  const dataflow::Table state = build_state_representation(engine(), krep);

  // Each column's dictionary holds its distinct values plus the "" entry
  // null cells read.
  std::map<std::string, std::set<std::string>> values;
  krep.for_each_row([&](const dataflow::RowView& row) {
    values[row.string_at(1)].insert(row.string_at(2));
  });
  std::size_t dictionary_bytes = 0;
  for (auto& [s_id, distinct] : values) {
    distinct.insert("");
    for (const std::string& v : distinct) {
      dictionary_bytes += sizeof(std::string) + v.size();
    }
  }
  // 5 B per signal cell (u32 code + validity byte), 9 B per row for the
  // int64 "t" column, each dictionary once, and a fixed slack.
  const std::size_t rows = state.num_rows();
  const std::size_t signal_cells = rows * (state.schema().size() - 1);
  const std::size_t budget =
      signal_cells * 5 + rows * 9 + dictionary_bytes + 4096;
  EXPECT_LE(serve::approx_table_bytes(state), budget);
  // A plain string table of the same cells costs a std::string per cell.
  EXPECT_GT(signal_cells * sizeof(std::string), 4 * budget);
}

}  // namespace
}  // namespace ivt::core
