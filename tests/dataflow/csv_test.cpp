#include "dataflow/csv.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "dictionary_fixture.hpp"

namespace ivt::dataflow {
namespace {

Schema csv_schema() {
  return Schema{{{"id", ValueType::Int64},
                 {"name", ValueType::String},
                 {"v", ValueType::Float64}}};
}

Table sample_table() {
  TableBuilder b(csv_schema(), 0);
  b.append_row({Value{std::int64_t{1}}, Value{"plain"}, Value{1.5}});
  b.append_row({Value{std::int64_t{2}}, Value{"with,comma"}, Value{}});
  b.append_row({Value{std::int64_t{3}}, Value{"with \"quote\""}, Value{-2.0}});
  return b.build();
}

TEST(CsvTest, RoundTrip) {
  std::stringstream ss;
  write_csv(sample_table(), ss);
  const Table back = read_csv(ss, csv_schema());
  EXPECT_EQ(back.collect_rows(), sample_table().collect_rows());
}

TEST(CsvTest, HeaderWritten) {
  std::stringstream ss;
  write_csv(sample_table(), ss);
  std::string first_line;
  std::getline(ss, first_line);
  EXPECT_EQ(first_line, "id,name,v");
}

TEST(CsvTest, NoHeaderOption) {
  std::stringstream ss;
  write_csv(sample_table(), ss, CsvOptions{.separator = ',', .header = false});
  std::string first_line;
  std::getline(ss, first_line);
  EXPECT_EQ(first_line.substr(0, 2), "1,");
}

TEST(CsvTest, QuotingOfSeparator) {
  std::stringstream ss;
  write_csv(sample_table(), ss);
  EXPECT_NE(ss.str().find("\"with,comma\""), std::string::npos);
}

TEST(CsvTest, QuoteEscaping) {
  std::stringstream ss;
  write_csv(sample_table(), ss);
  EXPECT_NE(ss.str().find("\"with \"\"quote\"\"\""), std::string::npos);
}

TEST(CsvTest, NullCellsAreEmpty) {
  std::stringstream ss;
  write_csv(sample_table(), ss);
  EXPECT_NE(ss.str().find("2,\"with,comma\",\n"), std::string::npos);
}

TEST(CsvTest, ReadRejectsBadHeader) {
  std::stringstream ss("wrong,name,v\n1,x,2.0\n");
  EXPECT_THROW(read_csv(ss, csv_schema()), std::runtime_error);
}

TEST(CsvTest, ReadRejectsBadWidth) {
  std::stringstream ss("id,name,v\n1,x\n");
  EXPECT_THROW(read_csv(ss, csv_schema()), std::runtime_error);
}

TEST(CsvTest, ReadRejectsBadInt) {
  std::stringstream ss("id,name,v\nxyz,a,1.0\n");
  EXPECT_THROW(read_csv(ss, csv_schema()), std::runtime_error);
}

TEST(CsvTest, TsvSeparator) {
  std::stringstream ss;
  const CsvOptions tsv{.separator = '\t', .header = true};
  write_csv(sample_table(), ss, tsv);
  const Table back = read_csv(ss, csv_schema(), tsv);
  EXPECT_EQ(back.num_rows(), 3u);
}

TEST(CsvTest, PartitionedRead) {
  std::stringstream ss;
  write_csv(sample_table(), ss);
  const Table back = read_csv(ss, csv_schema(), {}, 1);
  EXPECT_EQ(back.num_partitions(), 3u);
}

TEST(CsvTest, EmptyInputGivesEmptyTable) {
  std::stringstream ss("");
  const Table back = read_csv(ss, csv_schema());
  EXPECT_EQ(back.num_rows(), 0u);
}

TEST(CsvTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/ivt_csv_test.csv";
  write_csv_file(sample_table(), path);
  const Table back = read_csv_file(path, csv_schema());
  EXPECT_EQ(back.collect_rows(), sample_table().collect_rows());
}

TEST(CsvTest, DictionaryColumnsWriteTheSameBytes) {
  const Table coded = testing::dictionary_table();
  const Table plain = testing::plain_copy(coded);
  ASSERT_EQ(plain.partition(0).columns[1].dictionary(), nullptr);
  std::ostringstream plain_out;
  std::ostringstream coded_out;
  write_csv(plain, plain_out);
  write_csv(coded, coded_out);
  EXPECT_EQ(coded_out.str(), plain_out.str());
  EXPECT_EQ(plain_out.str(),
            "t,a,b\n0,x,\n1,\"with,comma\",\n2,\"with \"\"quote\"\"\",x\n"
            "3,,\"with \"\"quote\"\"\"\n");
}

// The writer before std::to_chars: snprintf per number, quoting decided
// per cell. The rendering under test must match it byte for byte.
std::string reference_csv(const Table& table, char sep = ',') {
  const auto cell = [sep](const std::string& s) {
    if (s.find_first_of(std::string{sep, '"', '\n', '\r'}) ==
        std::string::npos) {
      return s;
    }
    std::string quoted = "\"";
    for (const char c : s) {
      if (c == '"') quoted += '"';
      quoted += c;
    }
    return quoted + "\"";
  };
  std::string out;
  for (std::size_t c = 0; c < table.schema().size(); ++c) {
    if (c > 0) out += sep;
    out += cell(table.schema().field(c).name);
  }
  out += '\n';
  char num[64];
  for (const Partition& p : table.partitions()) {
    for (std::size_t r = 0; r < p.num_rows(); ++r) {
      for (std::size_t c = 0; c < p.columns.size(); ++c) {
        if (c > 0) out += sep;
        const Column& col = p.columns[c];
        if (col.is_null(r)) continue;
        switch (col.type()) {
          case ValueType::Int64:
            std::snprintf(num, sizeof(num), "%lld",
                          static_cast<long long>(col.int64_at(r)));
            out += num;
            break;
          case ValueType::Float64:
            std::snprintf(num, sizeof(num), "%.9g", col.float64_at(r));
            out += num;
            break;
          case ValueType::String:
            out += cell(col.string_at(r));
            break;
          case ValueType::Null:
            break;
        }
      }
      out += '\n';
    }
  }
  return out;
}

std::string rendered(const Table& table, const CsvOptions& options = {}) {
  std::string out;
  append_csv(out, table, options);
  std::ostringstream stream;
  write_csv(table, stream, options);
  EXPECT_EQ(stream.str(), out) << "write_csv and append_csv disagree";
  return out;
}

Table numbers_table(const std::vector<std::int64_t>& ints,
                    const std::vector<double>& doubles) {
  TableBuilder b(Schema{{{"i", ValueType::Int64}, {"v", ValueType::Float64}}},
                 0);
  for (std::size_t k = 0; k < std::max(ints.size(), doubles.size()); ++k) {
    b.append_row({k < ints.size() ? Value{ints[k]} : Value{},
                  k < doubles.size() ? Value{doubles[k]} : Value{}});
  }
  return b.build();
}

struct NumberCase {
  double value;
  const char* printf_form;  ///< what "%.9g" prints
};

TEST(CsvTest, NumbersRenderAsSnprintfForEdgeValues) {
  using limits = std::numeric_limits<double>;
  const std::vector<NumberCase> cases = {
      {0.0, "0"},
      {-0.0, "-0"},
      {limits::denorm_min(), "4.94065646e-324"},
      {-limits::denorm_min(), "-4.94065646e-324"},
      {2.2250738585072009e-308, "2.22507386e-308"},  // largest denormal
      {limits::min(), "2.22507386e-308"},
      {limits::max(), "1.79769313e+308"},
      {-limits::max(), "-1.79769313e+308"},
      {1e300, "1e+300"},
      {-1e300, "-1e+300"},
      {1e-300, "1e-300"},
      {-1e-300, "-1e-300"},
      {limits::infinity(), "inf"},
      {-limits::infinity(), "-inf"},
      {limits::quiet_NaN(), "nan"},
      {-limits::quiet_NaN(), "-nan"},
      {0.1, "0.1"},
      {1.0 / 3.0, "0.333333333"},
      {123456789.0, "123456789"},
      {1234567890.0, "1.23456789e+09"},
      {999999999.5, "1e+09"},         // rounds up into exponent form
      {0.0001, "0.0001"},
      {0.00001, "1e-05"},
      {9.9999999995e-5, "0.0001"},    // rounds up out of exponent form
      {-2.5, "-2.5"},
  };
  std::vector<double> doubles;
  for (const NumberCase& c : cases) doubles.push_back(c.value);
  const std::vector<std::int64_t> ints = {
      std::numeric_limits<std::int64_t>::min(),
      std::numeric_limits<std::int64_t>::max(), 0, -1, 1};
  const Table table = numbers_table(ints, doubles);
  const std::string out = rendered(table);
  EXPECT_EQ(out, reference_csv(table));

  std::istringstream lines(out);
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, "i,v");
  const char* const int_forms[] = {"-9223372036854775808",
                                   "9223372036854775807", "0", "-1", "1"};
  for (std::size_t k = 0; k < cases.size(); ++k) {
    ASSERT_TRUE(std::getline(lines, line));
    const std::string i = k < 5 ? int_forms[k] : "";
    EXPECT_EQ(line, i + "," + cases[k].printf_form) << "case " << k;
  }
}

TEST(CsvTest, RandomBitPatternsRenderAsSnprintf) {
  // Every exponent and sign, NaN payloads included.
  std::mt19937_64 rng(7);
  std::vector<double> doubles;
  std::vector<std::int64_t> ints;
  for (int k = 0; k < 20000; ++k) {
    const std::uint64_t bits = rng();
    double d = 0.0;
    std::memcpy(&d, &bits, sizeof(d));
    doubles.push_back(d);
    ints.push_back(static_cast<std::int64_t>(rng()) >> (k % 64));
  }
  const Table table = numbers_table(ints, doubles);
  EXPECT_EQ(rendered(table), reference_csv(table));
}

TEST(CsvTest, StringsQuoteOnlyWhenTheyMust) {
  const std::vector<std::string> cells = {
      "", "plain", "a,b", "a\"b", "\"", "a\nb", "a\rb", "a\tb", "x;y"};
  TableBuilder b(Schema{{{"s", ValueType::String}}}, 0);
  for (const std::string& c : cells) b.append_row({Value{c}});
  const Table plain = b.build();
  // The same cells dictionary-coded, each entry used twice.
  std::vector<std::uint32_t> codes;
  for (std::uint32_t k = 0; k < 2 * cells.size(); ++k) {
    codes.push_back(k % cells.size());
  }
  Table coded(plain.schema());
  Partition part;
  part.columns.push_back(Column::dictionary_coded(
      std::make_shared<const Column::Dictionary>(cells), codes,
      std::vector<std::uint8_t>(codes.size(), 1)));
  coded.add_partition(std::move(part));

  EXPECT_EQ(rendered(plain),
            "s\n\nplain\n\"a,b\"\n\"a\"\"b\"\n\"\"\"\"\n\"a\nb\"\n"
            "\"a\rb\"\na\tb\nx;y\n");
  EXPECT_EQ(rendered(plain), reference_csv(plain));
  const CsvOptions tsv{.separator = '\t', .header = true};
  EXPECT_EQ(rendered(plain, tsv), reference_csv(plain, '\t'));
  EXPECT_NE(rendered(plain, tsv).find("\"a\tb\""), std::string::npos);
  EXPECT_EQ(rendered(plain, tsv).find("\"a,b\""), std::string::npos);
  const CsvOptions semi{.separator = ';', .header = true};
  EXPECT_EQ(rendered(plain, semi), reference_csv(plain, ';'));

  // Quoting is decided per dictionary entry, so it must not leak from
  // one separator's rendering into another's.
  EXPECT_EQ(rendered(coded), reference_csv(plain) +
                                 reference_csv(plain).substr(2));
  EXPECT_EQ(rendered(coded, tsv), reference_csv(plain, '\t') +
                                      reference_csv(plain, '\t').substr(2));
}

TEST(CsvTest, LargeDictionaryTableRendersAcrossWriteBlocks) {
  // More rows than write_csv renders per block, with dictionary entries
  // that need quoting recurring across blocks and partitions.
  auto dict = std::make_shared<const Column::Dictionary>(
      Column::Dictionary{"", "a,b", "plain", "q\"q"});
  const Schema schema{{{"t", ValueType::Int64}, {"s", ValueType::String}}};
  Table coded(schema);
  std::int64_t t = 0;
  for (int p = 0; p < 3; ++p) {
    Column tc(ValueType::Int64);
    std::vector<std::uint32_t> codes;
    std::vector<std::uint8_t> valid;
    for (int r = 0; r < 5000; ++r, ++t) {
      tc.append_int64(t * 1000003);
      codes.push_back(static_cast<std::uint32_t>((t * 7) % 4));
      valid.push_back(static_cast<std::uint8_t>(t % 5 != 0));
    }
    Partition part;
    part.columns.push_back(std::move(tc));
    part.columns.push_back(Column::dictionary_coded(dict, codes, valid));
    coded.add_partition(std::move(part));
  }
  EXPECT_EQ(rendered(coded), reference_csv(testing::plain_copy(coded)));
}

TEST(CsvTest, PartialRenderPicksColumnsAndRowRanges) {
  const Table coded = testing::dictionary_table();
  const Table plain = testing::plain_copy(coded);
  // Columns b then t; row 1 of partition 0 and both rows of partition 1.
  const std::vector<std::size_t> columns = {2, 0};
  const std::vector<RowRange> rows = {{0, 1, 2}, {1, 0, 2}};
  const std::string expected =
      "b,t\n,1\nx,2\n\"with \"\"quote\"\"\",3\n";
  for (const Table* table : {&coded, &plain}) {
    std::string out = "prefix|";
    append_csv(out, *table, columns, rows);
    EXPECT_EQ(out, "prefix|" + expected);
  }
  std::string headless;
  append_csv(headless, coded, columns, {{1, 1, 2}, {0, 0, 0}},
             CsvOptions{.separator = ',', .header = false});
  EXPECT_EQ(headless, "\"with \"\"quote\"\"\",3\n");
}

}  // namespace
}  // namespace ivt::dataflow
