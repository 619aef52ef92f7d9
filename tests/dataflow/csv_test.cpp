#include "dataflow/csv.hpp"

#include <gtest/gtest.h>

#include <sstream>

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

}  // namespace
}  // namespace ivt::dataflow
