#include "dataflow/table_io.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "dictionary_fixture.hpp"

namespace ivt::dataflow {
namespace {

Table sample_table() {
  Schema schema{{{"id", ValueType::Int64},
                 {"v", ValueType::Float64},
                 {"name", ValueType::String}}};
  TableBuilder b(schema, 3);
  for (std::int64_t i = 0; i < 8; ++i) {
    b.append_row({Value{i},
                  i % 3 == 0 ? Value{} : Value{0.5 * static_cast<double>(i)},
                  i % 4 == 0 ? Value{} : Value{"n" + std::to_string(i)}});
  }
  return b.build();
}

TEST(TableIoTest, StreamRoundTrip) {
  const Table t = sample_table();
  std::stringstream ss;
  write_table(t, ss);
  const Table back = read_table(ss);
  EXPECT_EQ(back.schema(), t.schema());
  EXPECT_EQ(back.num_partitions(), t.num_partitions());
  EXPECT_EQ(back.collect_rows(), t.collect_rows());
}

TEST(TableIoTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/table_io_test.ivtbl";
  const Table t = sample_table();
  save_table(t, path);
  EXPECT_EQ(load_table(path).collect_rows(), t.collect_rows());
}

TEST(TableIoTest, NullsSurvive) {
  const Table t = sample_table();
  std::stringstream ss;
  write_table(t, ss);
  const Table back = read_table(ss);
  const auto rows = back.collect_rows();
  EXPECT_TRUE(rows[0][1].is_null());
  EXPECT_TRUE(rows[0][2].is_null());
  EXPECT_FALSE(rows[1][1].is_null());
}

TEST(TableIoTest, EmptyTable) {
  Table t(Schema{{{"x", ValueType::Int64}}});
  std::stringstream ss;
  write_table(t, ss);
  const Table back = read_table(ss);
  EXPECT_EQ(back.num_rows(), 0u);
  EXPECT_EQ(back.schema(), t.schema());
}

TEST(TableIoTest, BinaryPayloadStringsSurvive) {
  Schema schema{{{"payload", ValueType::String}}};
  TableBuilder b(schema, 0);
  std::string bytes;
  for (int i = 0; i < 256; ++i) bytes.push_back(static_cast<char>(i));
  b.append_row({Value{bytes}});
  std::stringstream ss;
  write_table(b.build(), ss);
  const Table back = read_table(ss);
  EXPECT_EQ(back.collect_rows()[0][0].as_string(), bytes);
}

TEST(TableIoTest, BadMagicRejected) {
  std::stringstream ss("NOPE....");
  EXPECT_THROW(read_table(ss), std::runtime_error);
}

TEST(TableIoTest, TruncationRejected) {
  std::stringstream ss;
  write_table(sample_table(), ss);
  std::string data = ss.str();
  data.resize(data.size() / 2);
  std::stringstream truncated(data);
  EXPECT_THROW(read_table(truncated), std::runtime_error);
}

TEST(TableIoTest, LargeTableRoundTrip) {
  Schema schema{{{"i", ValueType::Int64}, {"s", ValueType::String}}};
  TableBuilder b(schema, 1000);
  for (std::int64_t i = 0; i < 5000; ++i) {
    b.append_row({Value{i}, Value{std::to_string(i * 7)}});
  }
  const Table t = b.build();
  std::stringstream ss;
  write_table(t, ss);
  const Table back = read_table(ss);
  EXPECT_EQ(back.num_rows(), 5000u);
  EXPECT_EQ(back.collect_rows(), t.collect_rows());
}

TEST(TableIoTest, DictionaryColumnsWriteTheSameBytes) {
  const Table coded = testing::dictionary_table();
  const Table plain = testing::plain_copy(coded);
  std::ostringstream plain_out;
  std::ostringstream coded_out;
  write_table(plain, plain_out);
  write_table(coded, coded_out);
  EXPECT_EQ(coded_out.str(), plain_out.str());
  std::istringstream in(coded_out.str());
  EXPECT_EQ(read_table(in).collect_rows(), plain.collect_rows());
}

}  // namespace
}  // namespace ivt::dataflow
