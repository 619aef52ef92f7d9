#include "errors/error.hpp"
#include "dataflow/column.hpp"

#include <gtest/gtest.h>

#include <memory>

namespace ivt::dataflow {
namespace {

TEST(ColumnTest, TypedAppendAndRead) {
  Column c(ValueType::Int64);
  c.append_int64(1);
  c.append_int64(-5);
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c.int64_at(0), 1);
  EXPECT_EQ(c.int64_at(1), -5);
  EXPECT_FALSE(c.is_null(0));
}

TEST(ColumnTest, NullsTracked) {
  Column c(ValueType::Float64);
  c.append_float64(1.5);
  c.append_null();
  ASSERT_EQ(c.size(), 2u);
  EXPECT_FALSE(c.is_null(0));
  EXPECT_TRUE(c.is_null(1));
  EXPECT_TRUE(c.value_at(1).is_null());
}

TEST(ColumnTest, BoxedAppend) {
  Column c(ValueType::String);
  c.append(Value{"abc"});
  c.append(Value{});
  EXPECT_EQ(c.string_at(0), "abc");
  EXPECT_TRUE(c.is_null(1));
}

TEST(ColumnTest, TypeMismatchThrows) {
  Column c(ValueType::Int64);
  EXPECT_THROW(c.append_string("x"), ivt::errors::Error);
  EXPECT_THROW(c.append(Value{1.5}), ivt::errors::Error);
}

TEST(ColumnTest, Int64WidensIntoFloat64Column) {
  Column c(ValueType::Float64);
  c.append(Value{std::int64_t{3}});
  EXPECT_DOUBLE_EQ(c.float64_at(0), 3.0);
}

TEST(ColumnTest, NumberAtWidens) {
  Column c(ValueType::Int64);
  c.append_int64(9);
  EXPECT_DOUBLE_EQ(c.number_at(0), 9.0);
}

TEST(ColumnTest, AppendFromCopiesCellIncludingNull) {
  Column src(ValueType::String);
  src.append_string("x");
  src.append_null();
  Column dst(ValueType::String);
  dst.append_from(src, 0);
  dst.append_from(src, 1);
  EXPECT_EQ(dst.string_at(0), "x");
  EXPECT_TRUE(dst.is_null(1));
}

TEST(ColumnTest, AppendFromWidensInt64ToFloat64) {
  Column src(ValueType::Int64);
  src.append_int64(7);
  Column dst(ValueType::Float64);
  dst.append_from(src, 0);
  EXPECT_DOUBLE_EQ(dst.float64_at(0), 7.0);
}

TEST(ColumnTest, AppendFromTypeMismatchThrows) {
  Column src(ValueType::String);
  src.append_string("x");
  Column dst(ValueType::Int64);
  EXPECT_THROW(dst.append_from(src, 0), ivt::errors::Error);
}

TEST(ColumnTest, ValueAtBoxesCorrectly) {
  Column c(ValueType::Int64);
  c.append_int64(11);
  EXPECT_EQ(c.value_at(0), Value{std::int64_t{11}});
}

TEST(ColumnTest, MoveAppendStealsString) {
  Column c(ValueType::String);
  c.append(Value{std::string(100, 'a')});
  EXPECT_EQ(c.string_at(0).size(), 100u);
}

std::shared_ptr<const Column::Dictionary> on_off_dictionary() {
  return std::make_shared<const Column::Dictionary>(
      Column::Dictionary{"", "on", "off"});
}

/// Cells: "on", null, "off", "on", "" (a valid empty string).
Column on_off_column() {
  return Column::dictionary_coded(on_off_dictionary(), {1, 0, 2, 1, 0},
                                  {1, 0, 1, 1, 1});
}

TEST(ColumnTest, DictionaryReadsLikeAPlainStringColumn) {
  const Column c = on_off_column();
  EXPECT_EQ(c.type(), ValueType::String);
  ASSERT_EQ(c.size(), 5u);
  EXPECT_EQ(c.string_at(0), "on");
  EXPECT_EQ(c.string_at(2), "off");
  EXPECT_EQ(c.string_at(3), "on");
  EXPECT_FALSE(c.is_null(0));
  EXPECT_TRUE(c.is_null(1));
  EXPECT_FALSE(c.is_null(4));
  EXPECT_EQ(c.string_at(1), "");  // a null cell reads its code's entry
  EXPECT_EQ(c.value_at(0), Value{"on"});
  EXPECT_TRUE(c.value_at(1).is_null());
  EXPECT_EQ(c.value_at(4), Value{""});
}

TEST(ColumnTest, DictionaryAppendFromIntoPlainColumn) {
  const Column src = on_off_column();
  Column dst(ValueType::String);
  for (std::size_t i = 0; i < src.size(); ++i) dst.append_from(src, i);
  EXPECT_EQ(dst.dictionary(), nullptr);
  ASSERT_EQ(dst.size(), src.size());
  for (std::size_t i = 0; i < src.size(); ++i) {
    EXPECT_EQ(dst.value_at(i), src.value_at(i)) << "cell " << i;
  }
}

TEST(ColumnTest, DictionaryCopySharesTheDictionary) {
  const Column c = on_off_column();
  const Column copy = c;  // NOLINT(performance-unnecessary-copy-initialization)
  ASSERT_NE(c.dictionary(), nullptr);
  EXPECT_EQ(copy.dictionary(), c.dictionary());
  EXPECT_EQ(copy.string_at(2), "off");
}

TEST(ColumnTest, DictionaryAppendThrows) {
  Column c = on_off_column();
  EXPECT_THROW(c.append_string("on"), ivt::errors::Error);
  EXPECT_THROW(c.append_null(), ivt::errors::Error);
  EXPECT_THROW(c.append(Value{"off"}), ivt::errors::Error);
  EXPECT_THROW(c.append_from(on_off_column(), 0), ivt::errors::Error);
  EXPECT_EQ(c.size(), 5u);
}

TEST(ColumnTest, DictionaryRejectsCodesOutsideTheDictionary) {
  EXPECT_THROW(Column::dictionary_coded(on_off_dictionary(), {3}, {1}),
               ivt::errors::Error);
  EXPECT_THROW(Column::dictionary_coded(on_off_dictionary(), {1, 2}, {1}),
               ivt::errors::Error);
  EXPECT_THROW(Column::dictionary_coded(nullptr, {}, {}), ivt::errors::Error);
}

}  // namespace
}  // namespace ivt::dataflow
