// Typed columnar cell storage.
//
// A Column holds all cells of one field within one partition. Cells are
// stored in a dense typed vector plus a validity mask, so hot row-wise
// kernels (interpretation, reduction predicates) can read contiguous
// memory instead of chasing boxed variants.
//
// A String column may instead be dictionary-coded: one u32 code per cell
// into a shared, immutable dictionary. Readers cannot tell the two forms
// apart; only the builder that chose the encoding and the byte accounting
// look at it.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "dataflow/value.hpp"

namespace ivt::dataflow {

class Column {
 public:
  Column() : Column(ValueType::Null) {}
  explicit Column(ValueType type);

  using Dictionary = std::vector<std::string>;

  /// A read-only String column whose cell i is `(*dict)[codes[i]]`. Every
  /// code, a null cell's included, must index `dict` (errors::Error
  /// otherwise); a null cell's string_at() reads its code's entry. Copies
  /// share the dictionary. Appending to the column throws.
  [[nodiscard]] static Column dictionary_coded(
      std::shared_ptr<const Dictionary> dict,
      std::vector<std::uint32_t> codes, std::vector<std::uint8_t> valid);

  [[nodiscard]] ValueType type() const { return type_; }
  [[nodiscard]] std::size_t size() const { return valid_.size(); }
  [[nodiscard]] bool empty() const { return valid_.empty(); }

  void reserve(std::size_t n);

  /// Append a boxed value. Nulls are always accepted; non-null values must
  /// match the column type (std::invalid_argument otherwise), except that
  /// an Int64 value is widened into a Float64 column.
  void append(const Value& v);
  void append(Value&& v);

  /// Typed appends (fast path, no boxing).
  void append_int64(std::int64_t v);
  void append_float64(double v);
  void append_string(std::string v);
  void append_null();

  [[nodiscard]] bool is_null(std::size_t i) const { return valid_[i] == 0; }

  /// Typed accessors; undefined for nulls or mismatched type.
  [[nodiscard]] std::int64_t int64_at(std::size_t i) const {
    return std::get<Int64Vec>(data_)[i];
  }
  [[nodiscard]] double float64_at(std::size_t i) const {
    return std::get<Float64Vec>(data_)[i];
  }
  [[nodiscard]] const std::string& string_at(std::size_t i) const {
    if (const auto* d = std::get_if<DictCodes>(&data_)) {
      return (*d->dict)[d->codes[i]];
    }
    return std::get<StringVec>(data_)[i];
  }

  /// Numeric view (int64 widened). Undefined for nulls / string columns.
  [[nodiscard]] double number_at(std::size_t i) const {
    return type_ == ValueType::Int64 ? static_cast<double>(int64_at(i))
                                     : float64_at(i);
  }

  /// Boxed accessor (slow path).
  [[nodiscard]] Value value_at(std::size_t i) const;

  /// Append cell `i` of `src` to this column. Types must match.
  void append_from(const Column& src, std::size_t i);

  /// Direct vector access for vectorized kernels. Precondition: matching
  /// type; nulls still flagged through is_null().
  [[nodiscard]] const std::vector<std::int64_t>& int64_data() const {
    return std::get<Int64Vec>(data_);
  }
  [[nodiscard]] const std::vector<double>& float64_data() const {
    return std::get<Float64Vec>(data_);
  }

  /// The shared dictionary of a dictionary-coded column; nullptr for every
  /// other column.
  [[nodiscard]] const Dictionary* dictionary() const {
    const auto* d = std::get_if<DictCodes>(&data_);
    return d == nullptr ? nullptr : d->dict.get();
  }

  /// Per-cell codes into dictionary(). Precondition: dictionary-coded.
  [[nodiscard]] const std::vector<std::uint32_t>& dictionary_codes() const {
    return std::get<DictCodes>(data_).codes;
  }

 private:
  using Int64Vec = std::vector<std::int64_t>;
  using Float64Vec = std::vector<double>;
  using StringVec = std::vector<std::string>;
  struct DictCodes {
    std::shared_ptr<const Dictionary> dict;
    std::vector<std::uint32_t> codes;
  };

  [[noreturn]] void throw_type_mismatch(ValueType got) const;
  void require_appendable() const;

  ValueType type_;
  std::variant<std::monostate, Int64Vec, Float64Vec, StringVec, DictCodes>
      data_;
  std::vector<std::uint8_t> valid_;
};

}  // namespace ivt::dataflow
