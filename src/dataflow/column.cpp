#include "dataflow/column.hpp"

#include <algorithm>

#include "errors/error.hpp"

namespace ivt::dataflow {

Column::Column(ValueType type) : type_(type) {
  switch (type) {
    case ValueType::Null:
      data_ = std::monostate{};
      break;
    case ValueType::Int64:
      data_ = Int64Vec{};
      break;
    case ValueType::Float64:
      data_ = Float64Vec{};
      break;
    case ValueType::String:
      data_ = StringVec{};
      break;
  }
}

Column Column::dictionary_coded(std::shared_ptr<const Dictionary> dict,
                                std::vector<std::uint32_t> codes,
                                std::vector<std::uint8_t> valid) {
  if (dict == nullptr || codes.size() != valid.size()) {
    IVT_THROW(errors::Category::Internal,
              "dictionary column: needs a dictionary and one code per cell");
  }
  if (!codes.empty()) {
    const std::uint32_t top = *std::max_element(codes.begin(), codes.end());
    if (top >= dict->size()) {
      IVT_THROW(errors::Category::Internal,
                "dictionary column: code " + std::to_string(top) +
                    " outside a dictionary of " +
                    std::to_string(dict->size()));
    }
  }
  Column col(ValueType::String);
  col.data_ = DictCodes{std::move(dict), std::move(codes)};
  col.valid_ = std::move(valid);
  return col;
}

void Column::reserve(std::size_t n) {
  require_appendable();
  valid_.reserve(n);
  switch (type_) {
    case ValueType::Null:
      break;
    case ValueType::Int64:
      std::get<Int64Vec>(data_).reserve(n);
      break;
    case ValueType::Float64:
      std::get<Float64Vec>(data_).reserve(n);
      break;
    case ValueType::String:
      std::get<StringVec>(data_).reserve(n);
      break;
  }
}

void Column::throw_type_mismatch(ValueType got) const {
  IVT_THROW(errors::Category::Internal, 
      "column type mismatch: column is " + std::string(to_string(type_)) +
      ", value is " + std::string(to_string(got)));
}

void Column::require_appendable() const {
  if (std::holds_alternative<DictCodes>(data_)) {
    IVT_THROW(errors::Category::Internal,
              "dictionary-coded column is read-only");
  }
}

void Column::append(const Value& v) {
  switch (v.type()) {
    case ValueType::Null:
      append_null();
      return;
    case ValueType::Int64:
      if (type_ == ValueType::Float64) {
        append_float64(static_cast<double>(v.as_int64()));
        return;
      }
      append_int64(v.as_int64());
      return;
    case ValueType::Float64:
      append_float64(v.as_float64());
      return;
    case ValueType::String:
      append_string(v.as_string());
      return;
  }
}

void Column::append(Value&& v) {
  if (v.type() == ValueType::String && type_ == ValueType::String) {
    // Steal the string payload.
    append_string(std::move(const_cast<std::string&>(v.as_string())));
    return;
  }
  append(static_cast<const Value&>(v));
}

void Column::append_int64(std::int64_t v) {
  if (type_ != ValueType::Int64) throw_type_mismatch(ValueType::Int64);
  std::get<Int64Vec>(data_).push_back(v);
  valid_.push_back(1);
}

void Column::append_float64(double v) {
  if (type_ != ValueType::Float64) throw_type_mismatch(ValueType::Float64);
  std::get<Float64Vec>(data_).push_back(v);
  valid_.push_back(1);
}

void Column::append_string(std::string v) {
  if (type_ != ValueType::String) throw_type_mismatch(ValueType::String);
  require_appendable();
  std::get<StringVec>(data_).push_back(std::move(v));
  valid_.push_back(1);
}

void Column::append_null() {
  require_appendable();
  switch (type_) {
    case ValueType::Null:
      break;
    case ValueType::Int64:
      std::get<Int64Vec>(data_).push_back(0);
      break;
    case ValueType::Float64:
      std::get<Float64Vec>(data_).push_back(0.0);
      break;
    case ValueType::String:
      std::get<StringVec>(data_).emplace_back();
      break;
  }
  valid_.push_back(0);
}

Value Column::value_at(std::size_t i) const {
  if (is_null(i)) return Value{};
  switch (type_) {
    case ValueType::Null:
      return Value{};
    case ValueType::Int64:
      return Value{int64_at(i)};
    case ValueType::Float64:
      return Value{float64_at(i)};
    case ValueType::String:
      return Value{string_at(i)};
  }
  return Value{};
}

void Column::append_from(const Column& src, std::size_t i) {
  if (src.is_null(i)) {
    append_null();
    return;
  }
  if (src.type_ != type_) {
    if (src.type_ == ValueType::Int64 && type_ == ValueType::Float64) {
      append_float64(static_cast<double>(src.int64_at(i)));
      return;
    }
    throw_type_mismatch(src.type_);
  }
  switch (type_) {
    case ValueType::Null:
      append_null();
      break;
    case ValueType::Int64:
      append_int64(src.int64_at(i));
      break;
    case ValueType::Float64:
      append_float64(src.float64_at(i));
      break;
    case ValueType::String:
      append_string(src.string_at(i));
      break;
  }
}

}  // namespace ivt::dataflow
