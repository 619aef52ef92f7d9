#include "core/state_repr.hpp"

#include <algorithm>
#include <memory>
#include <string_view>
#include <unordered_map>

#include "core/schemas.hpp"
#include "obs/obs.hpp"

namespace ivt::core {
namespace {

/// One K_rep element with its value interned: the sort key (t, then input
/// position), the signal type's column in input-order numbering, and the
/// value's code in that column's dictionary.
struct Element {
  std::int64_t t;
  std::uint32_t position;
  std::uint32_t column;
  std::uint32_t code;
  bool t_null;
  bool extension;
};

/// One element as its output column sees it: the row it lands on, its
/// code, and whether it is a (momentary) extension element.
struct Cell {
  std::uint32_t row;
  std::uint32_t code;
  bool extension;
};

/// A column's values interned to u32 codes in first-appearance order. Code
/// 0 is the empty string, which null cells also carry, so a null cell
/// reads "" exactly as it does in a plain string column.
class Interner {
 public:
  Interner() : entries_{std::string_view{}} { code_of_.emplace("", 0); }

  std::uint32_t intern(std::string_view v) {
    const auto [it, added] =
        code_of_.try_emplace(v, static_cast<std::uint32_t>(entries_.size()));
    if (added) entries_.push_back(v);
    return it->second;
  }

  [[nodiscard]] std::shared_ptr<const dataflow::Column::Dictionary>
  dictionary() const {
    return std::make_shared<const dataflow::Column::Dictionary>(
        entries_.begin(), entries_.end());
  }

 private:
  std::unordered_map<std::string_view, std::uint32_t> code_of_;
  std::vector<std::string_view> entries_;
};

/// Code and validity buffers of one output column, appended in row order
/// and cut into the final partition layout as they grow: every partition
/// but the last holds `per` rows.
struct PartitionedCodes {
  std::vector<std::vector<std::uint32_t>> codes;
  std::vector<std::vector<std::uint8_t>> valid;
  std::size_t rows = 0;
  std::size_t per = 1;
  std::size_t written = 0;

  /// Append `n` rows holding `code`, or `n` nulls when !is_valid.
  void append(std::size_t n, std::uint32_t code, bool is_valid) {
    while (n > 0) {
      if (codes.empty() || codes.back().size() == per) {
        const std::size_t len = std::min(per, rows - written);
        codes.emplace_back().reserve(len);
        valid.emplace_back().reserve(len);
      }
      const std::size_t k = std::min(n, per - codes.back().size());
      codes.back().insert(codes.back().end(), k, is_valid ? code : 0);
      valid.back().insert(valid.back().end(), k,
                          static_cast<std::uint8_t>(is_valid));
      written += k;
      n -= k;
    }
  }
};

}  // namespace

dataflow::Table build_state_representation(
    dataflow::Engine& engine, const dataflow::Table& krep,
    const StateRepresentationOptions& options) {
  using dataflow::Column;

  const dataflow::Schema& in = krep.schema();
  const std::size_t t_col = in.require("t");
  const std::size_t sid_col = in.require("s_id");
  const std::size_t value_col = in.require("value");
  const std::size_t kind_col = in.require("element_kind");

  // Read K_rep once in input order, interning signal types and values,
  // then index-sort it on t: nulls first, ties in input order, which is
  // the order the dataflow sort_by gives.
  std::vector<Element> elements;
  std::vector<std::string_view> names;  // input-order column numbering
  std::vector<Interner> interners;
  {
    OBS_SPAN_V(span, "pipeline.state_repr.sort");
    elements.reserve(krep.num_rows());
    std::unordered_map<std::string_view, std::uint32_t> column_of;
    std::string_view last_sid;
    std::uint32_t column = 0;
    std::uint32_t position = 0;
    for (const dataflow::Partition& part : krep.partitions()) {
      const Column& t = part.columns[t_col];
      const Column& sid = part.columns[sid_col];
      for (std::size_t r = 0; r < t.size(); ++r, ++position) {
        const bool extension =
            part.columns[kind_col].string_at(r) == kElementExtension;
        if (extension && !options.include_extensions) continue;
        const std::string_view s_id = sid.string_at(r);
        if (names.empty() || s_id != last_sid) {
          const auto [it, added] = column_of.try_emplace(
              s_id, static_cast<std::uint32_t>(names.size()));
          if (added) {
            names.push_back(s_id);
            interners.emplace_back();
          }
          column = it->second;
          last_sid = s_id;
        }
        elements.push_back(Element{
            t.int64_at(r), position, column,
            interners[column].intern(part.columns[value_col].string_at(r)),
            t.is_null(r), extension});
      }
    }
    std::sort(elements.begin(), elements.end(),
              [](const Element& a, const Element& b) {
                if (a.t_null != b.t_null) return a.t_null;
                if (!a.t_null && a.t != b.t) return a.t < b.t;
                return a.position < b.position;
              });
    span.set_rows(elements.size());
  }

  // Output columns in order of first (chronological) appearance; each
  // element becomes a Cell of its column on the row it lands on. A new row
  // starts at every new timestamp (every element when merging is off).
  std::vector<std::int64_t> row_t;
  std::vector<std::uint32_t> order;  // output column -> input numbering
  std::vector<PartitionedCodes> columns;
  std::size_t per = 1;
  {
    OBS_SPAN_V(span, "pipeline.state_repr.fill");
    constexpr std::uint32_t kUnseen = ~std::uint32_t{0};
    std::vector<std::uint32_t> output_of(names.size(), kUnseen);
    std::vector<std::vector<Cell>> cells;
    for (const Element& e : elements) {
      if (row_t.empty() || !options.merge_same_timestamp ||
          e.t != row_t.back()) {
        row_t.push_back(e.t);
      }
      if (output_of[e.column] == kUnseen) {
        output_of[e.column] = static_cast<std::uint32_t>(order.size());
        order.push_back(e.column);
        cells.emplace_back();
      }
      cells[output_of[e.column]].push_back(
          Cell{static_cast<std::uint32_t>(row_t.size() - 1), e.code,
               e.extension});
    }

    // Partition layout of Table::repartitioned(default_partitions()).
    const std::size_t rows = row_t.size();
    const std::size_t wanted =
        std::max<std::size_t>(1, engine.default_partitions());
    per = std::max<std::size_t>(1, (rows + wanted - 1) / wanted);

    // Column-at-a-time forward fill: a row with no element of the column
    // carries the previous row's code; the last element on a row wins; an
    // extension element is momentary and clears the column after its row.
    columns.reserve(cells.size());
    for (const std::vector<Cell>& col : cells) {
      PartitionedCodes& codes =
          columns.emplace_back(PartitionedCodes{{}, {}, rows, per});
      std::uint32_t carry = 0;
      bool carry_valid = false;
      for (std::size_t i = 0; i < col.size();) {
        const std::uint32_t row = col[i].row;
        std::uint32_t code = 0;
        bool momentary = false;
        for (; i < col.size() && col[i].row == row; ++i) {
          code = col[i].code;
          momentary |= col[i].extension && options.momentary_extensions;
        }
        codes.append(row - codes.written, carry, carry_valid);
        codes.append(1, code, true);
        carry = momentary ? 0 : code;
        carry_valid = !momentary;
      }
      codes.append(rows - codes.written, carry, carry_valid);
    }
    span.set_rows(rows * order.size());
  }

  OBS_SPAN_V(span, "pipeline.state_repr.partition");
  std::vector<dataflow::Field> fields;
  fields.reserve(1 + order.size());
  fields.push_back(dataflow::Field{"t", dataflow::ValueType::Int64});
  std::vector<std::shared_ptr<const Column::Dictionary>> dictionaries;
  dictionaries.reserve(order.size());
  for (const std::uint32_t c : order) {
    fields.push_back(
        dataflow::Field{std::string(names[c]), dataflow::ValueType::String});
    dictionaries.push_back(interners[c].dictionary());
  }
  const std::size_t parts =
      std::max<std::size_t>(1, (row_t.size() + per - 1) / per);
  std::vector<dataflow::Partition> partitions(parts);
  for (std::size_t p = 0; p < parts; ++p) {
    std::vector<Column>& out = partitions[p].columns;
    out.reserve(fields.size());
    Column& t = out.emplace_back(dataflow::ValueType::Int64);
    const std::size_t begin = p * per;
    const std::size_t end = std::min(row_t.size(), begin + per);
    t.reserve(end - begin);
    for (std::size_t r = begin; r < end; ++r) t.append_int64(row_t[r]);
    for (std::size_t c = 0; c < dictionaries.size(); ++c) {
      out.push_back(Column::dictionary_coded(dictionaries[c],
                                             std::move(columns[c].codes[p]),
                                             std::move(columns[c].valid[p])));
    }
  }
  span.set_rows(row_t.size());
  return dataflow::Table(dataflow::Schema{std::move(fields)},
                         std::move(partitions));
}

}  // namespace ivt::core
