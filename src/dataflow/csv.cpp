#include "dataflow/csv.hpp"

#include "errors/error.hpp"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <fstream>
#include <numeric>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <unordered_map>

namespace ivt::dataflow {

namespace {

/// Split one logical CSV record (handles quoted fields; `in` may span
/// multiple physical lines). Returns false at EOF with no data.
bool read_record(std::istream& in, char sep, std::vector<std::string>& out) {
  out.clear();
  std::string field;
  bool in_quotes = false;
  bool any = false;
  int ch;
  while ((ch = in.get()) != EOF) {
    any = true;
    const char c = static_cast<char>(ch);
    if (in_quotes) {
      if (c == '"') {
        if (in.peek() == '"') {
          in.get();
          field += '"';
        } else {
          in_quotes = false;
        }
      } else {
        field += c;
      }
      continue;
    }
    if (c == '"') {
      in_quotes = true;
    } else if (c == sep) {
      out.push_back(std::move(field));
      field.clear();
    } else if (c == '\n') {
      break;
    } else if (c == '\r') {
      // swallow; \r\n handled by the following \n
    } else {
      field += c;
    }
  }
  if (!any) return false;
  out.push_back(std::move(field));
  return true;
}

Value parse_cell(const std::string& s, ValueType type, std::size_t line) {
  if (s.empty()) return Value{};
  switch (type) {
    case ValueType::Null:
      return Value{};
    case ValueType::Int64: {
      std::int64_t v = 0;
      const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
      if (ec != std::errc{} || ptr != s.data() + s.size()) {
        IVT_THROW(errors::Category::Format, "csv line " + std::to_string(line) +
                                 ": bad int64 cell '" + s + "'");
      }
      return Value{v};
    }
    case ValueType::Float64: {
      try {
        std::size_t pos = 0;
        const double v = std::stod(s, &pos);
        if (pos != s.size()) IVT_THROW(errors::Category::Format, s);
        return Value{v};
      } catch (const std::exception&) {
        IVT_THROW(errors::Category::Format, "csv line " + std::to_string(line) +
                                 ": bad float64 cell '" + s + "'");
      }
    }
    case ValueType::String:
      return Value{s};
  }
  return Value{};
}

bool needs_quoting(std::string_view s, char sep) {
  for (const char c : s) {
    if (c == sep || c == '"' || c == '\n' || c == '\r') return true;
  }
  return false;
}

void append_quoted(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
}

void append_cell(std::string& out, std::string_view s, char sep) {
  if (needs_quoting(s, sep)) {
    append_quoted(out, s);
  } else {
    out.append(s);
  }
}

/// Renders chosen columns of one table, row range by row range. Quoting
/// of a dictionary-coded column is decided per dictionary entry, on the
/// entry's first use, and kept for every later range.
class CsvWriter {
 public:
  CsvWriter(const Table& table, const std::vector<std::size_t>& columns,
            const CsvOptions& options)
      : table_(table), columns_(columns), sep_(options.separator) {}

  void header(std::string& out) const {
    for (std::size_t k = 0; k < columns_.size(); ++k) {
      if (k > 0) out += sep_;
      append_cell(out, table_.schema().field(columns_[k]).name, sep_);
    }
    out += '\n';
  }

  void rows(std::string& out, const RowRange& range) {
    const Partition& part = table_.partition(range.partition);
    struct Source {
      const Column* column = nullptr;
      const Column::Dictionary* dict = nullptr;  ///< set if dictionary-coded
      const std::uint32_t* codes = nullptr;
      std::int8_t* quoted = nullptr;  ///< per entry: -1 undecided, 0, 1
    };
    std::vector<Source> sources;
    sources.reserve(columns_.size());
    for (const std::size_t c : columns_) {
      const Column& col = part.columns[c];
      Source& src = sources.emplace_back();
      src.column = &col;
      if (const Column::Dictionary* dict = col.dictionary()) {
        const auto [it, added] = quoted_.try_emplace(dict);
        if (added) it->second.assign(dict->size(), -1);
        src.dict = dict;
        src.codes = col.dictionary_codes().data();
        src.quoted = it->second.data();
      }
    }
    char num[64];
    for (std::size_t r = range.begin; r < range.end; ++r) {
      for (std::size_t k = 0; k < sources.size(); ++k) {
        if (k > 0) out += sep_;
        const Source& src = sources[k];
        const Column& col = *src.column;
        if (col.is_null(r)) continue;
        if (src.dict != nullptr) {
          const std::uint32_t code = src.codes[r];
          const std::string& cell = (*src.dict)[code];
          std::int8_t& quoted = src.quoted[code];
          if (quoted < 0) quoted = needs_quoting(cell, sep_) ? 1 : 0;
          if (quoted != 0) {
            append_quoted(out, cell);
          } else {
            out.append(cell);
          }
          continue;
        }
        switch (col.type()) {
          case ValueType::Null:
            break;
          case ValueType::Int64: {
            const auto res =
                std::to_chars(num, num + sizeof(num), col.int64_at(r));
            out.append(num, static_cast<std::size_t>(res.ptr - num));
            break;
          }
          case ValueType::Float64: {
            const auto res =
                std::to_chars(num, num + sizeof(num), col.float64_at(r),
                              std::chars_format::general, 9);
            out.append(num, static_cast<std::size_t>(res.ptr - num));
            break;
          }
          case ValueType::String:
            append_cell(out, col.string_at(r), sep_);
            break;
        }
      }
      out += '\n';
    }
  }

 private:
  const Table& table_;
  const std::vector<std::size_t>& columns_;
  char sep_;
  std::unordered_map<const Column::Dictionary*, std::vector<std::int8_t>>
      quoted_;
};

std::vector<std::size_t> all_columns(const Schema& schema) {
  std::vector<std::size_t> columns(schema.size());
  std::iota(columns.begin(), columns.end(), std::size_t{0});
  return columns;
}

}  // namespace

void append_csv(std::string& out, const Table& table,
                const std::vector<std::size_t>& columns,
                const std::vector<RowRange>& rows, const CsvOptions& options) {
  CsvWriter writer(table, columns, options);
  if (options.header) writer.header(out);
  for (const RowRange& range : rows) writer.rows(out, range);
}

void append_csv(std::string& out, const Table& table,
                const CsvOptions& options) {
  std::vector<RowRange> rows;
  rows.reserve(table.num_partitions());
  for (std::size_t p = 0; p < table.num_partitions(); ++p) {
    rows.push_back({p, 0, table.partition(p).num_rows()});
  }
  append_csv(out, table, all_columns(table.schema()), rows, options);
}

void write_csv(const Table& table, std::ostream& out,
               const CsvOptions& options) {
  // Rendered in blocks of rows, flushed once past 1 MiB, so a large
  // table never sits in memory twice. A block stays small even for a
  // wide table (180 state columns render ~1 KB per row).
  constexpr std::size_t kBlockRows = 256;
  constexpr std::size_t kFlushBytes = 1U << 20U;
  const std::vector<std::size_t> columns = all_columns(table.schema());
  CsvWriter writer(table, columns, options);
  std::string buf;
  if (options.header) writer.header(buf);
  for (std::size_t p = 0; p < table.num_partitions(); ++p) {
    const std::size_t n = table.partition(p).num_rows();
    for (std::size_t begin = 0; begin < n; begin += kBlockRows) {
      writer.rows(buf, {p, begin, std::min(n, begin + kBlockRows)});
      if (buf.size() >= kFlushBytes) {
        out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
        buf.clear();
      }
    }
  }
  out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
}

void write_csv_file(const Table& table, const std::string& path,
                    const CsvOptions& options) {
  std::ofstream out(path, std::ios::binary);
  if (!out) IVT_THROW(errors::Category::Io, "cannot open for write: " + path);
  write_csv(table, out, options);
  if (!out) IVT_THROW(errors::Category::Io, "write failed: " + path);
}

Table read_csv(std::istream& in, const Schema& schema,
               const CsvOptions& options, std::size_t target_partition_rows) {
  std::vector<std::string> record;
  std::size_t line = 0;
  if (options.header) {
    ++line;
    if (!read_record(in, options.separator, record)) {
      return Table(schema);
    }
    if (record.size() != schema.size()) {
      IVT_THROW(errors::Category::Format, "csv header width " +
                               std::to_string(record.size()) +
                               " does not match schema width " +
                               std::to_string(schema.size()));
    }
    for (std::size_t c = 0; c < schema.size(); ++c) {
      if (record[c] != schema.field(c).name) {
        IVT_THROW(errors::Category::Format, "csv header mismatch at column " +
                                 std::to_string(c) + ": got '" + record[c] +
                                 "', expected '" + schema.field(c).name + "'");
      }
    }
  }
  TableBuilder builder(schema, target_partition_rows);
  while (read_record(in, options.separator, record)) {
    ++line;
    if (record.size() == 1 && record[0].empty()) continue;  // blank line
    if (record.size() != schema.size()) {
      IVT_THROW(errors::Category::Format, "csv line " + std::to_string(line) +
                               ": width " + std::to_string(record.size()) +
                               " does not match schema width " +
                               std::to_string(schema.size()));
    }
    std::vector<Value> row;
    row.reserve(schema.size());
    for (std::size_t c = 0; c < schema.size(); ++c) {
      row.push_back(parse_cell(record[c], schema.field(c).type, line));
    }
    builder.append_row(std::move(row));
  }
  return builder.build();
}

Table read_csv_file(const std::string& path, const Schema& schema,
                    const CsvOptions& options,
                    std::size_t target_partition_rows) {
  std::ifstream in(path, std::ios::binary);
  if (!in) IVT_THROW(errors::Category::Io, "cannot open for read: " + path);
  return read_csv(in, schema, options, target_partition_rows);
}

}  // namespace ivt::dataflow
