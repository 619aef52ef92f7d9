// CSV import/export for tables (results database surrogate).
//
// The paper's pipeline "writes the results to the database"; in this repo
// the sink is a CSV/TSV file. Quoting follows RFC 4180 (quotes doubled,
// fields containing separator/quote/newline quoted).
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "dataflow/table.hpp"

namespace ivt::dataflow {

struct CsvOptions {
  char separator = ',';
  bool header = true;
};

/// Rows [begin, end) of partition `partition`.
struct RowRange {
  std::size_t partition = 0;
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// Append `table` as CSV to `out`, in logical row order. Int64 cells
/// render as `%lld` and Float64 cells as `%.9g` would (through
/// std::to_chars); a dictionary-coded column decides quoting once per
/// dictionary entry.
void append_csv(std::string& out, const Table& table,
                const CsvOptions& options = {});

/// Append part of `table` as CSV to `out`: the fields `columns` (schema
/// indices, in output order) of the rows in `rows`, range by range. The
/// bytes equal append_csv of the table that a filter to those rows and a
/// project to those columns would build.
void append_csv(std::string& out, const Table& table,
                const std::vector<std::size_t>& columns,
                const std::vector<RowRange>& rows,
                const CsvOptions& options = {});

/// Write `table` to `out` in logical row order (the bytes of append_csv).
void write_csv(const Table& table, std::ostream& out,
               const CsvOptions& options = {});

/// Convenience: write to a file path. Throws std::runtime_error on I/O
/// failure.
void write_csv_file(const Table& table, const std::string& path,
                    const CsvOptions& options = {});

/// Read a CSV with the given schema (header row validated when
/// options.header). Cells parse according to the schema field type; empty
/// cells become null. Throws std::runtime_error on malformed input.
Table read_csv(std::istream& in, const Schema& schema,
               const CsvOptions& options = {},
               std::size_t target_partition_rows = 0);

Table read_csv_file(const std::string& path, const Schema& schema,
                    const CsvOptions& options = {},
                    std::size_t target_partition_rows = 0);

}  // namespace ivt::dataflow
