#include "dataflow/ops.hpp"

#include "errors/error.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <unordered_map>

namespace ivt::dataflow {

namespace {

/// Hashable, comparable multi-column key (boxed; join/group keys are small).
struct RowKey {
  std::vector<Value> parts;

  friend bool operator==(const RowKey& a, const RowKey& b) {
    return a.parts == b.parts;
  }
};

struct RowKeyHash {
  std::size_t operator()(const RowKey& k) const {
    std::size_t h = 0x9e3779b97f4a7c15ULL;
    for (const Value& v : k.parts) {
      h ^= v.hash() + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    }
    return h;
  }
};

RowKey make_key(const Partition& p, std::size_t row,
                const std::vector<std::size_t>& cols) {
  RowKey key;
  key.parts.reserve(cols.size());
  for (std::size_t c : cols) key.parts.push_back(p.columns[c].value_at(row));
  return key;
}

std::vector<std::size_t> resolve_columns(
    const Schema& schema, const std::vector<std::string>& names) {
  std::vector<std::size_t> idx;
  idx.reserve(names.size());
  for (const std::string& name : names) idx.push_back(schema.require(name));
  return idx;
}

void append_row(Partition& dst, const Partition& src, std::size_t row) {
  for (std::size_t c = 0; c < src.columns.size(); ++c) {
    dst.columns[c].append_from(src.columns[c], row);
  }
}

/// Three-way compare of two cells with nulls-first semantics.
int compare_cells(const Column& a, std::size_t ra, const Column& b,
                  std::size_t rb) {
  const bool na = a.is_null(ra);
  const bool nb = b.is_null(rb);
  if (na || nb) return static_cast<int>(nb) - static_cast<int>(na);
  const Value va = a.value_at(ra);
  const Value vb = b.value_at(rb);
  if (va == vb) return 0;
  return va < vb ? -1 : 1;
}

}  // namespace

Table filter(Engine& engine, const Table& in, const RowPredicate& pred,
             const std::string& stage_name) {
  return engine.map_partitions(
      stage_name, in, in.schema(),
      [&](const Partition& p, std::size_t) {
        Partition out = Table::make_partition(in.schema());
        const std::size_t n = p.num_rows();
        for (std::size_t r = 0; r < n; ++r) {
          if (pred(RowView(&in.schema(), &p, r))) append_row(out, p, r);
        }
        return out;
      });
}

Table project(Engine& engine, const Table& in,
              const std::vector<std::string>& columns) {
  const Schema out_schema = in.schema().select(columns);
  const std::vector<std::size_t> src_cols =
      resolve_columns(in.schema(), columns);
  return engine.map_partitions(
      "project", in, out_schema,
      [&](const Partition& p, std::size_t) {
        Partition out;
        out.columns.reserve(src_cols.size());
        for (const std::size_t src : src_cols) {
          out.columns.push_back(p.columns[src]);
        }
        return out;
      });
}

Table with_column(Engine& engine, const Table& in, const Field& field,
                  const std::function<Value(const RowView&)>& fn,
                  const std::string& stage_name) {
  const Schema out_schema = in.schema().with_field(field);
  return engine.map_partitions(
      stage_name, in, out_schema,
      [&](const Partition& p, std::size_t) {
        Partition out = Table::make_partition(out_schema);
        const std::size_t n = p.num_rows();
        for (std::size_t c = 0; c < p.columns.size(); ++c) {
          out.columns[c].reserve(n);
          for (std::size_t r = 0; r < n; ++r) {
            out.columns[c].append_from(p.columns[c], r);
          }
        }
        Column& added = out.columns.back();
        added.reserve(n);
        for (std::size_t r = 0; r < n; ++r) {
          added.append(fn(RowView(&in.schema(), &p, r)));
        }
        return out;
      });
}

Table map_rows(Engine& engine, const Table& in, const Schema& out_schema,
               const std::function<void(const RowView&, Partition&)>& emit,
               const std::string& stage_name) {
  return engine.map_partitions(
      stage_name, in, out_schema,
      [&](const Partition& p, std::size_t) {
        Partition out = Table::make_partition(out_schema);
        const std::size_t n = p.num_rows();
        for (std::size_t r = 0; r < n; ++r) {
          emit(RowView(&in.schema(), &p, r), out);
        }
        return out;
      });
}

Table hash_join(Engine& engine, const Table& left, const Table& right,
                const std::vector<std::string>& left_keys,
                const std::vector<std::string>& right_keys,
                JoinType type, const std::string& stage_name) {
  if (left_keys.size() != right_keys.size() || left_keys.empty()) {
    IVT_THROW(errors::Category::Spec, "hash_join: key lists must be non-empty and "
                                "of equal length");
  }
  const std::vector<std::size_t> lkeys =
      resolve_columns(left.schema(), left_keys);
  const std::vector<std::size_t> rkeys =
      resolve_columns(right.schema(), right_keys);

  // Output schema: left fields + right non-key fields.
  std::vector<std::size_t> right_payload_cols;
  std::vector<Field> out_fields = left.schema().fields();
  for (std::size_t c = 0; c < right.schema().size(); ++c) {
    if (std::find(rkeys.begin(), rkeys.end(), c) != rkeys.end()) continue;
    const Field& f = right.schema().field(c);
    if (left.schema().contains(f.name)) {
      IVT_THROW(errors::Category::Spec, "hash_join: output name clash on '" +
                                  f.name + "'");
    }
    out_fields.push_back(f);
    right_payload_cols.push_back(c);
  }
  const Schema out_schema{std::move(out_fields)};

  // Build side: hash every right row by key. Row ids are (partition, row)
  // flattened in logical order so probe output is deterministic.
  struct RightRef {
    const Partition* partition;
    std::size_t row;
  };
  std::unordered_map<RowKey, std::vector<RightRef>, RowKeyHash> build;
  build.reserve(right.num_rows());
  for (const Partition& p : right.partitions()) {
    const std::size_t n = p.num_rows();
    for (std::size_t r = 0; r < n; ++r) {
      build[make_key(p, r, rkeys)].push_back(RightRef{&p, r});
    }
  }

  return engine.map_partitions(
      stage_name, left, out_schema,
      [&](const Partition& p, std::size_t) {
        Partition out = Table::make_partition(out_schema);
        const std::size_t n = p.num_rows();
        const std::size_t left_width = left.schema().size();
        for (std::size_t r = 0; r < n; ++r) {
          const auto it = build.find(make_key(p, r, lkeys));
          if (it == build.end()) {
            if (type == JoinType::LeftOuter) {
              for (std::size_t c = 0; c < left_width; ++c) {
                out.columns[c].append_from(p.columns[c], r);
              }
              for (std::size_t c = left_width; c < out.columns.size(); ++c) {
                out.columns[c].append_null();
              }
            }
            continue;
          }
          for (const RightRef& ref : it->second) {
            for (std::size_t c = 0; c < left_width; ++c) {
              out.columns[c].append_from(p.columns[c], r);
            }
            for (std::size_t j = 0; j < right_payload_cols.size(); ++j) {
              out.columns[left_width + j].append_from(
                  ref.partition->columns[right_payload_cols[j]], ref.row);
            }
          }
        }
        return out;
      });
}

Table union_all(const Table& a, const Table& b) {
  if (a.schema() != b.schema()) {
    IVT_THROW(errors::Category::Spec, "union_all: schema mismatch (" +
                                a.schema().to_display_string() + " vs " +
                                b.schema().to_display_string() + ")");
  }
  Table out(a.schema());
  auto copy_parts = [&out](const Table& t) {
    for (const Partition& p : t.partitions()) {
      Partition copy = Table::make_partition(t.schema());
      const std::size_t n = p.num_rows();
      for (std::size_t r = 0; r < n; ++r) append_row(copy, p, r);
      out.add_partition(std::move(copy));
    }
  };
  copy_parts(a);
  copy_parts(b);
  return out;
}

Table sort_by(Engine& engine, const Table& in,
              const std::vector<SortKey>& keys,
              const std::string& stage_name) {
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::size_t> key_cols;
  std::vector<bool> ascending;
  for (const SortKey& k : keys) {
    key_cols.push_back(in.schema().require(k.column));
    ascending.push_back(k.ascending);
  }

  struct Ref {
    const Partition* partition;
    std::size_t row;
    std::size_t logical;  // global position, tie-breaker for stability
  };
  std::vector<Ref> refs;
  refs.reserve(in.num_rows());
  std::size_t logical = 0;
  for (const Partition& p : in.partitions()) {
    const std::size_t n = p.num_rows();
    for (std::size_t r = 0; r < n; ++r) refs.push_back(Ref{&p, r, logical++});
  }

  std::sort(refs.begin(), refs.end(), [&](const Ref& a, const Ref& b) {
    for (std::size_t k = 0; k < key_cols.size(); ++k) {
      const int cmp = compare_cells(a.partition->columns[key_cols[k]], a.row,
                                    b.partition->columns[key_cols[k]], b.row);
      if (cmp != 0) return ascending[k] ? cmp < 0 : cmp > 0;
    }
    return a.logical < b.logical;
  });

  const std::size_t parts = std::max<std::size_t>(
      1, std::min(engine.default_partitions(),
                  refs.empty() ? 1 : refs.size()));
  std::size_t per = (refs.size() + parts - 1) / parts;
  if (per == 0) per = 1;
  TableBuilder builder(in.schema(), per);
  for (const Ref& ref : refs) {
    Partition& dst = builder.current_partition();
    append_row(dst, *ref.partition, ref.row);
    builder.commit_row();
  }
  Table out = builder.build();
  const auto end = std::chrono::steady_clock::now();
  engine.record_stage(
      {stage_name, 1, in.num_rows(), out.num_rows(),
       std::chrono::duration<double, std::milli>(end - start).count()});
  return out;
}

Table distinct(Engine& engine, const Table& in,
               const std::vector<std::string>& key_columns) {
  const auto start = std::chrono::steady_clock::now();
  const std::vector<std::size_t> key_cols =
      resolve_columns(in.schema(), key_columns);
  std::unordered_map<RowKey, bool, RowKeyHash> seen;
  TableBuilder builder(in.schema(), 0);
  for (const Partition& p : in.partitions()) {
    const std::size_t n = p.num_rows();
    for (std::size_t r = 0; r < n; ++r) {
      if (seen.emplace(make_key(p, r, key_cols), true).second) {
        Partition& dst = builder.current_partition();
        append_row(dst, p, r);
        builder.commit_row();
      }
    }
  }
  Table out = builder.build().repartitioned(engine.default_partitions());
  const auto end = std::chrono::steady_clock::now();
  engine.record_stage(
      {"distinct", 1, in.num_rows(), out.num_rows(),
       std::chrono::duration<double, std::milli>(end - start).count()});
  return out;
}

namespace {

struct AggState {
  std::size_t count = 0;
  double sum = 0.0;
  Value min;
  Value max;
  Value first;
  Value last;
  bool has_value = false;
};

ValueType agg_output_type(const Aggregation& agg, const Schema& in_schema) {
  switch (agg.op) {
    case AggOp::Count:
      return ValueType::Int64;
    case AggOp::Sum:
    case AggOp::Mean:
      return ValueType::Float64;
    case AggOp::Min:
    case AggOp::Max:
    case AggOp::First:
    case AggOp::Last:
      return in_schema.field(in_schema.require(agg.column)).type;
  }
  return ValueType::Null;
}

}  // namespace

Table group_by(Engine& engine, const Table& in,
               const std::vector<std::string>& key_columns,
               const std::vector<Aggregation>& aggs) {
  const auto start = std::chrono::steady_clock::now();
  const std::vector<std::size_t> key_cols =
      resolve_columns(in.schema(), key_columns);
  std::vector<std::size_t> agg_cols;
  for (const Aggregation& a : aggs) {
    agg_cols.push_back(a.op == AggOp::Count
                           ? std::numeric_limits<std::size_t>::max()
                           : in.schema().require(a.column));
  }

  // Phase 1: parallel per-partition partial aggregation.
  struct PartialGroups {
    std::vector<RowKey> order;  // first-occurrence order within partition
    std::unordered_map<RowKey, std::vector<AggState>, RowKeyHash> states;
  };
  std::vector<PartialGroups> partials(in.num_partitions());
  engine.parallel_for(in.num_partitions(), [&](std::size_t pi) {
    const Partition& p = in.partition(pi);
    PartialGroups& pg = partials[pi];
    const std::size_t n = p.num_rows();
    for (std::size_t r = 0; r < n; ++r) {
      RowKey key = make_key(p, r, key_cols);
      auto [it, inserted] =
          pg.states.try_emplace(std::move(key), aggs.size());
      if (inserted) pg.order.push_back(it->first);
      for (std::size_t a = 0; a < aggs.size(); ++a) {
        AggState& st = it->second[a];
        ++st.count;
        if (aggs[a].op == AggOp::Count) continue;
        const Column& col = p.columns[agg_cols[a]];
        if (col.is_null(r)) continue;
        const Value v = col.value_at(r);
        if (v.type() != ValueType::String) st.sum += v.as_number();
        if (!st.has_value) {
          st.min = v;
          st.max = v;
          st.first = v;
          st.has_value = true;
        } else {
          if (v < st.min) st.min = v;
          if (st.max < v) st.max = v;
        }
        st.last = v;
      }
    }
  });

  // Phase 2: deterministic merge in partition order.
  std::vector<RowKey> order;
  std::unordered_map<RowKey, std::vector<AggState>, RowKeyHash> merged;
  for (PartialGroups& pg : partials) {
    for (RowKey& key : pg.order) {
      auto partial_it = pg.states.find(key);
      auto [it, inserted] = merged.try_emplace(key, aggs.size());
      if (inserted) order.push_back(key);
      for (std::size_t a = 0; a < aggs.size(); ++a) {
        AggState& dst = it->second[a];
        const AggState& src = partial_it->second[a];
        dst.count += src.count;
        dst.sum += src.sum;
        if (src.has_value) {
          if (!dst.has_value) {
            dst.min = src.min;
            dst.max = src.max;
            dst.first = src.first;
            dst.last = src.last;
            dst.has_value = true;
          } else {
            if (src.min < dst.min) dst.min = src.min;
            if (dst.max < src.max) dst.max = src.max;
            dst.last = src.last;
          }
        }
      }
    }
  }

  std::vector<Field> out_fields;
  for (std::size_t k = 0; k < key_columns.size(); ++k) {
    out_fields.push_back(in.schema().field(key_cols[k]));
  }
  for (const Aggregation& a : aggs) {
    out_fields.push_back(Field{a.output_name, agg_output_type(a, in.schema())});
  }
  TableBuilder builder(Schema{std::move(out_fields)}, 0);
  for (const RowKey& key : order) {
    const std::vector<AggState>& states = merged.at(key);
    std::vector<Value> row = key.parts;
    for (std::size_t a = 0; a < aggs.size(); ++a) {
      const AggState& st = states[a];
      switch (aggs[a].op) {
        case AggOp::Count:
          row.emplace_back(static_cast<std::int64_t>(st.count));
          break;
        case AggOp::Sum:
          row.emplace_back(st.sum);
          break;
        case AggOp::Mean:
          row.emplace_back(st.count > 0 ? st.sum / static_cast<double>(st.count)
                                        : 0.0);
          break;
        case AggOp::Min:
          row.push_back(st.min);
          break;
        case AggOp::Max:
          row.push_back(st.max);
          break;
        case AggOp::First:
          row.push_back(st.first);
          break;
        case AggOp::Last:
          row.push_back(st.last);
          break;
      }
    }
    builder.append_row(std::move(row));
  }
  Table out = builder.build();
  const auto end = std::chrono::steady_clock::now();
  engine.record_stage(
      {"group_by", in.num_partitions(), in.num_rows(), out.num_rows(),
       std::chrono::duration<double, std::milli>(end - start).count()});
  return out;
}

Table with_lag(Engine& engine, const Table& in,
               const std::vector<std::string>& group_columns,
               const std::string& value_column,
               const std::string& output_name) {
  const auto start = std::chrono::steady_clock::now();
  const std::vector<std::size_t> group_cols =
      resolve_columns(in.schema(), group_columns);
  const std::size_t value_col = in.schema().require(value_column);
  const ValueType value_type = in.schema().field(value_col).type;
  const Schema out_schema =
      in.schema().with_field(Field{output_name, value_type});

  std::unordered_map<RowKey, Value, RowKeyHash> last_value;
  TableBuilder builder(out_schema, 0);
  for (const Partition& p : in.partitions()) {
    const std::size_t n = p.num_rows();
    for (std::size_t r = 0; r < n; ++r) {
      Partition& dst = builder.current_partition();
      for (std::size_t c = 0; c < p.columns.size(); ++c) {
        dst.columns[c].append_from(p.columns[c], r);
      }
      const RowKey key = make_key(p, r, group_cols);
      auto it = last_value.find(key);
      dst.columns.back().append(it == last_value.end() ? Value{} : it->second);
      last_value[key] = p.columns[value_col].value_at(r);
      builder.commit_row();
    }
  }
  Table out = builder.build().repartitioned(engine.default_partitions());
  const auto end = std::chrono::steady_clock::now();
  engine.record_stage(
      {"with_lag", 1, in.num_rows(), out.num_rows(),
       std::chrono::duration<double, std::milli>(end - start).count()});
  return out;
}

}  // namespace ivt::dataflow
