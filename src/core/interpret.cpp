#include "core/interpret.hpp"

#include <algorithm>
#include <charconv>
#include <stdexcept>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "core/schemas.hpp"
#include "core/urel.hpp"
#include "dataflow/ops.hpp"
#include "protocol/bitcodec.hpp"
#include "tracefile/trace.hpp"

namespace ivt::core {

namespace {

using dataflow::Engine;
using dataflow::Partition;
using dataflow::RowView;
using dataflow::Schema;
using dataflow::Table;
using dataflow::Value;
using dataflow::ValueType;

/// Column indices of the joined table (left K_b fields + U_rel payload
/// fields), resolved once per operation.
struct JoinCols {
  std::size_t t, l, b_id, m_id, m_info;
  std::size_t s_id, start_bit, length, byte_order, value_kind, scale, offset;
  std::size_t categorical, presence_always, presence_start, presence_length;
  std::size_t presence_order, presence_equals;

  explicit JoinCols(const Schema& schema)
      : t(schema.require("t")),
        l(schema.require("l")),
        b_id(schema.require("b_id")),
        m_id(schema.require("m_id")),
        m_info(schema.require("m_info")),
        s_id(schema.require("s_id")),
        start_bit(schema.require("start_bit")),
        length(schema.require("length")),
        byte_order(schema.require("byte_order")),
        value_kind(schema.require("value_kind")),
        scale(schema.require("scale")),
        offset(schema.require("offset")),
        categorical(schema.require("categorical")),
        presence_always(schema.require("presence_always")),
        presence_start(schema.require("presence_start")),
        presence_length(schema.require("presence_length")),
        presence_order(schema.require("presence_order")),
        presence_equals(schema.require("presence_equals")) {}
};

protocol::ByteOrder order_from(std::int64_t code) {
  return code != 0 ? protocol::ByteOrder::Motorola
                   : protocol::ByteOrder::Intel;
}

/// Label lookup broadcast: s_id -> spec (for value tables).
std::unordered_map<std::string, const signaldb::SignalSpec*> broadcast_specs(
    const signaldb::Catalog* catalog) {
  std::unordered_map<std::string, const signaldb::SignalSpec*> map;
  if (catalog == nullptr) return map;
  for (const signaldb::MessageSpec& m : catalog->messages()) {
    for (const signaldb::SignalSpec& s : m.signals) {
      map.emplace(s.name, &s);
    }
  }
  return map;
}

}  // namespace

Table preselect(Engine& engine, const Table& kb, const Table& urel) {
  // Broadcast the relevant (b_id, m_id) set and filter K_b row-wise.
  struct KeyHash {
    std::size_t operator()(const MessageKey& k) const {
      return std::hash<std::string>{}(k.bus) * 31 +
             std::hash<std::int64_t>{}(k.message_id);
    }
  };
  std::unordered_set<MessageKey, KeyHash> keys;
  for (MessageKey& key : relevant_message_keys(urel)) {
    keys.insert(std::move(key));
  }
  const std::size_t b_col = kb.schema().require("b_id");
  const std::size_t m_col = kb.schema().require("m_id");
  return dataflow::filter(
      engine, kb,
      [&keys, b_col, m_col](const RowView& row) {
        return keys.contains(
            MessageKey{row.string_at(b_col), row.int64_at(m_col)});
      },
      "preselect");
}

Table preselect(Engine& engine, const colstore::ColumnarReader& reader,
                const Table& urel, colstore::ScanStats* stats) {
  return preselect(engine, reader, urel, colstore::ScanOptions{}, stats);
}

colstore::ScanPredicate urel_scan_predicate(const Table& urel) {
  colstore::ScanPredicate pred;
  for (MessageKey& key : relevant_message_keys(urel)) {
    pred.message_ids.push_back(key.message_id);
    pred.buses.push_back(key.bus);
    pred.bus_message_pairs.emplace_back(std::move(key.bus), key.message_id);
  }
  std::sort(pred.message_ids.begin(), pred.message_ids.end());
  pred.message_ids.erase(
      std::unique(pred.message_ids.begin(), pred.message_ids.end()),
      pred.message_ids.end());
  std::sort(pred.buses.begin(), pred.buses.end());
  pred.buses.erase(std::unique(pred.buses.begin(), pred.buses.end()),
                   pred.buses.end());
  return pred;
}

Table preselect(Engine& engine, const colstore::ColumnarReader& reader,
                const Table& urel, const colstore::ScanOptions& options,
                colstore::ScanStats* stats) {
  return reader.scan(urel_scan_predicate(urel), engine, options, stats);
}

namespace {

std::unordered_map<std::string, std::vector<BroadcastSpec>>
broadcast_urel(const Table& urel, const signaldb::Catalog* catalog) {
  const auto specs = broadcast_specs(catalog);
  std::unordered_map<std::string, std::vector<BroadcastSpec>> map;
  const Schema& schema = urel.schema();
  const std::size_t sid = schema.require("s_id");
  const std::size_t bus = schema.require("u_b_id");
  const std::size_t mid = schema.require("u_m_id");
  const std::size_t start = schema.require("start_bit");
  const std::size_t length = schema.require("length");
  const std::size_t order = schema.require("byte_order");
  const std::size_t kind = schema.require("value_kind");
  const std::size_t scale = schema.require("scale");
  const std::size_t offset = schema.require("offset");
  const std::size_t categorical = schema.require("categorical");
  const std::size_t p_always = schema.require("presence_always");
  const std::size_t p_start = schema.require("presence_start");
  const std::size_t p_length = schema.require("presence_length");
  const std::size_t p_order = schema.require("presence_order");
  const std::size_t p_equals = schema.require("presence_equals");
  urel.for_each_row([&](const RowView& row) {
    BroadcastSpec bs;
    bs.s_id = row.string_at(sid);
    bs.start_bit = static_cast<std::uint16_t>(row.int64_at(start));
    bs.length = static_cast<std::uint16_t>(row.int64_at(length));
    bs.order = order_from(row.int64_at(order));
    bs.value_kind =
        static_cast<signaldb::ValueKind>(row.int64_at(kind));
    bs.scale = row.float64_at(scale);
    bs.offset = row.float64_at(offset);
    bs.categorical = row.int64_at(categorical) != 0;
    bs.presence_always = row.int64_at(p_always) != 0;
    bs.presence_start = static_cast<std::uint16_t>(row.int64_at(p_start));
    bs.presence_length = static_cast<std::uint16_t>(row.int64_at(p_length));
    bs.presence_order = order_from(row.int64_at(p_order));
    bs.presence_equals =
        static_cast<std::uint64_t>(row.int64_at(p_equals));
    const auto it = specs.find(bs.s_id);
    bs.spec = it != specs.end() ? it->second : nullptr;
    map[row.string_at(bus) + '\x1F' + std::to_string(row.int64_at(mid))]
        .push_back(std::move(bs));
  });
  return map;
}

}  // namespace

bool decode_signal(const BroadcastSpec& bs,
                   std::span<const std::uint8_t> payload, double& value,
                   std::string& label) {
  if (!bs.presence_always) {
    if (!protocol::bit_field_fits(payload.size(), bs.presence_start,
                                  bs.presence_length, bs.presence_order)) {
      return false;
    }
    const std::uint64_t selector = protocol::extract_bits(
        payload, bs.presence_start, bs.presence_length, bs.presence_order);
    if (selector != bs.presence_equals) return false;
  }
  if (!protocol::bit_field_fits(payload.size(), bs.start_bit, bs.length,
                                bs.order)) {
    return false;
  }
  const std::uint64_t raw =
      protocol::extract_bits(payload, bs.start_bit, bs.length, bs.order);
  double raw_value = 0.0;
  switch (bs.value_kind) {
    case signaldb::ValueKind::Unsigned:
      raw_value = static_cast<double>(raw);
      break;
    case signaldb::ValueKind::Signed:
      raw_value = static_cast<double>(protocol::sign_extend(raw, bs.length));
      break;
    case signaldb::ValueKind::Float32:
      raw_value = static_cast<double>(
          protocol::raw_to_float32(static_cast<std::uint32_t>(raw)));
      break;
    case signaldb::ValueKind::Float64:
      raw_value = protocol::raw_to_float64(raw);
      break;
  }
  value = bs.scale * raw_value + bs.offset;
  if (bs.categorical) {
    const signaldb::ValueTableEntry* entry =
        bs.spec != nullptr ? bs.spec->find_label(raw) : nullptr;
    if (entry != nullptr) {
      label = entry->label;
    } else {
      label = "raw:" + std::to_string(raw);
    }
  }
  return true;
}

namespace {

/// The per-row emission body of the fused kernel (u1 + u2 on one
/// already-joined row), decoding through the shared decode_signal.
void emit_signals(const std::vector<BroadcastSpec>& specs, std::int64_t t,
                  const std::string& payload, const std::string& bus,
                  Partition& out) {
  const auto span = std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(payload.data()), payload.size());
  double value = 0.0;
  std::string label;
  for (const BroadcastSpec& bs : specs) {
    if (!decode_signal(bs, span, value, label)) continue;
    out.columns[0].append_int64(t);
    out.columns[1].append_string(bs.s_id);
    out.columns[2].append_float64(value);
    if (bs.categorical) {
      out.columns[3].append_string(std::move(label));
    } else {
      out.columns[3].append_null();
    }
    out.columns[4].append_string(bus);
  }
}

/// The error-frame bit of an m_info cell ("<protocol>:<flags>"). Only the
/// flags field is parsed: a corrupt row may carry a protocol byte without
/// a name ("unknown:<flags>"), and the streaming morsel kernel, which
/// tests the flags column directly, must reach the same verdict on it.
bool is_error_frame(std::string_view m_info) {
  const std::size_t colon = m_info.rfind(':');
  std::uint32_t flags = 0;
  const char* end = m_info.data() + m_info.size();
  const auto [ptr, ec] =
      colon == std::string_view::npos
          ? std::from_chars_result{end, std::errc::invalid_argument}
          : std::from_chars(m_info.data() + colon + 1, end, flags);
  if (ec != std::errc{} || ptr != end) {
    throw std::invalid_argument("bad m_info cell: '" + std::string(m_info) +
                                "'");
  }
  return (flags & tracefile::TraceRecord::kFlagErrorFrame) != 0;
}

}  // namespace

struct InterpretKernel::Impl {
  std::unordered_map<std::string, std::vector<BroadcastSpec>> broadcast;
  bool skip_error_frames = false;
};

InterpretKernel::InterpretKernel(const Table& urel,
                                 const InterpretOptions& options)
    : impl_(std::make_unique<Impl>()) {
  impl_->broadcast = broadcast_urel(urel, options.catalog);
  impl_->skip_error_frames = options.skip_error_frames;
}

InterpretKernel::~InterpretKernel() = default;

void InterpretKernel::interpret_partition(const Partition& in,
                                          const Schema& in_schema,
                                          Partition& out) const {
  const std::size_t t_col = in_schema.require("t");
  const std::size_t l_col = in_schema.require("l");
  const std::size_t b_col = in_schema.require("b_id");
  const std::size_t m_col = in_schema.require("m_id");
  const std::size_t info_col = in_schema.require("m_info");
  const auto& broadcast = impl_->broadcast;
  const bool skip_errors = impl_->skip_error_frames;

  const std::size_t n = in.num_rows();
  for (std::size_t r = 0; r < n; ++r) {
    const RowView row(&in_schema, &in, r);
    const auto it = broadcast.find(row.string_at(b_col) + '\x1F' +
                                   std::to_string(row.int64_at(m_col)));
    if (it == broadcast.end()) continue;
    if (skip_errors && is_error_frame(row.string_at(info_col))) continue;
    emit_signals(it->second, row.int64_at(t_col), row.string_at(l_col),
                 row.string_at(b_col), out);
  }
}

const std::vector<BroadcastSpec>* InterpretKernel::specs_for(
    const std::string& bus, std::int64_t message_id) const {
  const auto it =
      impl_->broadcast.find(bus + '\x1F' + std::to_string(message_id));
  return it != impl_->broadcast.end() ? &it->second : nullptr;
}

namespace {

/// Fused join ⨝ + u1 + u2: probe each K_pre row against the broadcast
/// U_comb and emit its signal instances directly, without materializing
/// the intermediate K_join table (the equivalent of Spark pipelining the
/// join into the following map stages).
Table interpret_fused(Engine& engine, const Table& kpre, const Table& urel,
                      const InterpretOptions& options) {
  const InterpretKernel kernel(urel, options);
  return engine.map_partitions(
      "interpret_fused_join_u1u2", kpre, ks_schema(),
      [&kernel, &kpre](const Partition& p, std::size_t) {
        Partition out = Table::make_partition(ks_schema());
        kernel.interpret_partition(p, kpre.schema(), out);
        return out;
      });
}

}  // namespace

Table interpret(Engine& engine, const Table& kpre, const Table& urel,
                const InterpretOptions& options) {
  if (!options.two_stage_interpretation) {
    return interpret_fused(engine, kpre, urel, options);
  }

  Table joined = dataflow::hash_join(engine, kpre, urel, {"b_id", "m_id"},
                                     {"u_b_id", "u_m_id"},
                                     dataflow::JoinType::Inner, "join_urel");

  const auto specs = broadcast_specs(options.catalog);
  const bool skip_errors = options.skip_error_frames;

  // Optional two-stage mode: F_u1 materializes the relevant payload bytes
  // l_rel as an extra column first (Algorithm 1 line 5), then F_u2
  // interprets them (line 6). The fused default applies u2(u1(row)) in one
  // pass without materializing K_join2.
  std::size_t lrel_col = 0;
  if (options.two_stage_interpretation) {
    const JoinCols cols(joined.schema());
    joined = dataflow::with_column(
        engine, joined, {"l_rel", ValueType::String},
        [cols](const RowView& row) -> Value {
          const std::string& payload = row.string_at(cols.l);
          const auto span = std::span<const std::uint8_t>(
              reinterpret_cast<const std::uint8_t*>(payload.data()),
              payload.size());
          const std::uint16_t start =
              static_cast<std::uint16_t>(row.int64_at(cols.start_bit));
          const std::uint16_t length =
              static_cast<std::uint16_t>(row.int64_at(cols.length));
          const protocol::ByteOrder order =
              order_from(row.int64_at(cols.byte_order));
          if (!protocol::bit_field_fits(span.size(), start, length, order)) {
            return Value{};
          }
          const std::uint64_t raw =
              protocol::extract_bits(span, start, length, order);
          // l_rel rendered as 8 raw bytes little-endian.
          std::string bytes(8, '\0');
          for (int i = 0; i < 8; ++i) {
            bytes[static_cast<std::size_t>(i)] =
                static_cast<char>((raw >> (8 * i)) & 0xFF);
          }
          return Value{std::move(bytes)};
        },
        "u1_extract_lrel");
    lrel_col = joined.schema().require("l_rel");
  }

  const JoinCols cols(joined.schema());
  const bool two_stage = options.two_stage_interpretation;

  return dataflow::map_rows(
      engine, joined, ks_schema(),
      [cols, &specs, skip_errors, two_stage, lrel_col](const RowView& row,
                                                       Partition& out) {
        if (skip_errors && is_error_frame(row.string_at(cols.m_info))) {
          return;
        }
        const std::string& payload = row.string_at(cols.l);
        const auto span = std::span<const std::uint8_t>(
            reinterpret_cast<const std::uint8_t*>(payload.data()),
            payload.size());

        // Presence condition (conditional members, e.g. SOME/IP).
        if (row.int64_at(cols.presence_always) == 0) {
          const std::uint16_t sel_start = static_cast<std::uint16_t>(
              row.int64_at(cols.presence_start));
          const std::uint16_t sel_len = static_cast<std::uint16_t>(
              row.int64_at(cols.presence_length));
          const protocol::ByteOrder sel_order =
              order_from(row.int64_at(cols.presence_order));
          if (!protocol::bit_field_fits(span.size(), sel_start, sel_len,
                                        sel_order)) {
            return;
          }
          const std::uint64_t selector =
              protocol::extract_bits(span, sel_start, sel_len, sel_order);
          if (selector !=
              static_cast<std::uint64_t>(
                  row.int64_at(cols.presence_equals))) {
            return;
          }
        }

        const std::uint16_t length =
            static_cast<std::uint16_t>(row.int64_at(cols.length));
        std::uint64_t raw = 0;
        if (two_stage) {
          if (row.is_null(lrel_col)) return;
          const std::string& bytes = row.string_at(lrel_col);
          for (int i = 0; i < 8; ++i) {
            raw |= static_cast<std::uint64_t>(static_cast<unsigned char>(
                       bytes[static_cast<std::size_t>(i)]))
                   << (8 * i);
          }
        } else {
          const std::uint16_t start =
              static_cast<std::uint16_t>(row.int64_at(cols.start_bit));
          const protocol::ByteOrder order =
              order_from(row.int64_at(cols.byte_order));
          if (!protocol::bit_field_fits(span.size(), start, length, order)) {
            return;
          }
          raw = protocol::extract_bits(span, start, length, order);
        }

        double raw_value = 0.0;
        switch (static_cast<signaldb::ValueKind>(
            row.int64_at(cols.value_kind))) {
          case signaldb::ValueKind::Unsigned:
            raw_value = static_cast<double>(raw);
            break;
          case signaldb::ValueKind::Signed:
            raw_value =
                static_cast<double>(protocol::sign_extend(raw, length));
            break;
          case signaldb::ValueKind::Float32:
            raw_value = static_cast<double>(
                protocol::raw_to_float32(static_cast<std::uint32_t>(raw)));
            break;
          case signaldb::ValueKind::Float64:
            raw_value = protocol::raw_to_float64(raw);
            break;
        }
        const double physical =
            row.float64_at(cols.scale) * raw_value +
            row.float64_at(cols.offset);

        const std::string& s_id = row.string_at(cols.s_id);
        out.columns[0].append_int64(row.int64_at(cols.t));
        out.columns[1].append_string(s_id);
        out.columns[2].append_float64(physical);
        if (row.int64_at(cols.categorical) != 0) {
          const auto it = specs.find(s_id);
          const signaldb::ValueTableEntry* entry =
              it != specs.end() ? it->second->find_label(raw) : nullptr;
          out.columns[3].append_string(entry != nullptr
                                           ? entry->label
                                           : "raw:" + std::to_string(raw));
        } else {
          out.columns[3].append_null();
        }
        out.columns[4].append_string(row.string_at(cols.b_id));
      },
      two_stage ? "u2_interpret" : "interpret_u1u2");
}

Table extract_signals(Engine& engine, const Table& kb, const Table& urel,
                      const InterpretOptions& options) {
  const Table kpre = preselect(engine, kb, urel);
  return interpret(engine, kpre, urel, options);
}

}  // namespace ivt::core
