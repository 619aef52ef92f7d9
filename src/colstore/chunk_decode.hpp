// Internal decode machinery of the .ivc container, shared between the
// materializing ColumnarReader::scan path and the morsel-driven
// ChunkCursor. Not part of the public colstore API.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "colstore/encoding.hpp"
#include "colstore/format.hpp"
#include "dataflow/table.hpp"
#include "tracefile/trace.hpp"

namespace ivt::colstore::detail {

/// Row-level filter compiled against one file's bus dictionary.
struct CompiledPredicate {
  bool never_matches = false;
  bool has_ids = false;
  std::unordered_set<std::int64_t> ids;
  bool has_buses = false;
  std::vector<std::uint8_t> bus_allowed;  ///< indexed by dictionary index
  bool has_time_range = false;
  std::int64_t min_t_ns = 0;
  std::int64_t max_t_ns = 0;
  bool has_pairs = false;
  struct PairHash {
    std::size_t operator()(
        const std::pair<std::uint16_t, std::int64_t>& p) const {
      return std::hash<std::int64_t>{}(p.second) * 8191 + p.first;
    }
  };
  std::unordered_set<std::pair<std::uint16_t, std::int64_t>, PairHash> pairs;

  [[nodiscard]] bool matches_row(std::uint16_t bus, std::int64_t mid,
                                 std::int64_t t) const {
    if (has_time_range && (t < min_t_ns || t > max_t_ns)) return false;
    if (has_ids && !ids.contains(mid)) return false;
    if (has_buses && bus_allowed[bus] == 0) return false;
    if (has_pairs && !pairs.contains({bus, mid})) return false;
    return true;
  }
};

CompiledPredicate compile_predicate(const ScanPredicate& pred,
                                    const std::vector<std::string>& buses);

/// Dictionary indices the predicate's bus constraint resolves to (for the
/// zone-map bitmap test). Pairs contribute only when no plain bus set is
/// given — with both present the plain set is the looser prune bound.
std::vector<std::uint16_t> prune_bus_indices(
    const ScanPredicate& pred, const std::vector<std::string>& buses);

/// Decoded column vectors of one chunk.
struct DecodedChunk {
  std::vector<std::int64_t> t_ns;
  std::vector<std::uint64_t> bus_idx;
  std::vector<std::uint64_t> protocol;
  std::vector<std::int64_t> message_id;
  std::vector<std::uint64_t> flags;
  std::vector<std::uint64_t> payload_len;
  std::vector<std::uint64_t> key_idx;  ///< v2 only; empty for v1
  ByteSpan payload;
};

/// Decode every column of one chunk. For version >= 2 the key_idx column
/// is decoded too and cross-checked row-wise against the key dictionary
/// and the bus/message-id columns (a disagreement is a typed decode
/// error — it would make the compressed and decoded paths diverge).
DecodedChunk decode_columns(const std::string& data, const ChunkInfo& info,
                            std::uint32_t version, std::size_t num_buses,
                            const std::vector<KeyDictEntry>& key_dict);

/// Receivers of the rows a scan path selects, in file order. The two
/// selection walks below make every row decision; a sink only stores what
/// passes. Interface: begin(payload block, max rows, keyed) once, then
/// add(...) per selected row; `key` is meaningful when keyed (v2 file),
/// `bus` / `message_id` always.
///
/// SelectionSink fills the ChunkSelection the morsel kernel interprets.
class SelectionSink {
 public:
  explicit SelectionSink(ChunkSelection& out) : out_(out) {}
  void begin(std::span<const std::uint8_t> payload, std::size_t max_rows,
             bool keyed) {
    out_.payload = payload;
    keyed_ = keyed;
    out_.t_ns.reserve(max_rows);
    out_.protocol.reserve(max_rows);
    out_.flags.reserve(max_rows);
    out_.payload_begin.reserve(max_rows);
    out_.payload_len.reserve(max_rows);
    if (keyed) {
      out_.key.reserve(max_rows);
    } else {
      out_.bus.reserve(max_rows);
      out_.message_id.reserve(max_rows);
    }
  }
  void add(std::int64_t t, std::uint8_t protocol, std::uint32_t flags,
           std::uint32_t payload_begin, std::uint32_t payload_len,
           std::uint32_t key, std::uint16_t bus, std::int64_t message_id) {
    out_.t_ns.push_back(t);
    out_.protocol.push_back(protocol);
    out_.flags.push_back(flags);
    out_.payload_begin.push_back(payload_begin);
    out_.payload_len.push_back(payload_len);
    if (keyed_) {
      out_.key.push_back(key);
    } else {
      out_.bus.push_back(bus);
      out_.message_id.push_back(message_id);
    }
  }
  [[nodiscard]] std::size_t size() const { return out_.size(); }

 private:
  ChunkSelection& out_;
  bool keyed_ = false;
};

/// KbPartitionSink renders each selected row straight into a K_b-schema
/// partition: the one K_b renderer behind the batch scan,
/// ChunkCursor::decode and scan_chunk_from_bytes. No intermediate
/// selection is built on that path.
class KbPartitionSink {
 public:
  explicit KbPartitionSink(const std::vector<std::string>& buses);
  void begin(std::span<const std::uint8_t> payload,
             std::size_t /*max_rows*/, bool /*keyed*/) {
    payload_ = payload;
  }
  void add(std::int64_t t, std::uint8_t protocol, std::uint32_t flags,
           std::uint32_t payload_begin, std::uint32_t payload_len,
           std::uint32_t /*key*/, std::uint16_t bus,
           std::int64_t message_id) {
    out_.columns[0].append_int64(t);
    out_.columns[1].append_string(std::string(
        reinterpret_cast<const char*>(payload_.data()) + payload_begin,
        payload_len));
    out_.columns[2].append_string((*buses_)[bus]);
    out_.columns[3].append_int64(message_id);
    out_.columns[4].append_string(tracefile::make_m_info(
        static_cast<protocol::Protocol>(protocol), flags));
  }
  [[nodiscard]] std::size_t size() const { return out_.num_rows(); }
  [[nodiscard]] dataflow::Partition take() { return std::move(out_); }

 private:
  const std::vector<std::string>* buses_;
  std::span<const std::uint8_t> payload_;
  dataflow::Partition out_;
};

/// The decoded-path selection: the rows of `chunk` that pass the compiled
/// row filter, handed to `sink`. Shared by ChunkCursor (file-buffer path)
/// and scan_chunk_from_bytes (cache path) so the two cannot drift.
/// Instantiated for SelectionSink and KbPartitionSink.
template <typename Sink>
void select_decoded(const DecodedChunk& chunk, std::uint32_t row_count,
                    const CompiledPredicate& compiled, Sink& sink);

/// Dictionary form of the predicate's run-constant conjuncts: entry k is
/// nonzero when (key_dict[k].bus_index, key_dict[k].message_id) passes the
/// bus/id/pair checks of `compiled` — everything except the time range,
/// which can split a run and stays row-level. Evaluated once per file.
std::vector<std::uint8_t> compile_key_filter(
    const CompiledPredicate& compiled,
    const std::vector<KeyDictEntry>& key_dict);

/// The compressed (run-level) evaluation of one v2 chunk: walk the
/// key_idx RLE runs, skip rejected runs by advancing the column cursors
/// (the bus and message-id blocks are never decoded at all — both values
/// come from the dictionary), and select accepted runs row by row with
/// only the time-range check left to apply. Hands `sink` exactly the rows,
/// in exactly the order, of decode_columns + select_decoded under the
/// same predicate. `stats` receives the run counters. Instantiated for
/// SelectionSink and KbPartitionSink.
template <typename Sink>
void select_compressed(const std::string& data, const ChunkInfo& info,
                       std::size_t num_buses,
                       const std::vector<KeyDictEntry>& key_dict,
                       const std::vector<std::uint8_t>& key_allowed,
                       const CompiledPredicate& compiled, ScanStats& stats,
                       Sink& sink);

}  // namespace ivt::colstore::detail
