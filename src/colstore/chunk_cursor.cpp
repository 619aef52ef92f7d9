#include "colstore/chunk_cursor.hpp"

#include <string>
#include <utility>

#include "colstore/columnar_reader.hpp"
#include "errors/error.hpp"
#include "faultfx/faultfx.hpp"
#include "obs/obs.hpp"
#include "tracefile/trace.hpp"

namespace ivt::colstore {

ChunkCursor::ChunkCursor(const ColumnarReader& reader,
                         const ScanPredicate& pred, ScanOptions options)
    : reader_(&reader),
      options_(options),
      compiled_(detail::compile_predicate(pred, reader.bus_names())),
      compressed_(options.mode == ScanMode::Compressed &&
                  reader.version() >= 2) {
  if (compressed_ && !compiled_.never_matches) {
    // The run-constant conjuncts fold into one bitmap per file — every
    // chunk's key runs test against it, so pay the hash probes once here.
    key_allowed_ = detail::compile_key_filter(compiled_, reader.key_dict());
  }
  const std::vector<ChunkInfo>& chunks = reader.chunks();
  prune_stats_.chunks_total = chunks.size();
  if (!compiled_.never_matches) {
    const std::vector<std::uint16_t> bus_indices =
        detail::prune_bus_indices(pred, reader.bus_names());
    for (std::size_t i = 0; i < chunks.size(); ++i) {
      if (chunk_may_match(chunks[i], pred, bus_indices)) {
        survivors_.push_back(i);
      }
    }
  }
  prune_stats_.chunks_scanned = survivors_.size();
  std::uint64_t decoded_bytes = 0;
  for (const std::size_t i : survivors_) {
    prune_stats_.rows_considered += chunks[i].row_count;
    decoded_bytes += chunks[i].encoded_bytes;
  }
  std::uint64_t total_bytes = 0;
  for (const ChunkInfo& c : chunks) total_bytes += c.encoded_bytes;
  OBS_COUNT("colstore.chunks_total", prune_stats_.chunks_total);
  OBS_COUNT("colstore.chunks_decoded", prune_stats_.chunks_scanned);
  OBS_COUNT("colstore.chunks_pruned",
            prune_stats_.chunks_total - prune_stats_.chunks_scanned);
  OBS_COUNT("colstore.bytes_decoded", decoded_bytes);
  OBS_COUNT("colstore.bytes_skipped", total_bytes - decoded_bytes);
}

std::size_t ChunkCursor::morsel_row_count(std::size_t k) const {
  return reader_->chunk(survivors_[k]).row_count;
}

template <typename Sink>
bool ChunkCursor::fill(std::size_t k, Sink& sink) const {
  const std::size_t chunk_index = survivors_[k];
  const ChunkInfo& info = reader_->chunk(chunk_index);
  const auto walk = [&] {
    OBS_SPAN_V(chunk_span, "colstore.decode_chunk");
    FAULT_POINT("colstore.decode_chunk");
    chunk_span.set_bytes(info.encoded_bytes);
    chunk_span.set_rows(info.row_count);
    if (compressed_) {
      ScanStats local;
      detail::select_compressed(reader_->buffer(), info,
                                reader_->bus_names().size(),
                                reader_->key_dict(), key_allowed_, compiled_,
                                local, sink);
      runs_considered_.fetch_add(local.runs_considered,
                                 std::memory_order_relaxed);
      runs_pruned_.fetch_add(local.runs_pruned, std::memory_order_relaxed);
      runs_accepted_.fetch_add(local.runs_accepted,
                               std::memory_order_relaxed);
      OBS_COUNT("colstore.runs_pruned", local.runs_pruned);
      OBS_COUNT("colstore.runs_accepted", local.runs_accepted);
    } else {
      const detail::DecodedChunk chunk = detail::decode_columns(
          reader_->buffer(), info, reader_->version(),
          reader_->bus_names().size(), reader_->key_dict());
      detail::select_decoded(chunk, info.row_count, compiled_, sink);
      OBS_COUNT("colstore.runs_decoded", 1);
    }
    rows_emitted_.fetch_add(sink.size(), std::memory_order_relaxed);
  };
  if (options_.on_error == errors::ErrorPolicy::Fail) {
    errors::with_context("decoding chunk " + std::to_string(chunk_index) +
                             " @ offset " + std::to_string(info.offset),
                         walk);
    return true;
  }
  try {
    walk();
    return true;
  } catch (const errors::Error& e) {
    if (e.severity() == errors::Severity::Fatal) throw;
    // Skip/Quarantine: drop the chunk and resync to the next one. The
    // chunk directory gives every neighbour's extent, so a corrupt body
    // costs exactly its own rows.
    chunks_quarantined_.fetch_add(1, std::memory_order_relaxed);
    rows_quarantined_.fetch_add(info.row_count, std::memory_order_relaxed);
    OBS_COUNT("colstore.chunks_quarantined", 1);
    if (options_.failures != nullptr) {
      options_.failures->add(
          "colstore.decode_chunk",
          "chunk " + std::to_string(chunk_index) + " @ offset " +
              std::to_string(info.offset) + " (" +
              std::to_string(info.row_count) + " rows)",
          e);
    }
    return false;
  }
}

ChunkSelection ChunkCursor::select(std::size_t k) const {
  ChunkSelection out;
  detail::SelectionSink sink(out);
  if (!fill(k, sink)) return ChunkSelection{};
  return out;
}

dataflow::Partition ChunkCursor::decode(std::size_t k) const {
  detail::KbPartitionSink sink(reader_->bus_names());
  if (!fill(k, sink)) {
    return dataflow::Table::make_partition(tracefile::kb_schema());
  }
  return sink.take();
}

ScanStats ChunkCursor::stats() const {
  ScanStats out = prune_stats_;
  out.chunks_quarantined = chunks_quarantined_.load(std::memory_order_relaxed);
  out.rows_quarantined = rows_quarantined_.load(std::memory_order_relaxed);
  out.rows_emitted = rows_emitted_.load(std::memory_order_relaxed);
  out.runs_considered = runs_considered_.load(std::memory_order_relaxed);
  out.runs_pruned = runs_pruned_.load(std::memory_order_relaxed);
  out.runs_accepted = runs_accepted_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace ivt::colstore
