// Morsel-level visitor API over a .ivc file, the streaming counterpart to
// the materializing ColumnarReader::scan.
//
// A cursor is created by ColumnarReader::cursor(pred, options): zone-map
// pruning runs once up front, and each surviving chunk becomes one
// *morsel* that the caller selects on demand — typically as one fused
// pipeline task per morsel — instead of materializing the whole K_b table
// before downstream stages start. Both accessors run the same selection
// walk under the same error policy (Fail / Skip / Quarantine with resync
// at the next chunk boundary): select(k) hands the surviving rows over as
// a ChunkSelection (the streaming kernel's input), decode(k) renders them
// as a K_b partition, and scan() is implemented on top of decode(), so
// the paths cannot drift.
//
// Ordering contract: morsel k corresponds to the k-th surviving chunk in
// file order, and select(k) / decode(k) keep that chunk's rows in file
// order. A consumer that keeps per-morsel results indexed by k therefore
// reconstructs exactly the partition order of scan().
//
// Thread safety: select() and decode() may be called concurrently for
// distinct k; all mutable state on this class is the relaxed-atomic
// quarantine/row counters below (no mutex, hence no IVT_GUARDED_BY
// contract to state), and the FailureLog behind ScanOptions locks
// internally. Everything else is written once in the constructor and
// read-only afterwards. The reader must outlive the cursor.
#pragma once

#include <atomic>
#include <cstddef>
#include <vector>

#include "colstore/chunk_decode.hpp"
#include "colstore/format.hpp"
#include "dataflow/table.hpp"

namespace ivt::colstore {

class ColumnarReader;

class ChunkCursor {
 public:
  /// Surviving (non-pruned) chunks == morsels available to decode.
  [[nodiscard]] std::size_t num_morsels() const { return survivors_.size(); }

  /// Original chunk index (file order) of morsel k.
  [[nodiscard]] std::size_t chunk_index(std::size_t k) const {
    return survivors_[k];
  }

  /// Encoded row count of morsel k, before the row filter (cheap: read
  /// from the chunk directory, no decode).
  [[nodiscard]] std::size_t morsel_row_count(std::size_t k) const;

  /// Select morsel k: the rows passing the compiled row filter, as
  /// column vectors (see ChunkSelection). Under ErrorPolicy::Fail a decode
  /// error propagates (with chunk context); under Skip/Quarantine the
  /// chunk is dropped — an empty selection is returned, the quarantine
  /// counters advance, and the failure is logged — so one corrupt chunk
  /// costs exactly its own rows.
  [[nodiscard]] ChunkSelection select(std::size_t k) const;

  /// Morsel k rendered as a filtered K_b partition: the rows select(k)
  /// keeps, under the same error policy, rendered straight from the
  /// decoded columns without an intermediate selection.
  [[nodiscard]] dataflow::Partition decode(std::size_t k) const;

  /// True when select() evaluates run-level (ScanMode::Compressed on a
  /// version >= 2 file); false means every morsel takes the decoded path.
  [[nodiscard]] bool compressed() const { return compressed_; }

  /// Scan statistics so far: pruning numbers are fixed at construction,
  /// rows_emitted / quarantine counters reflect the decodes done so far.
  [[nodiscard]] ScanStats stats() const;

 private:
  friend class ColumnarReader;
  ChunkCursor(const ColumnarReader& reader, const ScanPredicate& pred,
              ScanOptions options);

  /// Runs morsel k's selection walk into `sink` (decode span, fault
  /// site, row and run counters) under the error policy. False when
  /// Skip/Quarantine dropped the chunk; the sink's partial rows are then
  /// to be discarded.
  template <typename Sink>
  bool fill(std::size_t k, Sink& sink) const;

  const ColumnarReader* reader_;
  ScanOptions options_;
  detail::CompiledPredicate compiled_;
  bool compressed_ = false;
  std::vector<std::uint8_t> key_allowed_;  ///< per key-dict entry, if compressed_
  std::vector<std::size_t> survivors_;
  ScanStats prune_stats_;
  mutable std::atomic<std::size_t> chunks_quarantined_{0};
  mutable std::atomic<std::size_t> rows_quarantined_{0};
  mutable std::atomic<std::size_t> rows_emitted_{0};
  mutable std::atomic<std::size_t> runs_considered_{0};
  mutable std::atomic<std::size_t> runs_pruned_{0};
  mutable std::atomic<std::size_t> runs_accepted_{0};
};

}  // namespace ivt::colstore
