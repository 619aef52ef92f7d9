// Morsel partials: the shared per-chunk unit of work and the order-stable
// merge that both streaming and distributed execution are built from.
//
// The streaming mode established the contract: morsel k is the k-th
// zone-map-surviving .ivc chunk in file order; fusing decode → preselect
// → interpret → bucket per morsel and merging the per-key segments sorted
// by (morsel, first-row) reconstructs exactly the batch split — so K_s,
// K_rep and the state representation come out byte-identical. This header
// extracts that machinery into value types that can also cross a process
// boundary: a distributed worker runs MorselProcessor::process(k) for its
// assigned chunk range, ships the resulting MorselPartials to the
// coordinator, and the coordinator feeds them through the very same
// merge_split_segments the in-process streaming path uses. Equivalence is
// then shared by construction — there is exactly one merge.
//
// Idempotence note for the distributed layer: a MorselPartial is a pure
// function of (trace file, U_comb, config, k). Re-executing a morsel on a
// different worker after a node death yields an identical partial, which
// is what makes "discard the dead worker's accumulators and re-assign"
// a safe recovery policy.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "colstore/chunk_cursor.hpp"
#include "colstore/columnar_reader.hpp"
#include "core/interpret.hpp"
#include "core/split.hpp"
#include "dataflow/table.hpp"
#include "errors/failure_log.hpp"

namespace ivt::core {

struct PipelineConfig;

/// One (s_id, b_id) run of K_s rows contributed by a single morsel,
/// tagged with everything the order-stable merge needs.
struct SplitSegment {
  std::size_t morsel = 0;
  std::size_t first_row = 0;  ///< morsel-local row of the key's first hit
  SequenceData data;
};

/// All segments of one morsel, in the bucket first-appearance order the
/// shared bucket_split_partition emits.
struct KeySegment {
  std::string key;  ///< split bucket key: s_id \x1F bus
  std::size_t first_row = 0;
  SequenceData data;
};

struct MorselPartial {
  std::size_t morsel = 0;
  std::size_t kpre_rows = 0;  ///< rows surviving preselection
  std::size_t ks_rows = 0;    ///< interpreted K_s rows
  std::vector<KeySegment> segments;
};

/// Split-accumulator shape shared by the streaming shards and the
/// distributed coordinator: per bucket key, that key's segments from any
/// subset of morsels, in any order (the merge sorts).
using KeyedSegments =
    std::unordered_map<std::string, std::vector<SplitSegment>>;

/// Move every segment of `partial` into `keyed` (partial is consumed).
void accumulate_partial(KeyedSegments& keyed, MorselPartial&& partial);

/// Order-stable merge shared by streaming and dist: per key, sort
/// segments by morsel and concatenate (morsel order == chunk order ==
/// batch partition order); order keys by (first morsel, first row) —
/// exactly the batch first-appearance order — then group into split
/// sequences. Consumes `keyed`.
SplitDataResult merge_split_segments(KeyedSegments&& keyed,
                                     const SplitOptions& options);

/// The fused decode → preselect → interpret → bucket stage for one
/// morsel, shared by streaming tasks (in-process) and dist workers
/// (remote). No K_b or K_s partition is built on the way: the cursor's
/// ChunkSelection is interpreted row by row through a per-file slot table
/// straight into per-(s_id, bus) SequenceData buckets. Construction
/// compiles the pushdown predicate and the slot table once; process(k) is
/// safe to call concurrently for distinct k (the cursor's contract).
class MorselProcessor {
 public:
  /// The reader, urel and config must outlive the processor. Scan-level
  /// failures (quarantined chunks under Skip/Quarantine) go to
  /// `failures` when non-null.
  MorselProcessor(const colstore::ColumnarReader& reader,
                  const dataflow::Table& urel, const PipelineConfig& config,
                  errors::FailureLog* failures);

  [[nodiscard]] std::size_t num_morsels() const {
    return cursor_.num_morsels();
  }

  /// Select + interpret + bucket morsel k. Segments come out in bucket
  /// first-appearance order, each tagged with the morsel-local K_s row of
  /// its first instance — exactly what interpret_partition followed by
  /// bucket_split_partition yields on cursor.decode(k). When `keep_ks` is
  /// non-null it receives the morsel's K_s partition in row order, rebuilt
  /// from the buckets (inspection mode).
  [[nodiscard]] MorselPartial process(
      std::size_t k, dataflow::Partition* keep_ks = nullptr) const;

  /// Scan statistics so far (pruning fixed at construction; quarantine
  /// counters reflect the morsels processed so far).
  [[nodiscard]] colstore::ScanStats stats() const { return cursor_.stats(); }

 private:
  /// One translation tuple of a slot, with the dense id of the
  /// (s_id, bus) bucket its instances land in.
  struct SlotSpec {
    const BroadcastSpec* spec = nullptr;
    std::uint32_t bucket = 0;
  };
  /// One bucket: the split key and the sequence identity, built once per
  /// file and copied once per morsel that touches the bucket.
  struct Bucket {
    std::string key;  ///< split_bucket_key(s_id, bus)
    std::string s_id;
    std::string bus;
  };
  struct PairHash {
    std::size_t operator()(
        const std::pair<std::uint16_t, std::int64_t>& p) const {
      return std::hash<std::int64_t>{}(p.second) * 8191 + p.first;
    }
  };
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  /// Slot of selected row i: the key-dictionary index on v2 files, the
  /// (bus index, message id) pair on v1 files. kNoSlot when U_comb has no
  /// translation tuple for the row's message.
  [[nodiscard]] std::uint32_t slot_of(const colstore::ChunkSelection& sel,
                                      std::size_t i) const;
  /// Append the slot of (bus, message id); kNoSlot when U_comb has none.
  std::uint32_t add_slot(std::uint16_t bus, std::int64_t message_id,
                         const std::vector<std::string>& buses,
                         std::unordered_map<std::string, std::uint32_t>&
                             bucket_ids);

  colstore::ChunkCursor cursor_;
  InterpretKernel kernel_;
  bool skip_error_frames_ = false;
  std::vector<std::vector<SlotSpec>> slots_;
  /// v2: key-dictionary index -> slot.
  std::vector<std::uint32_t> slot_of_key_;
  /// v1: (bus index, message id) -> slot.
  std::unordered_map<std::pair<std::uint16_t, std::int64_t>, std::uint32_t,
                     PairHash>
      slot_of_pair_;
  std::vector<Bucket> buckets_;
};

}  // namespace ivt::core
