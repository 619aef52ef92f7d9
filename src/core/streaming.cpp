// Streaming morsel-driven execution of Algorithm 1 lines 2–9.
//
// The batch path materializes the full K_b scan, then runs preselect /
// interpret / split as separate engine stages with a barrier between
// each. Here the same work is re-fused per chunk: every surviving .ivc
// chunk becomes one morsel task that selects the rows matching U_comb
// (preselection), interprets them and buckets the instances straight
// into per-signal sequences, appended to hash-sharded split accumulators
// — so no K_b or K_s table ever materializes, and bounded task admission
// caps how many decoded morsels exist at once.
//
// Equivalence with batch is by construction, not by luck:
//  * the per-morsel compute is the shared core::MorselProcessor (compiled
//    pushdown predicate + per-file slot table + the decode_signal the
//    batch interpret stage also uses; tests/core/morsel_kernel_test pins
//    it against interpret_partition + bucket_split_partition per morsel),
//  * morsel index k == batch partition index k (chunk order), and the
//    shared core::merge_split_segments reconstructs exactly the batch
//    split's concatenation and first-appearance orders from the
//    (morsel, first-row) tags,
//  * lines 10–29 + state run through the shared Pipeline::process_and_merge.
// The same MorselProcessor + merge also back the distributed executor
// (src/dist), so all three modes share one compute and one merge.
// The differential harness in tests/integration/streaming_equivalence_test
// asserts the identity across chunk sizes, worker counts and error
// policies.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <iterator>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "colstore/chunk_cursor.hpp"
#include "core/partials.hpp"
#include "core/pipeline.hpp"
#include "core/schemas.hpp"
#include "errors/failure_log.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "support/mutex.hpp"
#include "support/thread_annotations.hpp"
#include "tracefile/trace.hpp"

namespace ivt::core {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t elapsed_ns(Clock::time_point since) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           since)
          .count());
}

/// One split accumulator shard: appended to under its own mutex by morsel
/// tasks, merged single-threaded afterwards (the merge still takes the —
/// by then uncontended — lock so the access contract stays checkable).
struct Shard {
  support::Mutex mu{support::LockRank::k_core_Shard_mu};
  KeyedSegments keys IVT_GUARDED_BY(mu);
};

/// Shard by s_id (the prefix of the bucket key up to the unit separator),
/// so all channels of one signal land in the same accumulator.
std::size_t shard_of(const std::string& key, std::size_t num_shards) {
  const std::size_t cut = key.find('\x1F');
  return std::hash<std::string_view>{}(
             std::string_view(key).substr(0, cut)) %
         num_shards;
}

/// Everything the fused stage produces.
struct StreamExtract {
  SplitDataResult split;
  std::size_t kpre_rows = 0;
  std::size_t ks_rows = 0;
  colstore::ScanStats stats;
  /// Interpreted K_s partitions in morsel order (only when keep_ks).
  std::vector<dataflow::Partition> ks_parts;
  std::uint64_t fused_wall_ns = 0;
};

/// The fused decode → preselect → interpret → shard-append stage plus the
/// order-stable merge. Shared by run_streaming and
/// extract_and_reduce_streaming.
StreamExtract stream_extract_split(dataflow::Engine& engine,
                                   const colstore::ColumnarReader& reader,
                                   const dataflow::Table& urel,
                                   const PipelineConfig& config,
                                   errors::FailureLog* scan_failures,
                                   bool keep_ks) {
  StreamExtract out;
  const auto fused_start = Clock::now();
  OBS_SPAN_V(fused_span, "pipeline.stream_extract_split");

  const MorselProcessor processor(reader, urel, config, scan_failures);

  const std::size_t num_morsels = processor.num_morsels();
  std::size_t num_shards = config.streaming.shards;
  if (num_shards == 0) {
    num_shards = std::clamp<std::size_t>(
        4 * std::max<std::size_t>(1, engine.workers()), 1, 64);
  }
  std::vector<Shard> shards(num_shards);
  if (keep_ks) out.ks_parts.resize(num_morsels);
  std::atomic<std::size_t> kpre_rows{0};
  std::atomic<std::size_t> ks_rows{0};

  engine.parallel_for_bounded(
      num_morsels, config.streaming.max_in_flight, [&](std::size_t k) {
        OBS_SPAN_V(span, "pipeline.morsel");
        MorselPartial partial = processor.process(
            k, keep_ks ? &out.ks_parts[k] : nullptr);
        kpre_rows.fetch_add(partial.kpre_rows, std::memory_order_relaxed);
        ks_rows.fetch_add(partial.ks_rows, std::memory_order_relaxed);
        span.set_rows(partial.ks_rows);
        // Append the morsel's segments into the shards.
        for (KeySegment& seg : partial.segments) {
          Shard& shard = shards[shard_of(seg.key, num_shards)];
          const support::MutexLock lock(shard.mu);
          shard.keys[seg.key].push_back(
              SplitSegment{k, seg.first_row, std::move(seg.data)});
        }
      });

  // Drain the shards into one accumulator and run the shared order-stable
  // merge (the same one the dist coordinator uses).
  KeyedSegments keyed;
  for (Shard& shard : shards) {
    const support::MutexLock lock(shard.mu);
    if (keyed.empty()) {
      keyed = std::move(shard.keys);
    } else {
      for (auto& [key, segments] : shard.keys) {
        auto& dst = keyed[key];
        std::move(segments.begin(), segments.end(),
                  std::back_inserter(dst));
      }
    }
    shard.keys.clear();
  }
  out.split = merge_split_segments(std::move(keyed), config.split);
  out.kpre_rows = kpre_rows.load(std::memory_order_relaxed);
  out.ks_rows = ks_rows.load(std::memory_order_relaxed);
  out.stats = processor.stats();
  out.fused_wall_ns = elapsed_ns(fused_start);
  fused_span.set_rows(out.ks_rows);
  return out;
}

}  // namespace

PipelineResult Pipeline::run_streaming(dataflow::Engine& engine,
                                       const colstore::ColumnarReader& reader,
                                       colstore::ScanStats* stats) const {
  OBS_SPAN("pipeline.run_streaming");
  OBS_COUNT("pipeline.runs", 1);
  PipelineResult result;

  errors::FailureLog scan_failures;
  StreamExtract ext = stream_extract_split(
      engine, reader, urel_, config_, &scan_failures, config_.keep_ks);

  // K_b is never materialized; its row count is the file's total minus
  // rows lost to quarantined chunks — the same number the batch scan
  // emits.
  result.kb_rows = reader.num_rows() - ext.stats.rows_quarantined;
  OBS_COUNT("pipeline.kb_rows", result.kb_rows);
  result.kpre_rows = ext.kpre_rows;
  result.ks_rows = ext.ks_rows;
  OBS_COUNT("pipeline.ks_rows", result.ks_rows);
  record_stage_time(result.stage_times, "stream_extract_split",
                    ext.fused_wall_ns);

  if (config_.keep_ks) {
    result.ks = dataflow::Table(ks_schema());
    for (dataflow::Partition& p : ext.ks_parts) {
      if (p.num_rows() == 0) continue;
      result.ks.add_partition(std::move(p));
    }
  }

  result.failures = scan_failures.records();
  process_and_merge(engine, std::move(ext.split), result);

  OBS_GAUGE_SET("process.peak_rss_bytes",
                static_cast<std::int64_t>(obs::peak_rss_bytes()));
  if (stats != nullptr) *stats = ext.stats;
  return result;
}

Pipeline::ReducedResult Pipeline::extract_and_reduce_streaming(
    dataflow::Engine& engine, const colstore::ColumnarReader& reader) const {
  OBS_SPAN("pipeline.extract_and_reduce_streaming");
  ReducedResult result;
  errors::FailureLog scan_failures;
  StreamExtract ext = stream_extract_split(engine, reader, urel_, config_,
                                           &scan_failures, false);
  result.ks_rows = ext.ks_rows;
  SplitDataResult split = std::move(ext.split);
  result.correspondences = std::move(split.correspondences);

  result.sequences.resize(split.sequences.size());
  engine.parallel_for(split.sequences.size(), [&](std::size_t i) {
    OBS_SPAN_V(span, "sequence.reduce");
    const SequenceData& seq = split.sequences[i];
    result.sequences[i] =
        reduce_sequence(config_.constraints, seq, spec_of(seq.s_id));
    span.set_rows(result.sequences[i].size());
  });
  for (const SequenceData& seq : result.sequences) {
    result.reduced_rows += seq.size();
  }
  OBS_GAUGE_SET("process.peak_rss_bytes",
                static_cast<std::int64_t>(obs::peak_rss_bytes()));
  return result;
}

}  // namespace ivt::core
