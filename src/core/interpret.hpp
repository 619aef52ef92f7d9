// Preselection + information interpretation (paper Sec. 3, Algorithm 1
// lines 3–6).
//
// Preselection filters the raw byte trace K_b down to the message types
// referenced by U_comb *before* any interpretation happens ("Interpretation
// cost is kept low as relevant messages are filtered prior to
// interpretation"). Interpretation joins U_comb onto the preselected rows
// and applies the per-row mappings
//   u1 : (l, u_info) -> l_rel          (relevant payload bytes)
//   u2 : (l_rel, m_info, u_info) -> (t, (v, s_id))
// yielding the signal-instance table K_s.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "colstore/columnar_reader.hpp"
#include "dataflow/engine.hpp"
#include "dataflow/table.hpp"
#include "protocol/bitcodec.hpp"
#include "signaldb/catalog.hpp"

namespace ivt::core {

struct InterpretOptions {
  /// Broadcast catalog used to resolve categorical labels (the Spark
  /// equivalent is a broadcast variable). Without it, categorical values
  /// decode as "raw:<n>".
  const signaldb::Catalog* catalog = nullptr;
  /// Drop records the monitor flagged as error frames.
  bool skip_error_frames = false;
  /// Execute the literal Algorithm 1 plan: materialize K_join via the
  /// hash join (line 4), then run F_u1 (line 5) and F_u2 (line 6) as
  /// separate engine stages. The default instead fuses the join probe and
  /// both mappings into one pipelined stage — the same plan a Spark
  /// optimizer produces (broadcast join + whole-stage codegen), avoiding
  /// the K_join materialization that duplicates each payload once per
  /// matched signal. Used by bench_ablation_join.
  bool two_stage_interpretation = false;
};

/// Line 3: K_pre = σ_{(m_id,b_id) ∈ U_comb}(K_b).
dataflow::Table preselect(dataflow::Engine& engine, const dataflow::Table& kb,
                          const dataflow::Table& urel);

/// Line 3 with storage pushdown: instead of decoding all of K_b and then
/// filtering, push the U_comb (m_id, b_id) set into a columnar scan —
/// chunks whose zone maps cannot intersect the set are skipped entirely,
/// and surviving chunks are row-filtered to the exact pair set during
/// decode. Returns the same K_pre rows, in the same logical order, as
/// preselect(engine, reader.scan(), urel).
dataflow::Table preselect(dataflow::Engine& engine,
                          const colstore::ColumnarReader& reader,
                          const dataflow::Table& urel,
                          colstore::ScanStats* stats = nullptr);

/// Pushdown preselect with a failure policy: under Skip/Quarantine a
/// chunk that fails to decode is dropped (recorded in `options.failures`
/// and the scan stats) instead of aborting the run.
dataflow::Table preselect(dataflow::Engine& engine,
                          const colstore::ColumnarReader& reader,
                          const dataflow::Table& urel,
                          const colstore::ScanOptions& options,
                          colstore::ScanStats* stats = nullptr);

/// The ScanPredicate form of U_comb's (m_id, b_id) set, as pushed down by
/// the pushdown preselect overloads and by the streaming execution path —
/// both must prune and row-filter identically.
colstore::ScanPredicate urel_scan_predicate(const dataflow::Table& urel);

/// One translation tuple of U_comb, decoded out of the U_rel table for the
/// fused probe (the broadcast side of the join).
struct BroadcastSpec {
  std::string s_id;
  std::uint16_t start_bit = 0;
  std::uint16_t length = 0;
  protocol::ByteOrder order = protocol::ByteOrder::Intel;
  signaldb::ValueKind value_kind = signaldb::ValueKind::Unsigned;
  double scale = 1.0;
  double offset = 0.0;
  bool categorical = false;
  bool presence_always = true;
  std::uint16_t presence_start = 0;
  std::uint16_t presence_length = 0;
  protocol::ByteOrder presence_order = protocol::ByteOrder::Intel;
  std::uint64_t presence_equals = 0;
  const signaldb::SignalSpec* spec = nullptr;  ///< label lookup (may be null)
};

/// u1 + u2 of one translation tuple on one payload (Algorithm 1 lines
/// 5–6): the presence selector, the bit field, the value kind and
/// scale·raw + offset into `value`; for a categorical tuple also the
/// value-table label, or "raw:<n>" without one, into `label` (left alone
/// otherwise). False when the selector rejects the payload or a field
/// does not fit it. The batch interpret stage and the streaming morsel
/// kernel both decode through this, so their values are bit-identical.
bool decode_signal(const BroadcastSpec& bs,
                   std::span<const std::uint8_t> payload, double& value,
                   std::string& label);

/// Reusable fused interpretation kernel (join probe + u1 + u2 of
/// Algorithm 1 lines 4–6): the broadcast U_comb map is built once, then
/// interpret_partition() turns any K_pre partition into K_s rows. The
/// batch interpret() stage runs through this class; the streaming morsel
/// path (core::MorselProcessor) resolves its per-file slot table through
/// specs_for() and decodes with the same decode_signal.
class InterpretKernel {
 public:
  /// Build the broadcast side from U_comb. `urel` and the catalog in
  /// `options` are only read during construction.
  InterpretKernel(const dataflow::Table& urel,
                  const InterpretOptions& options);
  ~InterpretKernel();
  InterpretKernel(const InterpretKernel&) = delete;
  InterpretKernel& operator=(const InterpretKernel&) = delete;

  /// Interpret every row of the K_pre partition `in` (schema `in_schema`,
  /// K_b layout), appending the resulting signal instances to the
  /// ks_schema() partition `out` in row order. Const and thread-safe.
  void interpret_partition(const dataflow::Partition& in,
                           const dataflow::Schema& in_schema,
                           dataflow::Partition& out) const;

  /// The translation tuples of one (bus, message id) in U_rel order, or
  /// null when U_comb has none. The pointee lives as long as the kernel.
  [[nodiscard]] const std::vector<BroadcastSpec>* specs_for(
      const std::string& bus, std::int64_t message_id) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Lines 4–6: K_join = K_pre ⋈ U_comb; K_s = F_u2(F_u1(K_join)).
dataflow::Table interpret(dataflow::Engine& engine,
                          const dataflow::Table& kpre,
                          const dataflow::Table& urel,
                          const InterpretOptions& options = {});

/// Convenience: preselect + interpret.
dataflow::Table extract_signals(dataflow::Engine& engine,
                                const dataflow::Table& kb,
                                const dataflow::Table& urel,
                                const InterpretOptions& options = {});

}  // namespace ivt::core
