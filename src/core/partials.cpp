#include "core/partials.hpp"

#include <algorithm>
#include <span>
#include <utility>

#include "core/pipeline.hpp"
#include "core/schemas.hpp"
#include "core/urel.hpp"
#include "obs/obs.hpp"
#include "tracefile/trace.hpp"

namespace ivt::core {

namespace {

void reserve_sequence(SequenceData& seq, std::size_t rows) {
  seq.t.reserve(rows);
  seq.v_num.reserve(rows);
  seq.has_num.reserve(rows);
  seq.v_str.reserve(rows);
  seq.has_str.reserve(rows);
}

}  // namespace

void accumulate_partial(KeyedSegments& keyed, MorselPartial&& partial) {
  for (KeySegment& seg : partial.segments) {
    keyed[seg.key].push_back(
        SplitSegment{partial.morsel, seg.first_row, std::move(seg.data)});
  }
  partial.segments.clear();
}

SplitDataResult merge_split_segments(KeyedSegments&& keyed,
                                     const SplitOptions& options) {
  // Within one key, morsel order == chunk order == batch partition order,
  // so concatenating segments sorted by morsel reproduces the batch
  // phase-2 concatenation; across keys, (first morsel, first row) sorts
  // into exactly the batch first-appearance order.
  struct FirstHit {
    std::size_t morsel;
    std::size_t row;
    std::string key;
  };
  std::vector<FirstHit> firsts;
  firsts.reserve(keyed.size());
  std::unordered_map<std::string, SequenceData> merged;
  merged.reserve(keyed.size());
  for (auto& [key, segments] : keyed) {
    std::sort(segments.begin(), segments.end(),
              [](const SplitSegment& a, const SplitSegment& b) {
                return a.morsel < b.morsel;
              });
    SequenceData seq = std::move(segments.front().data);
    for (std::size_t s = 1; s < segments.size(); ++s) {
      append_sequence_data(seq, std::move(segments[s].data));
      // Release each segment once copied: the merge then holds one copy
      // of the key's rows, not two.
      segments[s].data = SequenceData{};
    }
    firsts.push_back(
        {segments.front().morsel, segments.front().first_row, key});
    merged.emplace(key, std::move(seq));
  }
  keyed.clear();
  std::sort(firsts.begin(), firsts.end(),
            [](const FirstHit& a, const FirstHit& b) {
              return a.morsel != b.morsel ? a.morsel < b.morsel
                                          : a.row < b.row;
            });
  std::vector<std::string> order;
  order.reserve(firsts.size());
  for (FirstHit& f : firsts) order.push_back(std::move(f.key));
  return group_split_sequences(order, merged, options);
}

MorselProcessor::MorselProcessor(const colstore::ColumnarReader& reader,
                                 const dataflow::Table& urel,
                                 const PipelineConfig& config,
                                 errors::FailureLog* failures)
    : cursor_([&] {
        colstore::ScanOptions scan_options;
        scan_options.on_error = config.on_error;
        scan_options.failures = failures;
        scan_options.mode = config.scan_mode;
        return reader.cursor(urel_scan_predicate(urel), scan_options);
      }()),
      kernel_(urel, config.interpret),
      skip_error_frames_(config.interpret.skip_error_frames) {
  // The slot table: U_comb's join resolved once per file, one bucket id
  // per distinct (s_id, bus), so process() neither hashes a string nor
  // builds one per row.
  const std::vector<std::string>& buses = reader.bus_names();
  std::unordered_map<std::string, std::uint32_t> bucket_ids;
  if (reader.version() >= 2) {
    const std::vector<colstore::KeyDictEntry>& dict = reader.key_dict();
    slot_of_key_.resize(dict.size(), kNoSlot);
    for (std::size_t k = 0; k < dict.size(); ++k) {
      slot_of_key_[k] = add_slot(dict[k].bus_index, dict[k].message_id,
                                 buses, bucket_ids);
    }
  } else {
    // v1 files have no key column: resolve U_comb's (bus, id) pairs
    // against the bus dictionary into the same table.
    for (const MessageKey& key : relevant_message_keys(urel)) {
      const auto it = std::find(buses.begin(), buses.end(), key.bus);
      if (it == buses.end()) continue;
      const auto bus = static_cast<std::uint16_t>(it - buses.begin());
      const std::uint32_t slot =
          add_slot(bus, key.message_id, buses, bucket_ids);
      if (slot != kNoSlot) {
        slot_of_pair_.emplace(std::pair{bus, key.message_id}, slot);
      }
    }
  }
}

std::uint32_t MorselProcessor::add_slot(
    std::uint16_t bus, std::int64_t message_id,
    const std::vector<std::string>& buses,
    std::unordered_map<std::string, std::uint32_t>& bucket_ids) {
  const std::string& bus_name = buses[bus];
  const std::vector<BroadcastSpec>* specs =
      kernel_.specs_for(bus_name, message_id);
  if (specs == nullptr) return kNoSlot;
  std::vector<SlotSpec> slot;
  slot.reserve(specs->size());
  for (const BroadcastSpec& bs : *specs) {
    std::string key = split_bucket_key(bs.s_id, bus_name);
    const auto [it, inserted] = bucket_ids.try_emplace(
        key, static_cast<std::uint32_t>(buckets_.size()));
    if (inserted) {
      buckets_.push_back(Bucket{std::move(key), bs.s_id, bus_name});
    }
    slot.push_back(SlotSpec{&bs, it->second});
  }
  slots_.push_back(std::move(slot));
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

std::uint32_t MorselProcessor::slot_of(const colstore::ChunkSelection& sel,
                                       std::size_t i) const {
  if (sel.keyed()) return slot_of_key_[sel.key[i]];
  const auto it = slot_of_pair_.find({sel.bus[i], sel.message_id[i]});
  return it != slot_of_pair_.end() ? it->second : kNoSlot;
}

MorselPartial MorselProcessor::process(std::size_t k,
                                       dataflow::Partition* keep_ks) const {
  MorselPartial out;
  out.morsel = k;
  // Decode + preselect: the cursor's compiled row filter IS the
  // preselection predicate; a quarantined chunk yields an empty selection
  // (and is already on the failure log).
  const colstore::ChunkSelection sel = cursor_.select(k);
  out.kpre_rows = sel.size();

  // Interpret (Algorithm 1 lines 4–6) and bucket (line 8) in one pass:
  // each instance goes straight into its (s_id, bus) segment, segments
  // open in first-appearance order at the current K_s row.
  OBS_SPAN_V(span, "pipeline.morsel.interpret");
  // Resolve every row's slot once, and size each bucket for the rows its
  // unconditional tuples will take (an upper bound: a payload too short
  // for the field emits nothing), so the appends below do not reallocate.
  std::vector<std::uint32_t> row_slot(sel.size(), kNoSlot);
  std::vector<std::uint32_t> slot_rows(slots_.size(), 0);
  for (std::size_t i = 0; i < sel.size(); ++i) {
    if (skip_error_frames_ &&
        (sel.flags[i] & tracefile::TraceRecord::kFlagErrorFrame) != 0) {
      continue;
    }
    const std::uint32_t slot = slot_of(sel, i);
    if (slot == kNoSlot) continue;
    row_slot[i] = slot;
    ++slot_rows[slot];
  }
  std::vector<std::uint32_t> bucket_rows(buckets_.size(), 0);
  for (std::size_t slot = 0; slot < slots_.size(); ++slot) {
    if (slot_rows[slot] == 0) continue;
    for (const SlotSpec& entry : slots_[slot]) {
      if (entry.spec->presence_always) {
        bucket_rows[entry.bucket] += slot_rows[slot];
      }
    }
  }

  constexpr std::uint32_t kNoSegment = 0xFFFFFFFFu;
  std::vector<std::uint32_t> segment_of(buckets_.size(), kNoSegment);
  std::vector<std::uint32_t> row_segment;  // per K_s row, keep_ks only
  std::size_t ks_rows = 0;
  double value = 0.0;
  std::string label;
  for (std::size_t i = 0; i < sel.size(); ++i) {
    const std::uint32_t slot = row_slot[i];
    if (slot == kNoSlot) continue;
    const std::span<const std::uint8_t> payload = sel.payload_of(i);
    for (const SlotSpec& entry : slots_[slot]) {
      const BroadcastSpec& bs = *entry.spec;
      if (!decode_signal(bs, payload, value, label)) continue;
      std::uint32_t& seg_index = segment_of[entry.bucket];
      if (seg_index == kNoSegment) {
        seg_index = static_cast<std::uint32_t>(out.segments.size());
        const Bucket& bucket = buckets_[entry.bucket];
        KeySegment& seg = out.segments.emplace_back();
        seg.key = bucket.key;
        seg.first_row = ks_rows;
        seg.data.s_id = bucket.s_id;
        seg.data.bus = bucket.bus;
        reserve_sequence(seg.data, bucket_rows[entry.bucket]);
      }
      SequenceData& seq = out.segments[seg_index].data;
      seq.t.push_back(sel.t_ns[i]);
      seq.v_num.push_back(value);
      seq.has_num.push_back(1);
      if (bs.categorical) {
        seq.v_str.push_back(std::move(label));
        seq.has_str.push_back(1);
      } else {
        seq.v_str.emplace_back();
        seq.has_str.push_back(0);
      }
      if (keep_ks != nullptr) row_segment.push_back(seg_index);
      ++ks_rows;
    }
  }
  out.ks_rows = ks_rows;
  span.set_rows(ks_rows);

  if (keep_ks != nullptr) {
    // Inspection mode: replay the K_s rows in row order out of the
    // buckets (each bucket is in row order, so a read cursor per segment
    // suffices).
    *keep_ks = dataflow::Table::make_partition(ks_schema());
    std::vector<std::size_t> next(out.segments.size(), 0);
    for (const std::uint32_t seg_index : row_segment) {
      const SequenceData& seq = out.segments[seg_index].data;
      const std::size_t j = next[seg_index]++;
      keep_ks->columns[0].append_int64(seq.t[j]);
      keep_ks->columns[1].append_string(seq.s_id);
      keep_ks->columns[2].append_float64(seq.v_num[j]);
      if (seq.has_str[j] != 0) {
        keep_ks->columns[3].append_string(seq.v_str[j]);
      } else {
        keep_ks->columns[3].append_null();
      }
      keep_ks->columns[4].append_string(seq.bus);
    }
  }
  return out;
}

}  // namespace ivt::core
