// Differential test of the row-free morsel kernel: for every morsel,
// MorselProcessor::process (selection → slot table → per-(s_id, bus)
// buckets, no K_b / K_s partition) must produce exactly what the
// relational reference produces on the same morsel — cursor.decode(k)
// rendered as K_b, InterpretKernel::interpret_partition to K_s, then
// bucket_split_partition: the same segments in the same first-appearance
// order, the same first rows, bit-identical sequences, the same
// kpre/ks row counts, and (keep_ks) the same K_s partition row for row.
//
// Swept over v1 and v2 .ivc images × decoded and compressed scans ×
// skip_error_frames × with/without the label catalog. The trace mixes
// categorical labels with unlabeled raw values, SOME/IP members behind
// presence selectors, truncated payloads, error frames, irrelevant
// messages, protocol bytes without a name, one signal declared on two
// buses, and a chunk whose rows all fail the row filter (an empty
// morsel); a stomped chunk is checked under Skip and Quarantine.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "colstore/chunk_cursor.hpp"
#include "colstore/columnar_reader.hpp"
#include "colstore/columnar_writer.hpp"
#include "core/interpret.hpp"
#include "core/partials.hpp"
#include "core/pipeline.hpp"
#include "core/schemas.hpp"
#include "core/split.hpp"
#include "core/urel.hpp"
#include "errors/failure_log.hpp"
#include "tracefile/trace.hpp"

#include "../common/corruption.hpp"
#include "test_fixtures.hpp"

namespace ivt::core {
namespace {

using testing::kMs;

constexpr std::size_t kChunkRows = 16;
constexpr std::int64_t kSomeIpId = 0x500;

/// The wiper catalog plus a SOME/IP message whose members are selected by
/// byte 0: speed/temp when it is 1, a categorical gear (labels for 0 and
/// 1 only) when it is 2.
signaldb::Catalog kernel_catalog() {
  signaldb::Catalog catalog = testing::wiper_catalog();
  signaldb::MessageSpec service;
  service.name = "Service";
  service.message_id = kSomeIpId;
  service.bus = "ETH";
  service.protocol = protocol::Protocol::SomeIp;
  service.payload_size = 4;
  signaldb::PresenceCondition when1;
  when1.always = false;
  when1.selector_start_bit = 0;
  when1.selector_length = 8;
  when1.equals = 1;
  signaldb::PresenceCondition when2 = when1;
  when2.equals = 2;
  signaldb::SignalSpec speed;
  speed.name = "svc_speed";
  speed.start_bit = 8;
  speed.length = 16;
  speed.transform = {0.1, -5.0};
  speed.presence = when1;
  signaldb::SignalSpec temp;
  temp.name = "svc_temp";
  temp.start_bit = 24;
  temp.length = 8;
  temp.value_kind = signaldb::ValueKind::Signed;
  temp.presence = when1;
  signaldb::SignalSpec gear;
  gear.name = "svc_gear";
  gear.start_bit = 8;
  gear.length = 8;
  gear.value_table = {{0, "P", false}, {1, "D", false}};
  gear.presence = when2;
  service.signals = {speed, temp, gear};
  catalog.add_message(std::move(service));
  return catalog;
}

/// U_comb of every catalog signal, plus wpos declared a second time on the
/// gateway bus KC: one s_id on two buses, two buckets.
dataflow::Table kernel_urel(const signaldb::Catalog& catalog) {
  const dataflow::Table full = make_full_urel_table(catalog);
  dataflow::TableBuilder builder(urel_schema(), 0);
  const std::size_t bus_col = urel_schema().require("u_b_id");
  for (std::vector<dataflow::Value>& row : full.collect_rows()) {
    const bool is_wpos = row[0] == dataflow::Value(std::string("wpos"));
    std::vector<dataflow::Value> copy = row;
    builder.append_row(std::move(row));
    if (is_wpos) {
      copy[bus_col] = dataflow::Value(std::string("KC"));
      builder.append_row(std::move(copy));
    }
  }
  return builder.build();
}

tracefile::TraceRecord service_record(std::int64_t t, std::uint8_t selector,
                                      std::uint16_t value, std::uint8_t temp,
                                      std::size_t size) {
  tracefile::TraceRecord rec;
  rec.t_ns = t;
  rec.bus = "ETH";
  rec.message_id = kSomeIpId;
  rec.protocol = protocol::Protocol::SomeIp;
  rec.payload = {selector, static_cast<std::uint8_t>(value & 0xFF),
                 static_cast<std::uint8_t>(value >> 8), temp};
  rec.payload.resize(size);
  return rec;
}

/// Seeded record mix in time order; chunk 1 (rows 16–31) holds only belt
/// frames on KC — their id and bus each pass the zone maps, the pair does
/// not, so that morsel selects nothing.
tracefile::Trace kernel_trace() {
  std::mt19937_64 rng(20260);
  tracefile::Trace trace;
  trace.vehicle = "V";
  trace.journey = "J";
  std::int64_t t = 0;
  auto next = [&](tracefile::TraceRecord rec) {
    t += 1 + static_cast<std::int64_t>(rng() % 3) * kMs;
    rec.t_ns = t;
    if (rng() % 11 == 0) rec.flags |= tracefile::TraceRecord::kFlagErrorFrame;
    // A protocol byte with no name renders m_info "unknown:<flags>"; the
    // error-frame test must still read the flags alike on both paths.
    if (rng() % 13 == 0) rec.protocol = static_cast<protocol::Protocol>(9);
    trace.records.push_back(std::move(rec));
  };
  auto mixed = [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      const auto pick = rng() % 9;
      const auto u = static_cast<std::uint16_t>(rng());
      switch (pick) {
        case 0:
        case 1:
          next(testing::wiper_record(0, 0.5 * (u % 400), u % 90));
          break;
        case 2:
          next(testing::wiper_record(0, 0.5 * (u % 400), u % 90, "KC"));
          break;
        case 3:  // heater: 0-3 and 14 labeled, the rest raw:<n>
          next(testing::heater_record(0, static_cast<std::uint8_t>(u % 16)));
          break;
        case 4:
          next(testing::belt_record(0, (u & 1) != 0));
          break;
        case 5:
        case 6:  // selector 0..3; 3 selects nothing, short payloads cut temp
          next(service_record(0, static_cast<std::uint8_t>(u % 4),
                              static_cast<std::uint16_t>(u >> 2),
                              static_cast<std::uint8_t>(u >> 5),
                              (u % 7 == 0) ? 3 : 4));
          break;
        case 7: {  // truncated wiper: wvel no longer fits
          tracefile::TraceRecord rec = testing::wiper_record(0, 1.0, 2.0);
          rec.payload.resize(2 + u % 2);
          next(std::move(rec));
          break;
        }
        default: {  // irrelevant message on a relevant bus
          tracefile::TraceRecord rec = testing::wiper_record(0, 1.0, 2.0);
          rec.message_id = 99;
          next(std::move(rec));
        }
      }
    }
  };
  mixed(kChunkRows);
  for (std::size_t i = 0; i < kChunkRows; ++i) {
    tracefile::TraceRecord rec = testing::belt_record(0, i % 2 == 0);
    rec.bus = "KC";
    next(std::move(rec));
  }
  mixed(10 * kChunkRows + 5);
  return trace;
}

std::string pack_v2(const tracefile::Trace& trace) {
  std::ostringstream out;
  colstore::ColumnarWriter writer(out, trace.vehicle, trace.journey,
                                  trace.start_unix_ns,
                                  {.chunk_rows = kChunkRows});
  for (const tracefile::TraceRecord& rec : trace.records) writer.write(rec);
  writer.finish();
  return out.str();
}

template <typename T>
void put_le(std::string& out, T value) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out.push_back(static_cast<char>(
        (static_cast<std::uint64_t>(value) >> (8 * i)) & 0xFF));
  }
}

std::uint32_t get_le_u32(const std::string& data, std::size_t pos) {
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(data[pos + i]))
         << (8 * i);
  }
  return v;
}

/// Rewrite a v2 image as the v1 container: version 1 in the header, each
/// chunk body cut before its key_idx block, no key dictionary in the
/// footer.
std::string to_v1(const std::string& v2) {
  const colstore::ColumnarReader reader =
      colstore::ColumnarReader::from_buffer(v2);
  const std::size_t body_begin =
      reader.num_chunks() > 0 ? reader.chunk(0).offset : 0;
  std::string out = v2.substr(0, body_begin);
  out[4] = 1;  // version (u32 LE; the high bytes are already zero)
  std::vector<colstore::ChunkInfo> chunks = reader.chunks();
  for (colstore::ChunkInfo& info : chunks) {
    std::size_t pos = info.offset + 4;  // past the row count
    for (std::size_t b = 0; b < colstore::kColumnsPerChunkV1; ++b) {
      pos += 4 + get_le_u32(v2, pos);
    }
    const std::size_t v1_bytes = pos - info.offset;
    const std::size_t offset = out.size();
    out += v2.substr(info.offset, v1_bytes);
    info.offset = offset;
    info.encoded_bytes = v1_bytes;
  }
  const std::uint64_t footer = out.size();
  put_le<std::uint16_t>(
      out, static_cast<std::uint16_t>(reader.bus_names().size()));
  for (const std::string& bus : reader.bus_names()) {
    put_le<std::uint8_t>(out, static_cast<std::uint8_t>(bus.size()));
    out += bus;
  }
  put_le<std::uint32_t>(out, static_cast<std::uint32_t>(chunks.size()));
  for (const colstore::ChunkInfo& c : chunks) {
    put_le<std::uint64_t>(out, c.offset);
    put_le<std::uint64_t>(out, c.encoded_bytes);
    put_le<std::uint32_t>(out, c.row_count);
    put_le<std::int64_t>(out, c.min_t_ns);
    put_le<std::int64_t>(out, c.max_t_ns);
    put_le<std::int64_t>(out, c.min_message_id);
    put_le<std::int64_t>(out, c.max_message_id);
    put_le<std::uint16_t>(out, static_cast<std::uint16_t>(c.bus_bits.size()));
    for (const std::uint64_t word : c.bus_bits) {
      put_le<std::uint64_t>(out, word);
    }
  }
  put_le<std::uint64_t>(out, footer);
  out.append(colstore::kFooterMagic, sizeof(colstore::kFooterMagic));
  return out;
}

std::vector<std::vector<dataflow::Value>> rows_of(dataflow::Partition p) {
  dataflow::Table table(ks_schema());
  table.add_partition(std::move(p));
  return table.collect_rows();
}

/// Field-by-field, v_num compared bit for bit.
void expect_same_sequence(const SequenceData& got, const SequenceData& want) {
  EXPECT_EQ(got.s_id, want.s_id);
  EXPECT_EQ(got.bus, want.bus);
  EXPECT_EQ(got.t, want.t);
  ASSERT_EQ(got.v_num.size(), want.v_num.size());
  for (std::size_t i = 0; i < got.v_num.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.v_num[i]),
              std::bit_cast<std::uint64_t>(want.v_num[i]))
        << "row " << i;
  }
  EXPECT_EQ(got.has_num, want.has_num);
  EXPECT_EQ(got.v_str, want.v_str);
  EXPECT_EQ(got.has_str, want.has_str);
}

struct Totals {
  std::size_t kpre_rows = 0;
  std::size_t ks_rows = 0;
  std::size_t empty_morsels = 0;
  std::size_t labels = 0;
  std::size_t raw_labels = 0;
  std::size_t buckets = 0;
};

/// Compare process(k) against the relational reference on every morsel,
/// accumulating what the fixture covered into `totals`.
void expect_kernel_matches_reference(const colstore::ColumnarReader& reader,
                                     const dataflow::Table& urel,
                                     const PipelineConfig& config,
                                     Totals& totals) {
  errors::FailureLog kernel_failures;
  errors::FailureLog reference_failures;
  const MorselProcessor processor(reader, urel, config, &kernel_failures);
  // Without keep_ks, on a processor of its own so the counters below
  // count each morsel once.
  const MorselProcessor lean_processor(reader, urel, config, nullptr);
  colstore::ScanOptions options;
  options.on_error = config.on_error;
  options.mode = config.scan_mode;
  options.failures = &reference_failures;
  const colstore::ChunkCursor cursor =
      reader.cursor(urel_scan_predicate(urel), options);
  const InterpretKernel kernel(urel, config.interpret);
  ASSERT_EQ(processor.num_morsels(), cursor.num_morsels());

  for (std::size_t k = 0; k < cursor.num_morsels(); ++k) {
    SCOPED_TRACE("morsel " + std::to_string(k));
    const dataflow::Partition kpre = cursor.decode(k);
    dataflow::Partition ks = dataflow::Table::make_partition(ks_schema());
    kernel.interpret_partition(kpre, tracefile::kb_schema(), ks);
    PartitionSplit want = bucket_split_partition(ks, ks_schema());

    dataflow::Partition got_ks;
    const MorselPartial got = processor.process(k, &got_ks);
    const MorselPartial lean = lean_processor.process(k);

    EXPECT_EQ(got.morsel, k);
    EXPECT_EQ(got.kpre_rows, kpre.num_rows());
    EXPECT_EQ(got.ks_rows, ks.num_rows());
    EXPECT_EQ(lean.ks_rows, ks.num_rows());
    ASSERT_EQ(got.segments.size(), want.order.size());
    ASSERT_EQ(lean.segments.size(), want.order.size());
    for (std::size_t i = 0; i < want.order.size(); ++i) {
      SCOPED_TRACE("segment " + want.order[i]);
      EXPECT_EQ(got.segments[i].key, want.order[i]);
      EXPECT_EQ(got.segments[i].first_row, want.first_row[i]);
      EXPECT_EQ(lean.segments[i].key, want.order[i]);
      EXPECT_EQ(lean.segments[i].first_row, want.first_row[i]);
      const SequenceData& ref = want.buckets.at(want.order[i]);
      expect_same_sequence(got.segments[i].data, ref);
      expect_same_sequence(lean.segments[i].data, ref);
    }
    EXPECT_EQ(got_ks.columns.size(), ks_schema().size());
    const auto ks_rows = rows_of(std::move(ks));
    EXPECT_EQ(rows_of(std::move(got_ks)), ks_rows);

    totals.kpre_rows += got.kpre_rows;
    totals.ks_rows += got.ks_rows;
    totals.empty_morsels += got.kpre_rows == 0 ? 1 : 0;
    totals.buckets = std::max(totals.buckets, got.segments.size());
    for (const auto& row : ks_rows) {
      if (row[3].is_null()) continue;
      ++totals.labels;
      if (row[3].as_string().rfind("raw:", 0) == 0) ++totals.raw_labels;
    }
  }
  const colstore::ScanStats kernel_stats = processor.stats();
  const colstore::ScanStats reference_stats = cursor.stats();
  EXPECT_EQ(kernel_stats.chunks_quarantined,
            reference_stats.chunks_quarantined);
  EXPECT_EQ(kernel_stats.runs_considered, reference_stats.runs_considered);
  EXPECT_EQ(kernel_failures.size(), reference_failures.size());
}

using KernelParam = std::tuple<int /*version*/, colstore::ScanMode,
                               bool /*skip_error_frames*/,
                               bool /*with_catalog*/>;

class MorselKernelTest : public ::testing::TestWithParam<KernelParam> {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new signaldb::Catalog(kernel_catalog());
    urel_ = new dataflow::Table(kernel_urel(*catalog_));
    v2_ = new std::string(pack_v2(kernel_trace()));
    v1_ = new std::string(to_v1(*v2_));
  }
  static void TearDownTestSuite() {
    delete catalog_;
    delete urel_;
    delete v2_;
    delete v1_;
  }

  [[nodiscard]] static int version() { return std::get<0>(GetParam()); }
  [[nodiscard]] static const std::string& image() {
    return version() == 1 ? *v1_ : *v2_;
  }
  [[nodiscard]] static PipelineConfig config() {
    PipelineConfig config;
    config.scan_mode = std::get<1>(GetParam());
    config.interpret.skip_error_frames = std::get<2>(GetParam());
    config.interpret.catalog = std::get<3>(GetParam()) ? catalog_ : nullptr;
    return config;
  }

  static signaldb::Catalog* catalog_;
  static dataflow::Table* urel_;
  static std::string* v2_;
  static std::string* v1_;
};

signaldb::Catalog* MorselKernelTest::catalog_ = nullptr;
dataflow::Table* MorselKernelTest::urel_ = nullptr;
std::string* MorselKernelTest::v2_ = nullptr;
std::string* MorselKernelTest::v1_ = nullptr;

TEST_P(MorselKernelTest, EveryMorselMatchesRelationalReference) {
  const colstore::ColumnarReader reader =
      colstore::ColumnarReader::from_buffer(image());
  ASSERT_EQ(reader.version(), static_cast<std::uint32_t>(version()));
  Totals totals;
  expect_kernel_matches_reference(reader, *urel_, config(), totals);
  // The fixture must actually exercise what the suite claims to cover.
  EXPECT_GE(totals.empty_morsels, 1u);
  if (std::get<2>(GetParam())) {
    // The fixture's error frames were there to drop.
    PipelineConfig all_frames = config();
    all_frames.interpret.skip_error_frames = false;
    Totals unskipped;
    expect_kernel_matches_reference(reader, *urel_, all_frames, unskipped);
    EXPECT_LT(totals.ks_rows, unskipped.ks_rows);
  } else {
    EXPECT_GT(totals.ks_rows, totals.kpre_rows);  // multi-signal messages
  }
  EXPECT_GT(totals.raw_labels, 0u);
  if (std::get<3>(GetParam())) {
    EXPECT_GT(totals.labels, totals.raw_labels);
  } else {
    EXPECT_EQ(totals.labels, totals.raw_labels);
  }
  EXPECT_GE(totals.buckets, 7u);  // wpos@FC, wpos@KC, wvel, heat, belt, svc_*
}

TEST_P(MorselKernelTest, StompedChunkDropsLikeReference) {
  const testcorrupt::IvcCorruptor corruptor(image());
  ASSERT_GT(corruptor.num_chunks(), 3u);
  const colstore::ColumnarReader reader =
      colstore::ColumnarReader::from_buffer(corruptor.with_stomped_chunk(2));
  for (const errors::ErrorPolicy policy :
       {errors::ErrorPolicy::Skip, errors::ErrorPolicy::Quarantine}) {
    SCOPED_TRACE("policy=" + std::to_string(static_cast<int>(policy)));
    PipelineConfig cfg = config();
    cfg.on_error = policy;
    Totals totals;
    expect_kernel_matches_reference(reader, *urel_, cfg, totals);
    EXPECT_GT(totals.ks_rows, 0u);
  }
  // Under Fail the kernel surfaces the typed decode error, as decode does.
  const MorselProcessor processor(reader, *urel_, config(), nullptr);
  bool threw = false;
  for (std::size_t k = 0; k < processor.num_morsels(); ++k) {
    try {
      (void)processor.process(k);
    } catch (const errors::Error& e) {
      threw = true;
      EXPECT_EQ(e.category(), errors::Category::Decode);
    }
  }
  EXPECT_TRUE(threw);
}

std::string param_name(const ::testing::TestParamInfo<KernelParam>& info) {
  return "v" + std::to_string(std::get<0>(info.param)) + "_" +
         colstore::to_string(std::get<1>(info.param)) +
         (std::get<2>(info.param) ? "_skiperr" : "_allframes") +
         (std::get<3>(info.param) ? "_labels" : "_raw");
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MorselKernelTest,
    ::testing::Combine(::testing::Values(1, 2),
                       ::testing::Values(colstore::ScanMode::Decoded,
                                         colstore::ScanMode::Compressed),
                       ::testing::Bool(), ::testing::Bool()),
    param_name);

}  // namespace
}  // namespace ivt::core
