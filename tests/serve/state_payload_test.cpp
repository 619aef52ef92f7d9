// Tier-2 state payloads: a state request that builds a tier-2 entry keeps
// its rendered CSV reply with the tables, and later hits with the same
// projection and no time range are handed that buffer. Every reply — the
// miss, a handed-out hit, a hit rendered from the table (reordered
// signals, a time slice, an entry `mine` built, a rebuild after eviction)
// — must be byte-identical to the batch CLI's state table (`ivt run
// --state`) with the request's slice and projection applied through
// dataflow::filter and dataflow::project.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cli/commands.hpp"
#include "dataflow/csv.hpp"
#include "dataflow/engine.hpp"
#include "dataflow/ops.hpp"
#include "serve/client.hpp"
#include "serve/json.hpp"
#include "serve/query_engine.hpp"
#include "serve/server.hpp"
#include "signaldb/catalog.hpp"

namespace ivt::serve {
namespace {

int run_ivt(const std::vector<std::string>& args) {
  std::vector<std::string> storage{"ivt"};
  storage.insert(storage.end(), args.begin(), args.end());
  std::vector<const char*> argv;
  argv.reserve(storage.size());
  for (const std::string& s : storage) argv.push_back(s.c_str());
  return cli::run_cli(static_cast<int>(argv.size()), argv.data());
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return std::move(out).str();
}

std::string join(const std::vector<std::string>& parts) {
  std::string out;
  for (const std::string& p : parts) out += (out.empty() ? "" : ",") + p;
  return out;
}

dataflow::Engine inline_engine() {
  dataflow::EngineConfig config;
  config.workers = 0;
  config.inline_execution = true;
  return dataflow::Engine(config);
}

struct Slice {
  std::optional<std::int64_t> lo;
  std::optional<std::int64_t> hi;
};

std::string state_request(const std::vector<std::string>& signals,
                          const Slice& slice = {},
                          const std::string& op = "state") {
  json::Object request;
  request.add("op", op).add("trace", "syn");
  if (!signals.empty()) request.raw("signals", json::render_array(signals));
  if (slice.lo) request.add("min_t_ns", *slice.lo);
  if (slice.hi) request.add("max_t_ns", *slice.hi);
  return request.str();
}

std::uint64_t state_cache_field(Client& client, const std::string& field) {
  const ClientResponse stats = client.request(R"({"op":"stats"})");
  EXPECT_TRUE(stats.ok());
  const json::Value* cache = stats.body.find("state_cache");
  EXPECT_NE(cache, nullptr);
  return cache == nullptr
             ? 0
             : static_cast<std::uint64_t>(cache->get_int(field, 0));
}

class StatePayloadTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new std::string(::testing::TempDir() + "/state_payload");
    const std::string prefix = *dir_ + "_syn";
    ASSERT_EQ(run_ivt({"simulate", "--dataset", "SYN", "--scale", "0.0005",
                       "--seed", "11", "--out", prefix}),
              0);
    ASSERT_EQ(run_ivt({"pack", "--trace", prefix + "_J1.ivt", "--out",
                       prefix + ".ivc", "--chunk-rows", "1024"}),
              0);
    catalog_ = new signaldb::Catalog(signaldb::load_catalog(prefix + ".ivsdb"));
    // A signal subset in an order that is not the catalog's: every other
    // one of the first twelve, reversed.
    const std::vector<std::string> all = catalog_->signal_names();
    subset_ = new std::vector<std::string>();
    for (std::size_t i = 0; i < std::min<std::size_t>(all.size(), 12); i += 2) {
      subset_->insert(subset_->begin(), all[i]);
    }
  }
  static void TearDownTestSuite() {
    delete dir_;
    delete catalog_;
    delete subset_;
    dir_ = nullptr;
    catalog_ = nullptr;
    subset_ = nullptr;
  }

  static std::string ivc() { return *dir_ + "_syn.ivc"; }

  static std::unique_ptr<Server> make_server(
      std::size_t state_cache_bytes = QueryEngineConfig{}.state_cache_bytes) {
    ServerConfig config;
    config.query.state_cache_bytes = state_cache_bytes;
    auto catalog = std::make_unique<TraceCatalog>(*catalog_);
    catalog->add_trace("syn", ivc());
    auto server = std::make_unique<Server>(std::move(catalog), config);
    server->start();
    return server;
  }

  /// The bytes `ivt run --signals ... --state` writes.
  static std::string batch_state_csv(const std::vector<std::string>& signals) {
    const std::string path = *dir_ + "_batch_" +
                             std::to_string(std::hash<std::string>{}(
                                 join(signals))) +
                             ".csv";
    std::vector<std::string> args{"run",   "--trace", ivc(),  "--catalog",
                                  *dir_ + "_syn.ivsdb", "--state", path};
    if (!signals.empty()) {
      args.emplace_back("--signals");
      args.push_back(join(signals));
    }
    EXPECT_EQ(run_ivt(args), 0);
    return read_file(path);
  }

  /// The batch state table read back: t as Int64, every signal a string.
  static dataflow::Table batch_state(const std::vector<std::string>& signals) {
    std::istringstream csv(batch_state_csv(signals));
    std::string header;
    std::getline(csv, header);
    std::vector<dataflow::Field> fields;
    std::istringstream names(header);
    for (std::string name; std::getline(names, name, ',');) {
      fields.push_back({name, fields.empty() ? dataflow::ValueType::Int64
                                             : dataflow::ValueType::String});
    }
    csv.clear();
    csv.seekg(0);
    return dataflow::read_csv(csv, dataflow::Schema{std::move(fields)});
  }

  /// What a state request must return: the batch table, filtered to the
  /// slice, projected to t plus the present requested signals.
  static std::string expected(const std::vector<std::string>& signals,
                              const Slice& slice = {}) {
    dataflow::Engine engine = inline_engine();
    dataflow::Table table = batch_state(signals);
    if (slice.lo || slice.hi) {
      const std::int64_t lo =
          slice.lo.value_or(std::numeric_limits<std::int64_t>::min());
      const std::int64_t hi =
          slice.hi.value_or(std::numeric_limits<std::int64_t>::max());
      table = dataflow::filter(
          engine, table,
          [lo, hi](const dataflow::RowView& row) {
            return !row.is_null(0) && row.int64_at(0) >= lo &&
                   row.int64_at(0) <= hi;
          },
          "test.slice");
    }
    if (!signals.empty()) {
      std::vector<std::string> columns{"t"};
      for (const std::string& s : signals) {
        if (table.schema().contains(s)) columns.push_back(s);
      }
      table = dataflow::project(engine, table, columns);
    }
    std::ostringstream out;
    dataflow::write_csv(table, out);
    return std::move(out).str();
  }

  /// t at the given fraction of the full batch table's rows.
  static std::int64_t t_at(double fraction) {
    const dataflow::Table table = batch_state({});
    const auto row = static_cast<std::size_t>(
        fraction * static_cast<double>(table.num_rows() - 1));
    return table.collect_rows()[row][0].as_int64();
  }

  static std::string* dir_;
  static signaldb::Catalog* catalog_;
  static std::vector<std::string>* subset_;
};

std::string* StatePayloadTest::dir_ = nullptr;
signaldb::Catalog* StatePayloadTest::catalog_ = nullptr;
std::vector<std::string>* StatePayloadTest::subset_ = nullptr;

TEST_F(StatePayloadTest, MissHitAndBatchAreByteIdentical) {
  const auto server = make_server();
  Client client(server->host(), server->port());
  for (const std::vector<std::string>& signals :
       {std::vector<std::string>{}, *subset_}) {
    const ClientResponse miss = client.request(state_request(signals));
    ASSERT_TRUE(miss.ok()) << miss.error_message();
    EXPECT_FALSE(miss.body.get_bool("cached", true));
    const ClientResponse hit = client.request(state_request(signals));
    ASSERT_TRUE(hit.ok()) << hit.error_message();
    EXPECT_TRUE(hit.body.get_bool("cached", false));
    EXPECT_EQ(miss.payload, hit.payload);
    EXPECT_EQ(hit.payload, expected(signals)) << join(signals);
    // A hit still reports both stages.
    const json::Value* stages = hit.body.find("stages");
    ASSERT_NE(stages, nullptr);
    EXPECT_NE(stages->find("slice"), nullptr);
    EXPECT_NE(stages->find("serialize"), nullptr);
  }
  // The unprojected table is the batch file itself.
  const ClientResponse full = client.request(state_request({}));
  EXPECT_EQ(full.payload, batch_state_csv({}));
}

TEST_F(StatePayloadTest, FallbackHitsMatchAFreshRender) {
  const auto server = make_server();
  Client client(server->host(), server->port());
  ASSERT_TRUE(client.request(state_request(*subset_)).ok());

  std::vector<std::string> reordered = *subset_;
  std::reverse(reordered.begin(), reordered.end());
  const std::int64_t lo = t_at(0.25);
  const std::int64_t hi = t_at(0.75);
  const std::vector<std::pair<std::vector<std::string>, Slice>> cases = {
      {reordered, {}},
      {*subset_, {lo, hi}},
      {*subset_, {lo, std::nullopt}},
      {*subset_, {std::nullopt, hi}},
      {reordered, {lo, lo}},
      {*subset_, {hi, lo}},  // empty range
  };
  for (const auto& [signals, slice] : cases) {
    const ClientResponse hit = client.request(state_request(signals, slice));
    ASSERT_TRUE(hit.ok()) << hit.error_message();
    EXPECT_TRUE(hit.body.get_bool("cached", false));
    const std::string want = expected(signals, slice);
    EXPECT_EQ(hit.payload, want)
        << join(signals) << " [" << slice.lo.value_or(-1) << ", "
        << slice.hi.value_or(-1) << "]";
    EXPECT_EQ(hit.body.get_int("rows", -1),
              std::count(want.begin(), want.end(), '\n') - 1);
  }
  // The rendered fallbacks left the cached reply alone.
  EXPECT_EQ(client.request(state_request(*subset_)).payload,
            expected(*subset_));
}

TEST_F(StatePayloadTest, EntryBuiltByMineServesState) {
  const auto server = make_server();
  Client client(server->host(), server->port());
  const ClientResponse mine = client.request(state_request(*subset_, {}, "mine"));
  ASSERT_TRUE(mine.ok()) << mine.error_message();
  EXPECT_FALSE(mine.body.get_bool("cached", true));
  for (int i = 0; i < 2; ++i) {
    const ClientResponse state = client.request(state_request(*subset_));
    ASSERT_TRUE(state.ok()) << state.error_message();
    EXPECT_TRUE(state.body.get_bool("cached", false));
    EXPECT_EQ(state.payload, expected(*subset_));
  }
}

TEST_F(StatePayloadTest, TierTwoBytesGrowByThePayload) {
  // The same key built by mine (tables only) and by state (tables plus
  // the reply).
  const auto by_mine = make_server();
  Client mine_client(by_mine->host(), by_mine->port());
  ASSERT_TRUE(mine_client.request(state_request(*subset_, {}, "mine")).ok());
  const auto by_state = make_server();
  Client state_client(by_state->host(), by_state->port());
  const ClientResponse state = state_client.request(state_request(*subset_));
  ASSERT_TRUE(state.ok());
  ASSERT_FALSE(state.payload.empty());
  EXPECT_EQ(state_cache_field(state_client, "bytes"),
            state_cache_field(mine_client, "bytes") + state.payload.size());
}

TEST_F(StatePayloadTest, EvictionAndRebuildReturnIdenticalBytes) {
  const std::vector<std::string> all = catalog_->signal_names();
  const std::vector<std::string> other(all.begin(), all.begin() + 3);
  std::uint64_t bytes_a = 0;
  std::uint64_t bytes_b = 0;
  {
    const auto sizing = make_server();
    Client client(sizing->host(), sizing->port());
    ASSERT_TRUE(client.request(state_request(*subset_)).ok());
    bytes_a = state_cache_field(client, "bytes");
    ASSERT_TRUE(client.request(state_request(other)).ok());
    bytes_b = state_cache_field(client, "bytes") - bytes_a;
  }
  const std::string want_a = expected(*subset_);
  const std::string want_b = expected(other);
  // Room for either entry, not both: every request evicts the other key.
  {
    const auto server = make_server(bytes_a + bytes_b - 1);
    Client client(server->host(), server->port());
    for (int round = 0; round < 2; ++round) {
      const ClientResponse a = client.request(state_request(*subset_));
      const ClientResponse b = client.request(state_request(other));
      ASSERT_TRUE(a.ok() && b.ok());
      EXPECT_FALSE(a.body.get_bool("cached", true));
      EXPECT_FALSE(b.body.get_bool("cached", true));
      EXPECT_EQ(a.payload, want_a);
      EXPECT_EQ(b.payload, want_b);
    }
    EXPECT_GE(state_cache_field(client, "evictions"), 3U);
  }
  // A budget no entry fits: nothing is retained, every reply is rebuilt.
  {
    const auto server = make_server(1);
    Client client(server->host(), server->port());
    for (int i = 0; i < 2; ++i) {
      const ClientResponse a = client.request(state_request(*subset_));
      ASSERT_TRUE(a.ok());
      EXPECT_FALSE(a.body.get_bool("cached", true));
      EXPECT_EQ(a.payload, want_a);
    }
    EXPECT_EQ(state_cache_field(client, "entries"), 0U);
  }
}

TEST_F(StatePayloadTest, EngineHandsOutTheCachedBuffer) {
  TraceCatalog catalog(*catalog_);
  catalog.add_trace("syn", ivc());
  QueryEngine engine(catalog, QueryEngineConfig{});
  const auto execute = [&](const std::string& body) {
    return engine.execute(json::parse(body), 1);
  };
  const QueryResult miss = execute(state_request(*subset_));
  const QueryResult hit = execute(state_request(*subset_));
  ASSERT_NE(miss.payload, nullptr);
  EXPECT_FALSE(miss.stats.state_cache_hit);
  EXPECT_TRUE(hit.stats.state_cache_hit);
  EXPECT_EQ(hit.payload.get(), miss.payload.get())
      << "a matching hit must share the miss's buffer, not copy it";

  std::vector<std::string> reordered = *subset_;
  std::reverse(reordered.begin(), reordered.end());
  const QueryResult rendered = execute(state_request(reordered));
  EXPECT_TRUE(rendered.stats.state_cache_hit);
  EXPECT_NE(rendered.payload.get(), miss.payload.get());
  EXPECT_EQ(*rendered.payload, expected(reordered));
}

TEST_F(StatePayloadTest, SignalRequestedTwiceIsASpecError) {
  const auto server = make_server();
  Client client(server->host(), server->port());
  const ClientResponse full = client.request(state_request({}));
  ASSERT_TRUE(full.ok());
  // A signal with a column in the representation, named twice.
  const std::string first_signal =
      full.payload.substr(2, full.payload.find_first_of(",\n", 2) - 2);
  const ClientResponse twice =
      client.request(state_request({first_signal, first_signal}));
  EXPECT_FALSE(twice.ok());
  EXPECT_EQ(twice.error_category(), "spec");
  EXPECT_TRUE(client.request(R"({"op":"ping"})").ok());
}

}  // namespace
}  // namespace ivt::serve
