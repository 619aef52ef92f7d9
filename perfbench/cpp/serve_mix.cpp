// serve-mix: two in-process ivt-serve daemons (one over a packed SYN
// journey, one over a packed LIG journey) driven by an open-loop request
// generator on a fixed ladder of offered rates.
//
// Generator: one sender (this thread) and one receiver thread over four
// connections, two per daemon. The sender writes each request when it is
// due, on the daemon's connection with the fewest replies outstanding,
// whether or not earlier replies have arrived; the receiver polls all
// four sockets. A request is timed from its due time to its reply, so a
// stall also counts against the requests queued behind it. The daemon
// answers the requests of one connection in order.
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <fstream>
#include <random>
#include <stdexcept>
#include <thread>

#include "core/interpret.hpp"
#include "core/urel.hpp"
#include "dataflow/ops.hpp"
#include "serve/client.hpp"
#include "serve/json.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace json = ivt::serve::json;

/// Daemon configuration. Each daemon gets half the box's workers; the
/// tier-2 (state) budget is smaller than the state tables of the key set
/// below, so `state` requests both hit and miss.
constexpr std::size_t kServerWorkers = kWorkers / 2;
constexpr std::size_t kConnsPerServer = 2;
constexpr std::size_t kStateCacheBytes = 24ULL << 20U;
constexpr std::size_t kChunkCacheBytes = 64ULL << 20U;

/// Request mix: per daemon kStateKeys state keys (also the mine keys) and
/// kExtractSlices extract windows; every block of kBlock requests holds
/// kBlockState state, kBlockMine mine and the rest extract requests, half
/// of each per daemon. No traffic record of the daemon exists, so the
/// state:extract ratio is bench_serve's (6:1); one request in 15 is a
/// mine, so src/apps is on the request path without dominating it.
constexpr std::size_t kStateKeys = 8;
constexpr std::size_t kExtractSlices = 8;
constexpr std::size_t kBlock = 30;
constexpr std::size_t kBlockState = 24;
constexpr std::size_t kBlockMine = 2;
constexpr std::size_t kScheduleLength = 8000;

/// Offered rates (requests/s over both daemons). The measured run is one
/// reference rung of --seconds, where the latency metrics are read; its
/// rate is the 58–60 requests/s bench_serve reports the daemon sustains. The
/// traced run adds the ladder above it for the highest rate that passes
/// (serve.max_rate_qps): no request failed, the tail latency is within
/// kLatencyLimitMs and the backlog did not grow (benchlib.rung_passes).
constexpr double kReferenceRate = 60.0;
constexpr double kLadder[] = {120, 240, 360, 480, 600, 720};
constexpr double kLadderSeconds = 1.5;
/// Longest traced reference rung of the traced run (the untraced one
/// takes the rest of --seconds): short enough that the daemons'
/// per-thread span rings (8192 spans each) do not wrap, since dropped
/// spans would shorten the layer totals.
constexpr double kTracedRungSeconds = 3.0;
constexpr double kLatencyLimitMs = 500.0;
constexpr double kDrainTimeoutS = 10.0;

struct Request {
  std::size_t server = 0;
  std::string op;
  std::string body;
};

/// requests.tsv / checks.tsv lines: server index, op, JSON body.
std::vector<Request> read_requests(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::vector<Request> out;
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t a = line.find('\t');
    const std::size_t b = line.find('\t', a + 1);
    if (a == std::string::npos || b == std::string::npos) continue;
    out.push_back({std::stoul(line.substr(0, a)), line.substr(a + 1, b - a - 1),
                   line.substr(b + 1)});
  }
  return out;
}

std::string state_body(const std::string& trace,
                       const std::vector<std::string>& signals,
                       const std::string& op) {
  std::string body = "{\"op\":\"" + op + "\",\"trace\":\"" + trace +
                     "\",\"signals\":" + json::render_array(signals);
  if (op == "mine") body += ",\"top_k\":10";
  return body + "}";
}

std::string extract_body(const std::string& trace,
                         const std::vector<std::string>& signals,
                         std::int64_t lo, std::int64_t hi) {
  return "{\"op\":\"extract\",\"trace\":\"" + trace +
         "\",\"signals\":" + json::render_array(signals) +
         ",\"min_t_ns\":" + std::to_string(lo) +
         ",\"max_t_ns\":" + std::to_string(hi) + "}";
}

int connect_local(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    throw std::runtime_error("connect() failed");
  }
  // Socket options as serve::Client (and so `ivt query`) leaves them.
  return fd;
}

/// One reply as the generator saw it.
struct Sample {
  std::size_t request = 0;
  double due_s = 0.0;
  double late_ms = 0.0;  ///< send time − due time
  double latency_ms = 0.0;
  bool ok = false;
  std::string error;
  double server_ms = 0.0;
  bool cached = false;
  std::size_t payload_bytes = 0;
  std::map<std::string, double> stages;
};

struct Pending {
  std::size_t request = 0;
  double due_s = 0.0;
  double late_ms = 0.0;
};

struct RungResult {
  double rate = 0.0;
  std::vector<Sample> samples;
  std::size_t scheduled = 0;
  std::size_t backlog_max = 0;
  bool drained = true;
  double seconds = 0.0;  ///< first due time to last reply
  double cpu_s = 0.0;    ///< process CPU over the rung
  // Daemon-side counter deltas over the rung (both daemons).
  double state_hits = 0, state_misses = 0, chunk_hits = 0, chunk_misses = 0;
  double chunks_decoded = 0;
};

using Daemon = std::unique_ptr<ivt::serve::Server>;

/// Starts both daemons and runs the warm-up pass: every state key and
/// extract slice once, so tier 1 holds the traces and tier 2 is in the
/// steady state of its LRU rather than empty.
std::vector<Daemon> start_daemons(const Workload& workload,
                                  const std::string& dir,
                                  const std::vector<Request>& warmup) {
  std::vector<Daemon> daemons;
  for (const DatasetInput& input : workload.inputs) {
    auto catalog = std::make_unique<ivt::serve::TraceCatalog>(
        ivt::signaldb::load_catalog(input.catalog_path(dir)));
    catalog->add_trace(input.name, input.trace_path(dir));
    ivt::serve::ServerConfig config;
    config.workers = kServerWorkers;
    config.query.state_cache_bytes = kStateCacheBytes;
    config.query.chunk_cache_bytes = kChunkCacheBytes;
    config.query.scan_mode = ivt::colstore::parse_scan_mode(workload.scan);
    daemons.push_back(
        std::make_unique<ivt::serve::Server>(std::move(catalog), config));
    daemons.back()->start();
  }
  for (const Request& r : warmup) {
    ivt::serve::Client client("127.0.0.1", daemons[r.server]->port());
    const ivt::serve::ClientResponse response = client.request(r.body);
    if (!response.ok()) {
      throw std::runtime_error("warm-up " + r.op + " failed: " +
                               response.error_message());
    }
  }
  return daemons;
}

void stop_daemons(std::vector<Daemon>& daemons) {
  for (Daemon& d : daemons) d->stop();
  daemons.clear();
}

class Generator {
 public:
  Generator(const std::vector<Daemon>& daemons,
            const std::vector<Request>& requests)
      : daemons_(daemons), requests_(requests) {
    for (std::size_t s = 0; s < daemons.size(); ++s) {
      for (std::size_t c = 0; c < kConnsPerServer; ++c) {
        conns_.push_back({connect_local(daemons[s]->port()), s, {}});
      }
    }
  }
  ~Generator() {
    for (Conn& c : conns_) ::close(c.fd);
  }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  RungResult run_rung(double rate, double seconds) {
    RungResult rung;
    rung.rate = rate;
    rung.scheduled = static_cast<std::size_t>(std::lround(rate * seconds));
    samples_.clear();
    received_ = 0;
    sent_ = 0;
    const auto before = counters();
    const double c0 = cpu_s();
    std::atomic<bool> stop{false};
    std::thread receiver([&] { receive_loop(stop); });
    const double t0 = wall_s() + 0.005;
    for (std::size_t i = 0; i < rung.scheduled; ++i) {
      const double due = t0 + static_cast<double>(i) / rate;
      const double wait = due - wall_s();
      if (wait > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(wait));
      }
      const Request& req = requests_[cursor_++ % requests_.size()];
      Conn* best = nullptr;
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        for (Conn& c : conns_) {
          if (c.server != req.server) continue;
          if (best == nullptr || c.fifo.size() < best->fifo.size()) best = &c;
        }
        best->fifo.push_back({cursor_ - 1, due, (wall_s() - due) * 1e3});
        ++sent_;
        rung.backlog_max = std::max(rung.backlog_max, sent_ - received_);
      }
      try {
        ivt::serve::write_frame(best->fd, ivt::serve::Frame{req.body, ""});
      } catch (const std::exception& e) {
        // The reply will never come: the request fails now.
        const std::lock_guard<std::mutex> lock(mutex_);
        if (!best->fifo.empty() && best->fifo.back().request == cursor_ - 1) {
          const Pending p = best->fifo.back();
          best->fifo.pop_back();
          record_locked(p, wall_s(), e.what());
        }
      }
    }
    {
      std::unique_lock<std::mutex> lock(mutex_);
      rung.drained = drained_cv_.wait_for(
          lock, std::chrono::duration<double>(kDrainTimeoutS),
          [&] { return received_ == sent_; });
    }
    stop = true;
    receiver.join();
    rung.cpu_s = cpu_s() - c0;
    const auto after = counters();
    rung.state_hits = after[0] - before[0];
    rung.state_misses = after[1] - before[1];
    rung.chunk_hits = after[2] - before[2];
    rung.chunk_misses = after[3] - before[3];
    rung.chunks_decoded = after[4] - before[4];
    const std::lock_guard<std::mutex> lock(mutex_);
    rung.samples = samples_;
    double last = t0;
    for (const Sample& s : samples_) {
      last = std::max(last, s.due_s + s.latency_ms / 1e3);
    }
    rung.seconds = last - t0;
    return rung;
  }

 private:
  struct Conn {
    int fd = -1;
    std::size_t server = 0;
    std::deque<Pending> fifo;
  };

  std::vector<double> counters() const {
    std::vector<double> c(5, 0.0);
    for (const Daemon& d : daemons_) {
      auto& engine = d->query_engine();
      const auto state = engine.state_cache_stats();
      const auto chunk = engine.chunk_cache_stats();
      c[0] += static_cast<double>(state.hits);
      c[1] += static_cast<double>(state.misses);
      c[2] += static_cast<double>(chunk.hits);
      c[3] += static_cast<double>(chunk.misses);
      c[4] += static_cast<double>(engine.accounting().chunks_decoded.load());
    }
    return c;
  }

  /// One finished request; the caller holds mutex_.
  void record_locked(const Pending& p, double done, const std::string& error,
                     const ivt::serve::Frame* reply = nullptr) {
    Sample s;
    s.request = p.request;
    s.due_s = p.due_s;
    s.late_ms = p.late_ms;
    s.latency_ms = (done - p.due_s) * 1e3;
    s.error = error;
    if (reply != nullptr) parse_reply(*reply, s);
    samples_.push_back(std::move(s));
    ++received_;
    if (received_ == sent_) drained_cv_.notify_all();
  }

  void receive_loop(const std::atomic<bool>& stop) {
    std::vector<pollfd> fds;
    for (const Conn& c : conns_) fds.push_back({c.fd, POLLIN, 0});
    // One frame per connection, reused: the payload buffer grows to the
    // largest reply once instead of being allocated per reply, so the
    // generator adds no allocator churn to the process's peak RSS.
    std::vector<ivt::serve::Frame> frames(conns_.size());
    while (!stop) {
      if (::poll(fds.data(), fds.size(), 20) <= 0) continue;
      for (std::size_t i = 0; i < fds.size(); ++i) {
        if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        std::string error;
        try {
          if (!ivt::serve::read_frame(conns_[i].fd, frames[i])) {
            error = "connection closed";
          }
        } catch (const std::exception& e) {
          error = e.what();
        }
        const double done = wall_s();
        const std::lock_guard<std::mutex> lock(mutex_);
        if (!error.empty()) {
          // The stream is gone or out of step: every request still
          // outstanding on it fails, and it is not polled again.
          fds[i].fd = -1;
          for (const Pending& p : conns_[i].fifo) record_locked(p, done, error);
          conns_[i].fifo.clear();
          continue;
        }
        if (conns_[i].fifo.empty()) continue;
        const Pending p = conns_[i].fifo.front();
        conns_[i].fifo.pop_front();
        try {
          record_locked(p, done, "", &frames[i]);
        } catch (const std::exception& e) {
          record_locked(p, done, e.what());
        }
      }
    }
  }

  static void parse_reply(const ivt::serve::Frame& frame, Sample& s) {
    const json::Value body = json::parse(frame.json);
    s.ok = body.get_bool("ok", false);
    if (!s.ok) {
      const json::Value* error = body.find("error");
      s.error = error != nullptr ? error->get_string("category", "error")
                                 : "error";
      return;
    }
    s.server_ms = body.get_double("t_total_ms", 0.0);
    s.cached = body.get_bool("cached", false);
    s.payload_bytes = frame.payload.size();
    if (const json::Value* stages = body.find("stages")) {
      for (const auto& [name, value] : stages->members()) {
        s.stages[name] = value.number();
      }
    }
  }

  const std::vector<Daemon>& daemons_;
  const std::vector<Request>& requests_;
  std::vector<Conn> conns_;
  std::size_t cursor_ = 0;
  std::mutex mutex_;
  std::condition_variable drained_cv_;
  std::vector<Sample> samples_;
  std::size_t sent_ = 0;
  std::size_t received_ = 0;
};

/// Last reply minus last due time.
double drain_s(const RungResult& rung) {
  const double last_due =
      static_cast<double>(rung.scheduled > 0 ? rung.scheduled - 1 : 0) / rung.rate;
  return std::max(0.0, rung.seconds - last_due);
}

std::string render_rung(const RungResult& rung,
                        const std::vector<Request>& requests) {
  std::vector<double> latency;
  std::vector<double> late;
  std::vector<std::string> ops;
  std::vector<std::string> errors;
  for (const Sample& s : rung.samples) {
    latency.push_back(s.latency_ms);
    late.push_back(s.late_ms);
    const Request& r = requests[s.request % requests.size()];
    ops.push_back(r.op == "state" ? (s.cached ? "state_hit" : "state_miss")
                                  : r.op);
    errors.push_back(s.ok ? "" : s.error);
  }
  Result out;
  out.set("rate", rung.rate);
  out.set("scheduled", static_cast<double>(rung.scheduled));
  out.set("backlog_max", static_cast<double>(rung.backlog_max));
  out.set("drained", rung.drained ? 1.0 : 0.0);
  out.set("seconds", rung.seconds);
  out.set("drain_s", drain_s(rung));
  out.set("limit_ms", kLatencyLimitMs);
  out.set("cpu_s", rung.cpu_s);
  out.set("latency_ms", latency);
  out.set("late_ms", late);
  out.set("op", ops);
  out.set("error", errors);
  return out.str();
}

/// Per-layer numbers of one rung, from the replies and daemon counters.
std::map<std::string, double> serve_layers(const RungResult& rung) {
  std::map<std::string, double> L;
  const double n = std::max<double>(1.0, static_cast<double>(rung.samples.size()));
  std::vector<double> server_ms;
  std::vector<double> queue_ms;
  double payload = 0.0;
  double hits = 0.0;
  double hit_serialize = 0.0;
  double hit_slice = 0.0;
  double hit_total = 0.0;
  for (const char* stage :
       {"scan", "interpret", "pipeline", "slice", "serialize", "mine"}) {
    L[std::string("serve.") + stage + "_ms"] = 0.0;
  }
  for (const Sample& s : rung.samples) {
    server_ms.push_back(s.server_ms);
    queue_ms.push_back(s.latency_ms - s.server_ms);
    payload += static_cast<double>(s.payload_bytes);
    for (const auto& [stage, ms] : s.stages) {
      L["serve." + stage + "_ms"] += ms / n;
    }
    // A state hit: served from tier 2, so slice and serialize are its
    // only stages.
    const auto ser = s.stages.find("serialize");
    const auto slice = s.stages.find("slice");
    if (s.cached && slice != s.stages.end() && ser != s.stages.end()) {
      hits += 1.0;
      hit_serialize += ser->second;
      hit_slice += slice->second;
      hit_total += s.server_ms;
    }
  }
  L["serve.server_ms"] = median(server_ms);
  L["serve.queue_wire_ms"] = median(queue_ms);
  L["serve.payload_bytes_per_req"] = payload / n;
  L["serve.state_hit_serialize_frac"] =
      hit_total > 0.0 ? hit_serialize / hit_total : 0.0;
  L["serve.state_hit_serialize_ms"] = hit_serialize / std::max(1.0, hits);
  L["serve.state_hit_slice_ms"] = hit_slice / std::max(1.0, hits);
  L["serve.state_cache_hit_frac"] =
      rung.state_hits / std::max(1.0, rung.state_hits + rung.state_misses);
  L["serve.chunk_cache_hit_frac"] =
      rung.chunk_hits / std::max(1.0, rung.chunk_hits + rung.chunk_misses);
  L["serve.chunks_decoded_per_req"] = rung.chunks_decoded / n;
  return L;
}

}  // namespace

void generate_serve_requests(const Workload& workload, std::uint64_t seed,
                             const std::string& dir) {
  // The queries are fixed (the vehicle, and so its catalog, is the same
  // for every seed); the seed picks the journey they run on, the extract
  // windows and the request order. The mix is stratified — every block of
  // kBlock requests has the same composition — so the load does not
  // depend on the seed.
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL + 11);
  std::vector<std::vector<std::string>> state_bodies(workload.inputs.size());
  std::vector<std::vector<std::string>> mine_bodies(workload.inputs.size());
  std::vector<std::vector<std::string>> extract_bodies(workload.inputs.size());
  std::ofstream checks(dir + "/checks.tsv");
  std::ofstream warmup(dir + "/warmup.tsv");
  for (std::size_t s = 0; s < workload.inputs.size(); ++s) {
    const DatasetInput& input = workload.inputs[s];
    const ivt::signaldb::Catalog catalog =
        ivt::signaldb::load_catalog(input.catalog_path(dir));
    const ivt::colstore::ColumnarReader reader(input.trace_path(dir));
    std::int64_t t_min = reader.chunk(0).min_t_ns;
    std::int64_t t_max = reader.chunk(0).max_t_ns;
    for (const ivt::colstore::ChunkInfo& c : reader.chunks()) {
      t_min = std::min(t_min, c.min_t_ns);
      t_max = std::max(t_max, c.max_t_ns);
    }
    const std::vector<std::string> all = catalog.signal_names();
    // Key k takes n_k consecutive catalog signals from offset k·stride: a
    // third to a half of a small catalog, 24 to 40 of a large one.
    const std::size_t lo = std::min<std::size_t>(all.size() / 3, 24);
    const std::size_t hi = std::min<std::size_t>(all.size() / 2, 40);
    const auto subset = [&](std::size_t k, std::size_t offset) {
      const std::size_t n = lo + (hi - lo) * k / (kStateKeys - 1);
      std::vector<std::string> signals;
      for (std::size_t j = 0; j < n; ++j) {
        signals.push_back(
            all[(offset + k * all.size() / kStateKeys + j) % all.size()]);
      }
      return signals;
    };
    for (std::size_t k = 0; k < kStateKeys; ++k) {
      state_bodies[s].push_back(state_body(input.name, subset(k, 0), "state"));
      mine_bodies[s].push_back(state_body(input.name, subset(k, 0), "mine"));
    }
    const auto span = static_cast<std::uint64_t>(t_max - t_min);
    for (std::size_t k = 0; k < kExtractSlices; ++k) {
      const std::int64_t width = static_cast<std::int64_t>(span / 20);
      const std::int64_t start =
          t_min + static_cast<std::int64_t>(rng() % (span - span / 20));
      extract_bodies[s].push_back(extract_body(
          input.name, subset(k, all.size() / 2), start, start + width));
    }
    for (const std::string& body : state_bodies[s]) {
      warmup << s << "\tstate\t" << body << "\n";
    }
    for (const std::string& body : extract_bodies[s]) {
      warmup << s << "\textract\t" << body << "\n";
    }
    checks << s << "\tstate\t" << state_bodies[s][0] << "\n";
    checks << s << "\textract\t" << extract_bodies[s][0] << "\n";
  }
  std::vector<std::pair<std::size_t, std::string>> block;
  for (std::size_t i = 0; i < kBlock; ++i) {
    const std::size_t s = i % workload.inputs.size();
    const std::string op = i < kBlockState                  ? "state"
                           : i < kBlockState + kBlockMine ? "mine"
                                                          : "extract";
    block.emplace_back(s, op);
  }
  std::ofstream out(dir + "/requests.tsv");
  std::vector<std::size_t> next(3 * workload.inputs.size(), 0);
  for (std::size_t b = 0; b < kScheduleLength / kBlock; ++b) {
    std::shuffle(block.begin(), block.end(), rng);
    for (const auto& [s, op] : block) {
      // Keys rotate per (daemon, op) so every key recurs at the same rate.
      const std::size_t slot =
          s * 3 + (op == "state" ? 0 : op == "mine" ? 1 : 2);
      const std::size_t k = next[slot]++;
      const std::string& body =
          op == "state"  ? state_bodies[s][(k * 5) % kStateKeys]
          : op == "mine" ? mine_bodies[s][(k * 3) % kStateKeys]
                         : extract_bodies[s][(k * 5) % kExtractSlices];
      out << s << "\t" << op << "\t" << body << "\n";
    }
  }
}

int serve_oracle(const Workload& workload, const std::string& dir) {
  const std::vector<Request> checks = read_requests(dir + "/checks.tsv");
  ivt::dataflow::EngineConfig engine_config;
  engine_config.workers = kWorkers;
  ivt::dataflow::Engine engine(engine_config);
  std::vector<std::string> hashes;
  for (const Request& check : checks) {
    const DatasetInput& input = workload.inputs[check.server];
    const ivt::signaldb::Catalog catalog =
        ivt::signaldb::load_catalog(input.catalog_path(dir));
    const ivt::colstore::ColumnarReader reader(input.trace_path(dir));
    const json::Value body = json::parse(check.body);
    const std::vector<std::string> signals = body.get_string_list("signals");
    if (check.op == "state") {
      // Pipeline with the daemon's parameters, then op_state's projection.
      ivt::core::PipelineConfig config;
      config.signals = signals;
      const ivt::core::Pipeline pipeline(catalog, config);
      const ivt::core::PipelineResult result = pipeline.run(engine, reader);
      std::vector<std::string> columns{"t"};
      for (const std::string& s : signals) {
        if (result.state.schema().contains(s)) columns.push_back(s);
      }
      hashes.push_back(
          hash_csv(ivt::dataflow::project(engine, result.state, columns)));
    } else {
      const ivt::dataflow::Table urel =
          ivt::core::make_urel_table(catalog, signals);
      ivt::colstore::ScanPredicate pred = ivt::core::urel_scan_predicate(urel);
      pred.has_time_range = true;
      pred.min_t_ns = body.get_int("min_t_ns", 0);
      pred.max_t_ns = body.get_int("max_t_ns", 0);
      const ivt::dataflow::Table kb =
          reader.scan(pred, engine, ivt::colstore::ScanOptions{});
      ivt::core::InterpretOptions options;
      options.catalog = &catalog;
      hashes.push_back(hash_csv(
          ivt::core::extract_signals(engine, kb, urel, options)));
    }
  }
  Result out;
  out.set("check_hash", hashes);
  std::printf("%s\n", out.str().c_str());
  return 0;
}

int serve_measure(const Workload& workload, const std::string& dir,
                  double seconds, bool traced,
                  const std::string& chrome_trace_path) {
  const std::vector<Request> requests = read_requests(dir + "/requests.tsv");
  const std::vector<Request> checks = read_requests(dir + "/checks.tsv");
  const std::vector<Request> warmup = read_requests(dir + "/warmup.tsv");

  // Span recording off as in the pipeline workloads; the traced run
  // turns it on for one rung. One set-up per process; perfbench/run.py
  // runs several processes.
  ivt::obs::set_tracing_enabled(false);
  const double t0 = wall_s();
  std::vector<Daemon> daemons = start_daemons(workload, dir, warmup);
  const std::vector<double> setup_s{wall_s() - t0};

  Result out;
  out.set("setup_s", setup_s);
  std::vector<std::string> rungs;
  {
    Generator generator(daemons, requests);
    if (!traced) {
      rungs.push_back(render_rung(
          generator.run_rung(kReferenceRate, seconds), requests));
    } else {
      // The reference rung with the daemons' span recording off, then
      // again with it on (the daemons' own serve.* spans, one trace id
      // per request), then the ladder with it off, up to the first rung
      // whose backlog grew: the rungs above it would only queue more.
      const double traced_s = std::min(seconds / 2.0, kTracedRungSeconds);
      const RungResult plain =
          generator.run_rung(kReferenceRate, seconds - traced_s);
      ivt::obs::reset_spans();
      ivt::obs::set_tracing_enabled(true);
      const RunCounts runs_before = run_counts();
      const RungResult rung = generator.run_rung(kReferenceRate, traced_s);
      const RunCounts runs_after = run_counts();
      ivt::obs::set_tracing_enabled(false);
      const SpanSummary spans = SpanSummary::collect();
      ivt::obs::write_chrome_trace(chrome_trace_path);
      rungs.push_back(render_rung(rung, requests));
      std::map<std::string, double> L = serve_layers(rung);
      L["colstore.runs_pruned_frac"] =
          runs_pruned_frac(runs_before, runs_after);
      std::vector<double> plain_ms;
      for (const Sample& s : plain.samples) plain_ms.push_back(s.latency_ms);
      std::vector<double> traced_ms;
      for (const Sample& s : rung.samples) traced_ms.push_back(s.latency_ms);
      L["trace.untraced_p50_ms"] = median(plain_ms);
      L["trace.overhead_frac"] = median(traced_ms) / median(plain_ms) - 1.0;
      for (const auto& [layer, self] : spans.self_time_by_layer()) {
        L[layer + ".self_s"] = self;
      }
      out.set("layers", L);
      for (const double rate : kLadder) {
        const RungResult r = generator.run_rung(rate, kLadderSeconds);
        rungs.push_back(render_rung(r, requests));
        if (!r.drained || drain_s(r) * 1e3 > kLatencyLimitMs) break;
      }
    }
  }
  std::string joined = "[";
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    joined += (i > 0 ? "," : "") + rungs[i];
  }
  out.set_raw("rungs", joined + "]");

  // Output check, outside every timed interval: the check keys once more
  // over a blocking client, payloads hashed.
  std::vector<std::string> hashes;
  for (const Request& check : checks) {
    ivt::serve::Client client("127.0.0.1",
                              daemons[check.server]->port());
    const ivt::serve::ClientResponse response = client.request(check.body);
    hashes.push_back(response.ok() ? hash_bytes(response.payload)
                                   : "error:" + response.error_category());
  }
  out.set("check_hash", hashes);
  stop_daemons(daemons);
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace perfbench
