#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <fcntl.h>
#include <unistd.h>

#include "api/codec.h"
#include "api/service.h"
#include "api/wire_service.h"
#include "checker.h"
#include "cluster/router.h"
#include "cluster/shard_server.h"
#include "common/metrics.h"
#include "core/best_marginal.h"
#include "core/drilldown.h"
#include "data.h"
#include "explore/engine.h"
#include "explore/session.h"
#include "http_client.h"
#include "live/table_versions.h"
#include "net/exploration_http_adapter.h"
#include "net/http_server.h"
#include "sampling/sample_handler.h"
#include "storage/disk_table.h"
#include "storage/table_view.h"
#include "weights/standard_weights.h"
#include "weights/star_constraint.h"

namespace perfbench {
namespace {

namespace api = smartdd::api;
using smartdd::Status;

// --- Input sizes ---------------------------------------------------------
// cold-drill: one analyst, cache off, 7 columns.
constexpr uint64_t kColdRows = 100000;
/// Scripts between two runs of the append probe; divides the 18 of a pass.
constexpr size_t kColdScriptsPerRound = 6;
// repeat-cluster: two clients, two shard-server replicas behind a router.
constexpr uint64_t kRepeatRows = 100000;
constexpr size_t kRepeatClients = 2;
constexpr size_t kRepeatPaths = 24;
constexpr double kRepeatZipf = 1.1;
// live-append: one appender and two readers on a WAL-backed live table.
constexpr uint64_t kLiveBaseRows = 20000;
constexpr size_t kLiveReaders = 2;
/// Rows between two published versions. At the default of 256 a version
/// was published 14 times a second; each one made the next root expand a
/// cold search on a table that grows all run, so that the readers' tail and
/// throughput followed the append rate rather than the reads.
constexpr uint64_t kLiveSnapshotEveryRows = 2048;
/// The run is cut into this many equal slices, the rounds its metrics are
/// computed over.
constexpr size_t kLiveSlices = 20;
// sampled-disk: 68 columns on disk, sampler memory well below the table.
constexpr uint64_t kDiskRows = 100000;
constexpr size_t kDiskColumns = 68;
constexpr uint64_t kSamplerCapacity = 20000;
constexpr uint64_t kSamplerMinSample = 2000;
/// Share of sampled estimates that must hold the recounted mass inside
/// their reported 95% interval.
constexpr double kMinCiCoverage = 0.50;
// Append probe run by the workloads without a writer of their own: rows
// appended, with nothing else running, after every round of reads.
constexpr uint64_t kProbeBaseRows = 2000;
constexpr size_t kProbeAppendsPerRound = 1000;
// repeat-cluster round: scripts each client replays before the probe runs.
constexpr size_t kRepeatScriptsPerRound = 500;

const smartdd::SizeWeight& Weight() {
  static const smartdd::SizeWeight weight;
  return weight;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

uint64_t CounterValue(const char* name) {
  return smartdd::MetricsRegistry::Default().GetCounter(name, "").value();
}

// --- Requests ----------------------------------------------------------

struct Op {
  std::string verb;  ///< open, expand, star or close
  int node = 0;
  int column = -1;
};

bool IsExpand(const Op& op) { return op.verb == "expand" || op.verb == "star"; }

/// One drill script: the open parameters and how far to drill. The node
/// and column choices are made from the displayed tree with a generator
/// seeded by `choice_seed`, so every layer replaying the script makes the
/// same choices.
struct ScriptSpec {
  size_t k = 3;
  double mw = 3;
  uint64_t choice_seed = 0;
  std::string dataset;
  /// Expands after the root: 0, 1 or 2.
  int depth = 2;
  bool star = true;
};

std::string ArgsFor(const Op& op, const ScriptSpec& spec,
                    const std::string& token) {
  if (op.verb == "open") {
    std::string args = "k=" + std::to_string(spec.k) + " mw=" + Num(spec.mw);
    return spec.dataset.empty() ? args : "dataset=" + spec.dataset + " " + args;
  }
  if (op.verb == "close" || op.verb == "show") return token;
  std::string args = token + " " + std::to_string(op.node);
  if (op.verb == "star") args += " " + std::to_string(op.column);
  return args;
}

std::string TokenOf(const std::string& body) {
  const size_t at = body.find("\"session\":\"");
  return at == std::string::npos ? std::string() : body.substr(at + 11, 16);
}

/// The envelope minus its session token, for byte comparisons between
/// sessions that made the same requests.
std::string_view TreePart(const std::string& body) {
  const size_t at = body.find("\"tree\":");
  return at == std::string::npos ? std::string_view(body)
                                 : std::string_view(body).substr(at);
}

/// One way of reaching the program: answers a codec request (verb plus
/// arguments) with the JSON envelope.
class Endpoint {
 public:
  virtual ~Endpoint() = default;
  virtual bool Call(const std::string& verb, const std::string& args,
                    std::string* body) = 0;
  /// Set before each call so traced endpoints can tag their spans.
  uint64_t request = 0;
};

const char* RouteFor(const std::string& verb) {
  if (verb == "open") return "/v1/open";
  if (verb == "expand") return "/v1/expand";
  if (verb == "star") return "/v1/expandstar";
  if (verb == "close") return "/v1/close";
  if (verb == "show") return "/v1/tree";
  if (verb == "append") return "/v1/append";
  return "/v1/ping";
}

class HttpEndpoint final : public Endpoint {
 public:
  /// With a tracer, expand and star calls are recorded under `layer`.
  HttpEndpoint(uint16_t port, Tracer* tracer = nullptr,
               const char* layer = "net.http")
      : client_(port), tracer_(tracer), layer_(layer) {}

  bool Call(const std::string& verb, const std::string& args,
            std::string* body) override {
    const Clock::time_point start = Clock::now();
    HttpReply reply = client_.Post(RouteFor(verb), args);
    const Clock::time_point end = Clock::now();
    if (tracer_ != nullptr && (verb == "expand" || verb == "star")) {
      tracer_->Add(request, layer_, "", start, end);
    }
    *body = std::move(reply.body);
    return reply.status == 200;
  }

 private:
  HttpClient client_;
  Tracer* tracer_;
  const char* layer_;
};

/// In-process ExplorationService::Execute with the codec around it; times
/// parse + encode and execute apart, and notes whether the expansion cache
/// answered.
class ApiEndpoint final : public Endpoint {
 public:
  ApiEndpoint(api::ExplorationService* service, Tracer* tracer)
      : service_(service), tracer_(tracer) {}

  bool Call(const std::string& verb, const std::string& args,
            std::string* body) override {
    const std::string line = verb + " " + args;
    const uint64_t hits = CounterValue("smartdd_expansion_cache_hits_total");
    const Clock::time_point t0 = Clock::now();
    auto parsed = api::ParseRequest(line);
    const Clock::time_point t1 = Clock::now();
    api::Response response;
    if (parsed.ok()) {
      response = service_->Execute(*parsed);
    } else {
      response.status = parsed.status();
    }
    const Clock::time_point t2 = Clock::now();
    *body = api::EncodeResponse(response);
    const Clock::time_point t3 = Clock::now();
    last_hit = CounterValue("smartdd_expansion_cache_hits_total") > hits;
    if (verb == "expand" || verb == "star") {
      tracer_->Add(request, "api.serve_line", "net.http", t0, t3);
      tracer_->Add(request, "api.execute", "api.serve_line", t1, t2);
      tracer_->AddValue("api.codec",
                        MillisBetween(t0, t1) + MillisBetween(t2, t3));
    }
    return parsed.ok() && response.status.ok();
  }

  bool last_hit = false;

 private:
  api::ExplorationService* service_;
  Tracer* tracer_;
};

struct Exchange {
  Op op;
  double ms = 0;
  bool ok = false;
  bool hit = false;  ///< traced api layer only
  std::string body;
};

struct ScriptRun {
  std::vector<Exchange> log;
  std::string error;
};

bool Exec(Endpoint& ep, const Op& op, const ScriptSpec& spec,
          std::string* token, ScriptRun* run) {
  Exchange ex;
  ex.op = op;
  const Clock::time_point start = Clock::now();
  const bool transport_ok = ep.Call(op.verb, ArgsFor(op, spec, *token), &ex.body);
  ex.ms = MillisBetween(start, Clock::now());
  ex.ok = transport_ok && ex.body.rfind("{\"ok\":true", 0) == 0;
  if (auto* api_ep = dynamic_cast<ApiEndpoint*>(&ep)) ex.hit = api_ep->last_hit;
  if (op.verb == "open" && ex.ok) *token = TokenOf(ex.body);
  const bool ok = ex.ok;
  if (!ok && run->error.empty()) {
    run->error = op.verb + " failed: " + ex.body.substr(0, 200);
  }
  run->log.push_back(std::move(ex));
  ++ep.request;
  return ok;
}

/// Children of `parent` whose weight leaves room below mw.
std::vector<int> Drillable(const Tree& tree, int parent, double mw) {
  std::vector<int> out;
  const TreeNode* p = tree.Find(parent);
  if (p == nullptr) return out;
  for (int id : p->children) {
    const TreeNode* k = tree.Find(id);
    if (k != nullptr && k->weight < mw) out.push_back(id);
  }
  return out;
}

/// Runs one script, choosing each next step from the tree just returned:
/// expand the root, expand one drillable child, then one of its drillable
/// children (or a sibling), then star a node that sits at least two
/// weight units below mw on one of its free columns, then close.
ScriptRun RunAdaptive(Endpoint& ep, const ScriptSpec& spec, size_t columns) {
  ScriptRun run;
  Rng rng(spec.choice_seed);
  std::string token;
  Tree tree;
  auto step = [&](Op op) {
    if (!Exec(ep, op, spec, &token, &run)) return false;
    const std::string err =
        ParseEnvelope(run.log.back().body, columns, &tree, nullptr);
    if (!err.empty() && run.error.empty()) run.error = err;
    return err.empty();
  };
  if (!step({"open"}) || !step({"expand", 0})) {
    Exec(ep, {"close"}, spec, &token, &run);
    return run;
  }
  std::vector<int> first = Drillable(tree, 0, spec.mw);
  if (spec.depth >= 1 && !first.empty()) {
    const int a = first[rng.Below(first.size())];
    if (step({"expand", a}) && spec.depth >= 2) {
      std::vector<int> next = Drillable(tree, a, spec.mw);
      if (next.empty()) {
        for (int id : Drillable(tree, 0, spec.mw)) {
          if (id != a) next.push_back(id);
        }
      }
      if (!next.empty()) step({"expand", next[rng.Below(next.size())]});
    }
  }
  if (spec.star) {
    std::vector<const TreeNode*> candidates;
    for (const TreeNode& n : tree.nodes) {
      if (n.weight + 2 <= spec.mw) candidates.push_back(&n);
    }
    if (!candidates.empty()) {
      const TreeNode* s = candidates[rng.Below(candidates.size())];
      std::vector<int> free;
      for (size_t c = 0; c < s->cells.size(); ++c) {
        if (s->cells[c] < 0) free.push_back(static_cast<int>(c));
      }
      if (!free.empty()) {
        Op op{"star", s->id, free[rng.Below(free.size())]};
        step(op);
      }
    }
  }
  Exec(ep, {"close"}, spec, &token, &run);
  return run;
}

/// Replays the ops of an earlier run without looking at the answers.
ScriptRun Replay(Endpoint& ep, const ScriptSpec& spec,
                 const std::vector<Exchange>& script) {
  ScriptRun run;
  std::string token;
  for (const Exchange& ex : script) Exec(ep, ex.op, spec, &token, &run);
  return run;
}

// --- Untraced measurements ----------------------------------------------

/// Timings of one round of a run: a stretch of reads followed by a block
/// of the append probe, or one slice of the run on live-append.
struct Round {
  std::vector<double> expand_ms;
  std::vector<double> first_summary_ms;
  std::vector<double> append_ms;
  /// Time the round's expand requests are counted over.
  double read_s = 0;
  /// Time the round's appends are counted over.
  double append_s = 0;

  void Merge(const Round& o) {
    expand_ms.insert(expand_ms.end(), o.expand_ms.begin(), o.expand_ms.end());
    first_summary_ms.insert(first_summary_ms.end(), o.first_summary_ms.begin(),
                            o.first_summary_ms.end());
    append_ms.insert(append_ms.end(), o.append_ms.begin(), o.append_ms.end());
  }
};

/// A run's timings, round by round.
struct LoadStats {
  std::vector<Round> rounds = std::vector<Round>(1);
  uint64_t attempted = 0;
  uint64_t failed = 0;

  Round& round() { return rounds.back(); }
  void NextRound() { rounds.emplace_back(); }
  /// Makes round `index` (and every one before it) exist and current.
  void AtRound(size_t index) {
    while (rounds.size() <= index) rounds.emplace_back();
  }

  void Account(const ScriptRun& run) {
    for (size_t i = 0; i < run.log.size(); ++i) {
      const Exchange& ex = run.log[i];
      ++attempted;
      if (!ex.ok) {
        ++failed;
        continue;
      }
      if (IsExpand(ex.op)) round().expand_ms.push_back(ex.ms);
      if (i == 1 && ex.op.verb == "expand" && run.log[0].ok) {
        round().first_summary_ms.push_back(run.log[0].ms + ex.ms);
      }
    }
  }
  /// Merges samples round by round; round times stay the caller's to set.
  void Merge(const LoadStats& o) {
    AtRound(o.rounds.size() - 1);
    for (size_t i = 0; i < o.rounds.size(); ++i) rounds[i].Merge(o.rounds[i]);
    attempted += o.attempted;
    failed += o.failed;
  }
  size_t expands() const {
    size_t n = 0;
    for (const Round& r : rounds) n += r.expand_ms.size();
    return n;
  }
};

/// Stands an HTTP server up in front of a wire service.
class HttpFront {
 public:
  explicit HttpFront(api::WireService* wire)
      : adapter_(wire), server_(adapter_.AsHandler()) {}
  explicit HttpFront(api::ExplorationService* service)
      : adapter_(service), server_(adapter_.AsHandler()) {}
  ~HttpFront() { server_.Shutdown(); }
  HttpFront(const HttpFront&) = delete;
  HttpFront& operator=(const HttpFront&) = delete;

  Status Start() { return server_.Start(); }
  void Shutdown() { server_.Shutdown(); }
  uint16_t port() const { return server_.port(); }

 private:
  smartdd::net::ExplorationHttpAdapter adapter_;
  smartdd::net::HttpServer server_;
};

/// A small WAL-backed live table behind its own HTTP server, for the
/// workloads whose own traffic has no writer. After every round of reads
/// one client appends a block of rows to it, so the appends are timed
/// throughout the run rather than in one burst at its end, and alone, so
/// they price the WAL path and not contention with the reads.
class AppendProbe {
 public:
  AppendProbe(uint64_t seed, const std::string& wal_path)
      : data_(Generate({kProbeBaseRows, 7, seed ^ 0xA99E})),
        rng_(seed ^ 0x9E0BE),
        wal_path_(wal_path) {}
  ~AppendProbe() { std::remove(wal_path_.c_str()); }
  AppendProbe(const AppendProbe&) = delete;
  AppendProbe& operator=(const AppendProbe&) = delete;

  Status Start() {
    std::remove(wal_path_.c_str());
    smartdd::Table base = LoadTable(data_, kProbeBaseRows);
    base.Freeze();
    SMARTDD_RETURN_IF_ERROR(
        service_.AddLiveTable("probe", std::move(base), Weight(), wal_path_));
    front_ = std::make_unique<HttpFront>(&service_);
    SMARTDD_RETURN_IF_ERROR(front_->Start());
    client_ = std::make_unique<HttpClient>(front_->port());
    return Status::OK();
  }

  /// Appends `n` rows, timing each acknowledgement. One thread at a time.
  void Append(size_t n, LoadStats* stats) {
    AppendRows(&data_, n, rng_);
    for (uint64_t r = data_.rows() - n; r < data_.rows(); ++r) {
      const Clock::time_point start = Clock::now();
      HttpReply reply = client_->Post("/v1/append", "dataset=probe " + CsvRow(data_, r));
      const double ms = MillisBetween(start, Clock::now());
      ++stats->attempted;
      stats->round().append_s += ms / 1e3;
      if (reply.status == 200 && reply.body.rfind("{\"ok\":true", 0) == 0) {
        stats->round().append_ms.push_back(ms);
        ++acked_;
      } else {
        ++stats->failed;
      }
    }
  }

  /// Publishes the pending rows; returns "" or the first fault.
  std::string Finish() {
    smartdd::live::LiveTable* live = service_.FindLiveTable("probe");
    const uint64_t rows = live->PublishSnapshot()->table.num_rows();
    if (rows != kProbeBaseRows + acked_) {
      return "append probe: table holds " + std::to_string(rows) +
             " rows after " + std::to_string(acked_) + " acknowledged appends";
    }
    return "";
  }

 private:
  Dataset data_;
  Rng rng_;
  std::string wal_path_;
  api::ExplorationService service_;
  std::unique_ptr<HttpFront> front_;
  std::unique_ptr<HttpClient> client_;
  uint64_t acked_ = 0;
};

/// Ends a round of single-client reads: notes its read time, then runs the
/// append probe alone.
void CloseRound(AppendProbe& probe, Clock::time_point* round_start, LoadStats* stats) {
  stats->round().read_s = MillisBetween(*round_start, Clock::now()) / 1e3;
  probe.Append(kProbeAppendsPerRound, stats);
  stats->NextRound();
  *round_start = Clock::now();
}

/// Median over the rounds that have samples of `stat(round)`.
double MedianOverRounds(const LoadStats& s,
                        const std::function<std::optional<double>(const Round&)>& stat) {
  std::vector<double> values;
  for (const Round& r : s.rounds) {
    if (std::optional<double> v = stat(r)) values.push_back(*v);
  }
  return Quantile(values, 0.5);
}

/// How the read metrics of a run are summarised.
enum class Summary {
  /// Quantiles over every sample of the run: for workloads that run whole
  /// passes of a fixed script catalogue, where a round holds too few
  /// requests for a tail.
  kWholeRun,
  /// The median over rounds of each round's quantile: for workloads whose
  /// rounds all have the same mix, so that a burst of interference from
  /// the host that hits a few rounds does not move it.
  kPerRound,
};

/// End-to-end metrics, in BENCHMARK.json order. The append metrics are
/// always per round: the probe runs in one block per round.
void EndToEnd(double setup_s, const LoadStats& s, Summary summary, RunResult* out) {
  auto add = [&](const char* name, double v, const char* unit) {
    out->metrics.push_back({name, v, unit});
  };
  auto quantile = [&](std::vector<double> Round::*samples, double q) {
    return MedianOverRounds(s, [&](const Round& r) -> std::optional<double> {
      if ((r.*samples).empty()) return std::nullopt;
      return Quantile(r.*samples, q);
    });
  };
  auto rate = [&](std::vector<double> Round::*samples, double Round::*seconds) {
    return MedianOverRounds(s, [&](const Round& r) -> std::optional<double> {
      if ((r.*samples).empty() || !(r.*seconds > 0)) return std::nullopt;
      return static_cast<double>((r.*samples).size()) / (r.*seconds);
    });
  };
  add("setup_s", setup_s, "s");
  if (summary == Summary::kWholeRun) {
    Round all;
    double read_s = 0;
    for (const Round& r : s.rounds) {
      all.Merge(r);
      read_s += r.read_s;
    }
    add("first_summary_ms", Quantile(all.first_summary_ms, 0.5), "ms");
    add("expand_p50_ms", Quantile(all.expand_ms, 0.5), "ms");
    add("expand_p95_ms", Quantile(all.expand_ms, 0.95), "ms");
    add("expands_per_s", static_cast<double>(all.expand_ms.size()) / read_s, "1/s");
  } else {
    add("first_summary_ms", quantile(&Round::first_summary_ms, 0.5), "ms");
    add("expand_p50_ms", quantile(&Round::expand_ms, 0.5), "ms");
    add("expand_p95_ms", quantile(&Round::expand_ms, 0.95), "ms");
    add("expands_per_s", rate(&Round::expand_ms, &Round::read_s), "1/s");
  }
  add("append_p50_ms", quantile(&Round::append_ms, 0.5), "ms");
  add("append_p95_ms", quantile(&Round::append_ms, 0.95), "ms");
  add("appends_per_s", rate(&Round::append_ms, &Round::append_s), "1/s");
  add("peak_rss_mb", PeakRssMb(), "MB");
  out->attempted = s.attempted;
  out->failed = s.failed;
  if (s.expands() < 200) {
    out->errors.push_back("only " + std::to_string(s.expands()) +
                          " expand requests were timed; at least 200 are needed");
  }
}

/// Forces a file the benchmark generated out to the device, so that the
/// WAL fsyncs timed later do not pay for its dirty pages.
void SyncFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

double SecondsSince(Clock::time_point t) {
  return MillisBetween(t, Clock::now()) / 1e3;
}

// --- Traced replay -------------------------------------------------------

/// Per-layer accumulators for a traced run, reported as per_layer metrics.
struct LayerTotals {
  Tracer tracer;
  smartdd::MarginalSearchStats core;
  uint64_t core_expands = 0;
  double freeze_ms = 0;
  double resident_mb = 0;
  double scan_ms = 0;
  // sampling
  uint64_t sample_requests = 0;
  uint64_t sample_creates = 0;
  uint64_t sample_scans = 0;
  uint64_t sample_reuse = 0;
  // cache
  uint64_t cache_hits0 = 0, cache_misses0 = 0, cache_evictions0 = 0,
           cache_waits0 = 0, rpc_calls0 = 0;
  double cache_bytes = 0;
  // live
  double wal_bytes_per_row = 0;
  double versions = 0;

  void StartCounters() {
    cache_hits0 = CounterValue("smartdd_expansion_cache_hits_total");
    cache_misses0 = CounterValue("smartdd_expansion_cache_misses_total");
    cache_evictions0 = CounterValue("smartdd_expansion_cache_evictions_total");
    cache_waits0 = CounterValue("smartdd_expansion_cache_singleflight_waits_total");
    rpc_calls0 = CounterValue("smartdd_rpc_client_calls_total");
  }
};

smartdd::Rule RuleOf(const TreeNode& node) {
  std::vector<uint32_t> values;
  for (int v : node.cells) {
    values.push_back(v < 0 ? smartdd::kStar : static_cast<uint32_t>(v));
  }
  return smartdd::Rule(std::move(values));
}

/// Replays the expansions of an api-layer run one layer down: the core
/// search (SmartDrillDown over the table, or over the sample the handler
/// returns) and ExplorationSession::Expand on `engine`. Requests the
/// expansion cache answered at the api layer cost these layers nothing and
/// are filed as zero.
std::string ReplayBelowApi(smartdd::ExplorationEngine& engine,
                           const smartdd::Table* table,
                           smartdd::SampleHandler* sampler,
                           const ScriptSpec& spec, const ScriptRun& api_run,
                           uint64_t first_request, size_t columns,
                           LayerTotals* totals) {
  smartdd::SessionOptions options;
  options.k = spec.k;
  options.max_weight = spec.mw;
  auto session = engine.NewSession(options);
  if (!session.ok()) return "explore: " + session.status().ToString();
  Tracer& tracer = totals->tracer;
  Tree before;
  for (size_t i = 0; i < api_run.log.size(); ++i) {
    const Exchange& ex = api_run.log[i];
    const uint64_t request = first_request + i;
    if (IsExpand(ex.op)) {
      const TreeNode* node = before.Find(ex.op.node);
      if (node == nullptr) return "explore: replayed node is not displayed";
      const smartdd::Rule rule = RuleOf(*node);
      std::optional<size_t> star;
      if (ex.op.verb == "star") star = static_cast<size_t>(ex.op.column);
      if (ex.hit) {
        tracer.AddValue("core.brs", 0);
        tracer.AddValue("explore.expand", 0);
      } else {
        smartdd::DrillDownRequest req;
        req.base = rule;
        req.star_column = star;
        req.k = spec.k;
        req.max_weight = spec.mw;
        std::optional<smartdd::SampleRequest> sample;
        if (sampler != nullptr) {
          const Clock::time_point s0 = Clock::now();
          auto got = sampler->GetSampleFor(rule, 1);
          tracer.Add(request, "sampling.get_sample", "explore.expand", s0,
                     Clock::now());
          if (!got.ok()) return "sampling: " + got.status().ToString();
          sample = std::move(*got);
          ++totals->sample_requests;
        }
        const smartdd::TableView view(sample ? sample->table : *table);
        const Clock::time_point c0 = Clock::now();
        auto drilled = smartdd::SmartDrillDown(view, Weight(), req);
        tracer.Add(request, "core.brs", "explore.expand", c0, Clock::now());
        if (!drilled.ok()) return "core: " + drilled.status().ToString();
        totals->core.Accumulate(drilled->stats);
        tracer.AddValue("core.merge", drilled->stats.merge_seconds * 1e3);
        ++totals->core_expands;
        if (ex.op.verb == "expand" && ex.op.node == 0) {
          smartdd::MarginalSearchOptions p1;
          p1.max_weight = spec.mw;
          p1.max_rule_size = 1;
          smartdd::MarginalRuleFinder finder(view, Weight(), p1);
          std::vector<double> covered(view.num_rows(), 0.0);
          const Clock::time_point p0 = Clock::now();
          auto found = finder.Find(covered);
          tracer.Add(request, "core.pass1", "core.brs", p0, Clock::now());
          (void)found;
        }
      }
      const Clock::time_point e0 = Clock::now();
      auto expanded = star ? session->ExpandStar(ex.op.node, *star)
                           : session->Expand(ex.op.node);
      const Clock::time_point e1 = Clock::now();
      if (!ex.hit) tracer.Add(request, "explore.expand", "api.execute", e0, e1);
      if (!expanded.ok()) return "explore: " + expanded.status().ToString();
    }
    if (ex.ok && ex.body.find("\"tree\":") != std::string::npos) {
      const std::string err = ParseEnvelope(ex.body, columns, &before, nullptr);
      if (!err.empty()) return err;
    }
  }
  return "";
}

void PerLayer(const LayerTotals& t, bool cluster, RunResult* out) {
  auto add = [&](const char* name, double v, const char* unit) {
    out->metrics.push_back({name, v, unit});
  };
  const Tracer& tr = t.tracer;
  const double core = tr.Median("core.brs");
  const double explore = tr.Median("explore.expand");
  const double execute = tr.Median("api.execute");
  const double serve = tr.Median("api.serve_line");
  const double http = tr.Median("net.http");
  const double via_router = tr.Median("cluster.http");
  const double codec = tr.Median("api.codec");
  const double n = static_cast<double>(std::max<uint64_t>(t.core_expands, 1));
  add("storage.scan_ms", t.scan_ms, "ms");
  add("storage.freeze_ms", t.freeze_ms, "ms");
  add("storage.resident_mb", t.resident_mb, "MB");
  add("core.brs_ms", core, "ms");
  add("core.pass1_ms", tr.Median("core.pass1"), "ms");
  add("core.merge_ms", tr.Median("core.merge"), "ms");
  add("core.passes", static_cast<double>(t.core.passes) / n, "count");
  add("core.candidates_counted",
      static_cast<double>(t.core.candidates_counted) / n, "count");
  add("core.candidates_pruned",
      static_cast<double>(t.core.candidates_pruned) / n, "count");
  add("core.tuple_visits", static_cast<double>(t.core.tuple_visits) / n, "count");
  add("explore.expand_ms", explore, "ms");
  add("explore.engine_create_ms", tr.Median("explore.engine_create"), "ms");
  add("sampling.get_sample_ms", tr.Median("sampling.get_sample"), "ms");
  add("sampling.requests", static_cast<double>(t.sample_requests), "count");
  add("sampling.creates", static_cast<double>(t.sample_creates), "count");
  add("sampling.scans", static_cast<double>(t.sample_scans), "count");
  add("sampling.reuse_ratio",
      t.sample_requests == 0 ? 0
                             : static_cast<double>(t.sample_reuse) /
                                   static_cast<double>(t.sample_requests),
      "ratio");
  const double hits = static_cast<double>(
      CounterValue("smartdd_expansion_cache_hits_total") - t.cache_hits0);
  const double misses = static_cast<double>(
      CounterValue("smartdd_expansion_cache_misses_total") - t.cache_misses0);
  add("cache.hits", hits, "count");
  add("cache.misses", misses, "count");
  add("cache.lookups", hits + misses, "count");
  add("cache.hit_ratio", hits + misses == 0 ? 0 : hits / (hits + misses), "ratio");
  add("cache.evictions",
      static_cast<double>(CounterValue("smartdd_expansion_cache_evictions_total") -
                          t.cache_evictions0),
      "count");
  add("cache.singleflight_waits",
      static_cast<double>(
          CounterValue("smartdd_expansion_cache_singleflight_waits_total") -
          t.cache_waits0),
      "count");
  add("cache.bytes", t.cache_bytes, "bytes");
  add("api.execute_us", (execute - explore) * 1e3, "us");
  add("api.codec_us", codec * 1e3, "us");
  add("net.http_us", (http - serve) * 1e3, "us");
  add("cluster.hop_us", cluster ? (via_router - http) * 1e3 : 0, "us");
  add("rpc.calls",
      static_cast<double>(CounterValue("smartdd_rpc_client_calls_total") -
                          t.rpc_calls0),
      "count");
  add("live.append_us", tr.Median("live.append") * 1e3, "us");
  add("live.sync_us", tr.Median("live.sync") * 1e3, "us");
  add("live.wal_bytes_per_row", t.wal_bytes_per_row, "bytes");
  add("live.publish_ms", tr.Median("live.publish"), "ms");
  add("live.versions", t.versions, "count");
  add("trace.requests", static_cast<double>(tr.Count("api.execute")), "count");
  add("trace.layer_sum_ms",
      core + (explore - core) + (execute - explore) + codec + (http - serve) +
          (cluster ? via_router - http : 0),
      "ms");
}

void FinishTrace(const RunOptions& opt, LayerTotals& totals, bool cluster,
                 RunResult* out) {
  PerLayer(totals, cluster, out);
  const std::string path = opt.work_dir + "/trace-" + opt.workload + "-" +
                           std::to_string(opt.seed) + ".jsonl";
  if (!totals.tracer.Write(path)) out->errors.push_back("cannot write " + path);
}

std::string WorkFile(const RunOptions& opt, const std::string& name) {
  return opt.work_dir + "/" + opt.workload + "-" + std::to_string(::getpid()) +
         "-" + name;
}

/// Traced replay of exact drill scripts against one service: api layer
/// first (it decides the steps and notes cache hits), then the layers
/// below it, then the same requests over HTTP, and over the router when
/// `router_port` is set.
struct ExactReplay {
  api::ExplorationService* service;
  smartdd::ExplorationEngine* engine;
  const smartdd::Table* table;
  uint16_t http_port;
  uint16_t router_port = 0;
  size_t columns = 7;
};

std::string ReplayScript(const ExactReplay& r, const ScriptSpec& spec,
                         const std::vector<Exchange>* fixed, LayerTotals* totals,
                         uint64_t* next_request, RunResult* out,
                         std::vector<Exchange>* ops_out) {
  ApiEndpoint api_ep(r.service, &totals->tracer);
  api_ep.request = *next_request;
  ScriptRun api_run = fixed != nullptr ? Replay(api_ep, spec, *fixed)
                                       : RunAdaptive(api_ep, spec, r.columns);
  for (const Exchange& ex : api_run.log) {
    ++out->attempted;
    if (!ex.ok) ++out->failed;
  }
  if (!api_run.error.empty()) return api_run.error;
  std::string err = ReplayBelowApi(*r.engine, r.table, nullptr, spec, api_run,
                                   *next_request, r.columns, totals);
  if (!err.empty()) return err;
  HttpEndpoint http_ep(r.http_port, &totals->tracer, "net.http");
  http_ep.request = *next_request;
  ScriptRun http_run = Replay(http_ep, spec, api_run.log);
  if (!http_run.error.empty()) return http_run.error;
  if (r.router_port != 0) {
    HttpEndpoint router_ep(r.router_port, &totals->tracer, "cluster.http");
    router_ep.request = *next_request;
    ScriptRun router_run = Replay(router_ep, spec, api_run.log);
    if (!router_run.error.empty()) return router_run.error;
  }
  *next_request += api_run.log.size();
  if (ops_out != nullptr) *ops_out = std::move(api_run.log);
  return "";
}

// --- cold-drill ----------------------------------------------------------

/// The seed changes the rows and the script order, not the choice seeds:
/// the tables of two seeds share their distribution, so the scripts drill
/// trees of much the same shape and a round costs much the same.
std::vector<ScriptSpec> ColdCatalogue(uint64_t seed) {
  std::vector<ScriptSpec> out;
  Rng rng(seed * 7919 + 1);
  Rng choices(7919);
  for (size_t k : {2, 3, 4}) {
    for (double mw : {2.0, 3.0, 4.0}) {
      for (int variant = 0; variant < 2; ++variant) {
        ScriptSpec s;
        s.k = k;
        s.mw = mw;
        s.choice_seed = choices.Next();
        out.push_back(s);
      }
    }
  }
  for (size_t i = out.size(); i > 1; --i) std::swap(out[i - 1], out[rng.Below(i)]);
  return out;
}

/// Checks exact drill-script answers over rows [0, rows): every tree
/// recounted, and the best-pick brute force once per (mw, star) kind.
void CheckExactRuns(const std::vector<std::pair<ScriptSpec, ScriptRun>>& runs,
                    Checker& checker, uint64_t rows, size_t columns,
                    RunResult* out) {
  std::set<std::pair<double, bool>> brute_forced;
  for (const auto& [spec, run] : runs) {
    Tree before;
    for (const Exchange& ex : run.log) {
      if (!ex.ok) continue;
      if (ex.body.find("\"tree\":") == std::string::npos) continue;
      Tree tree;
      std::string err = ParseEnvelope(ex.body, columns, &tree, nullptr);
      if (err.empty()) err = checker.CheckExact(tree, rows);
      if (err.empty() && ex.op.verb == "star") {
        const TreeNode* p = tree.Find(ex.op.node);
        for (int id : p->children) {
          if (tree.Find(id)->cells[ex.op.column] < 0) {
            err = "star child leaves the clicked column starred";
          }
        }
      }
      if (err.empty() && IsExpand(ex.op) &&
          brute_forced.insert({spec.mw, ex.op.verb == "star"}).second) {
        std::optional<size_t> star;
        if (ex.op.verb == "star") star = static_cast<size_t>(ex.op.column);
        err = checker.CheckBestPick(tree, ex.op.node, spec.mw, rows, star);
      }
      if (!err.empty()) {
        out->errors.push_back(err);
        return;
      }
      before = std::move(tree);
    }
  }
  if (checker.brute_force_checks() == 0) {
    out->errors.push_back("no expansion was checked against brute force");
  }
}

RunResult ColdDrill(const RunOptions& opt) {
  RunResult out;
  const Dataset data = Generate({kColdRows, 7, opt.seed});
  smartdd::Table table = LoadTable(data, data.rows());
  const Clock::time_point f0 = Clock::now();
  table.Freeze();
  const double freeze_ms = MillisBetween(f0, Clock::now());
  const Clock::time_point e0 = Clock::now();
  auto engine = smartdd::ExplorationEngine::Create(table, Weight());
  const double engine_ms = MillisBetween(e0, Clock::now());
  if (!engine.ok()) return {0, 0, {}, {engine.status().ToString()}};
  api::ServiceOptions options;
  options.cache_max_bytes = 0;
  api::ExplorationService service(options);
  SMARTDD_CHECK(service.AddEngine("census", engine->get()).ok());
  HttpFront front(&service);
  AppendProbe probe(opt.seed, WorkFile(opt, "probe.wal"));
  if (Status s = front.Start(); !s.ok()) return {0, 0, {}, {s.ToString()}};
  if (Status s = probe.Start(); !s.ok()) return {0, 0, {}, {s.ToString()}};
  const double setup_s = SecondsSince(opt.process_start);
  const std::vector<ScriptSpec> catalogue = ColdCatalogue(opt.seed);
  Checker checker(data);

  if (opt.trace) {
    LayerTotals totals;
    totals.freeze_ms = freeze_ms;
    totals.resident_mb = static_cast<double>(table.resident_column_bytes()) / (1 << 20);
    totals.tracer.AddValue("explore.engine_create", engine_ms);
    totals.StartCounters();
    ExactReplay r{&service, engine->get(), &table, front.port()};
    uint64_t next = 0;
    std::vector<std::pair<ScriptSpec, ScriptRun>> runs;
    const Clock::time_point begin = Clock::now();
    for (size_t i = 0; i % catalogue.size() != 0 || SecondsSince(begin) < opt.seconds;
         ++i) {
      const ScriptSpec& spec = catalogue[i % catalogue.size()];
      ScriptRun run;
      std::string err = ReplayScript(r, spec, nullptr, &totals, &next, &out, &run.log);
      if (!err.empty()) {
        out.errors.push_back(err);
        break;
      }
      runs.emplace_back(spec, std::move(run));
    }
    FinishTrace(opt, totals, false, &out);
    CheckExactRuns(runs, checker, data.rows(), 7, &out);
    return out;
  }

  LoadStats stats;
  std::vector<std::pair<ScriptSpec, ScriptRun>> runs;
  HttpEndpoint ep(front.port());
  const Clock::time_point begin = Clock::now();
  Clock::time_point round_start = begin;
  for (size_t i = 0; i % catalogue.size() != 0 || SecondsSince(begin) < opt.seconds;
       ++i) {
    const ScriptSpec& spec = catalogue[i % catalogue.size()];
    ScriptRun run = RunAdaptive(ep, spec, 7);
    stats.Account(run);
    if (!run.error.empty()) out.errors.push_back(run.error);
    runs.emplace_back(spec, std::move(run));
    if ((i + 1) % kColdScriptsPerRound == 0) CloseRound(probe, &round_start, &stats);
  }
  stats.rounds.pop_back();  // opened after the last round closed
  if (std::string err = probe.Finish(); !err.empty()) out.errors.push_back(err);
  EndToEnd(setup_s, stats, Summary::kWholeRun, &out);
  CheckExactRuns(runs, checker, data.rows(), 7, &out);
  return out;
}

// --- repeat-cluster ------------------------------------------------------

/// One shard-server replica: its own engine, service (default expansion
/// cache) and RPC server.
struct Replica {
  Replica(const smartdd::Table& table, uint64_t token_seed)
      : engine(std::move(*smartdd::ExplorationEngine::Create(table, Weight()))),
        service([&] {
          api::ServiceOptions o;
          o.token_seed = token_seed;
          return o;
        }()),
        wire(&service),
        server(&wire) {
    SMARTDD_CHECK(service.AddEngine("census", engine.get()).ok());
  }
  ~Replica() { server.Shutdown(); }
  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  std::unique_ptr<smartdd::ExplorationEngine> engine;
  api::ExplorationService service;
  api::LocalWireService wire;
  smartdd::cluster::ShardServer server;
};

std::vector<ScriptSpec> RepeatCatalogue(uint64_t seed) {
  std::vector<ScriptSpec> out;
  Rng rng(seed * 104729 + 3);
  for (size_t i = 0; i < kRepeatPaths; ++i) {
    ScriptSpec s;
    s.k = 2 + i % 3;
    s.mw = 2 + static_cast<double>((i / 3) % 2);
    s.choice_seed = rng.Next();
    out.push_back(s);
  }
  for (size_t i = out.size(); i > 1; --i) std::swap(out[i - 1], out[rng.Below(i)]);
  return out;
}

RunResult RepeatCluster(const RunOptions& opt) {
  RunResult out;
  const Dataset data = Generate({kRepeatRows, 7, opt.seed});
  smartdd::Table table = LoadTable(data, data.rows());
  const Clock::time_point f0 = Clock::now();
  table.Freeze();
  const double freeze_ms = MillisBetween(f0, Clock::now());
  Replica a(table, 0x1111 + opt.seed * 2);
  Replica b(table, 0x2222 + opt.seed * 2 + 1);
  if (Status s = a.server.Start(); !s.ok()) return {0, 0, {}, {s.ToString()}};
  if (Status s = b.server.Start(); !s.ok()) return {0, 0, {}, {s.ToString()}};
  smartdd::cluster::Router router({{"127.0.0.1", a.server.port()},
                                   {"127.0.0.1", b.server.port()}});
  if (Status s = router.Start(); !s.ok()) return {0, 0, {}, {s.ToString()}};
  for (int i = 0; i < 200 && !(router.backend_healthy(0) && router.backend_healthy(1)); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  HttpFront front(&router);
  AppendProbe probe(opt.seed, WorkFile(opt, "probe.wal"));
  if (Status s = front.Start(); !s.ok()) return {0, 0, {}, {s.ToString()}};
  if (Status s = probe.Start(); !s.ok()) return {0, 0, {}, {s.ToString()}};
  const double setup_s = SecondsSince(opt.process_start);
  const std::vector<ScriptSpec> paths = RepeatCatalogue(opt.seed);
  const Zipf popularity(kRepeatPaths, kRepeatZipf);
  Checker checker(data);

  if (opt.trace) {
    HttpFront direct(&a.service);
    if (Status s = direct.Start(); !s.ok()) return {0, 0, {}, {s.ToString()}};
    LayerTotals totals;
    totals.freeze_ms = freeze_ms;
    totals.resident_mb = static_cast<double>(table.resident_column_bytes()) / (1 << 20);
    totals.StartCounters();
    ExactReplay r{&a.service, a.engine.get(), &table, direct.port(), front.port()};
    std::map<size_t, std::vector<Exchange>> seen;
    std::vector<std::pair<ScriptSpec, ScriptRun>> runs;
    Rng rng(opt.seed * 31 + 7);
    uint64_t next = 0;
    const Clock::time_point begin = Clock::now();
    for (size_t i = 0; i == 0 || SecondsSince(begin) < opt.seconds; ++i) {
      const size_t p = popularity.Draw(rng);
      auto it = seen.find(p);
      std::vector<Exchange> log;
      std::string err = ReplayScript(r, paths[p], it == seen.end() ? nullptr : &it->second,
                                     &totals, &next, &out, &log);
      if (!err.empty()) {
        out.errors.push_back(err);
        break;
      }
      if (it == seen.end()) {
        runs.emplace_back(paths[p], ScriptRun{log, ""});
        seen.emplace(p, std::move(log));
      }
    }
    totals.cache_bytes = static_cast<double>(a.service.expansion_cache().bytes() +
                                             b.service.expansion_cache().bytes());
    FinishTrace(opt, totals, true, &out);
    CheckExactRuns(runs, checker, data.rows(), 7, &out);
    return out;
  }

  struct Client {
    LoadStats stats;
    std::map<size_t, std::vector<Exchange>> first;  ///< path -> first run
    std::vector<std::string> errors;
  };
  std::vector<Client> clients(kRepeatClients);
  std::vector<std::thread> threads;
  // Untimed warm-up: every client drills every path once, each starting at
  // its own place in the catalogue, so the timed phase replays paths both
  // replicas have mostly cached instead of a seed-dependent share of cold
  // first runs.
  for (size_t c = 0; c < kRepeatClients; ++c) {
    threads.emplace_back([&, c] {
      Client& me = clients[c];
      HttpEndpoint ep(front.port());
      for (size_t j = 0; j < kRepeatPaths; ++j) {
        const size_t p = (j + c * kRepeatPaths / kRepeatClients) % kRepeatPaths;
        ScriptRun run = RunAdaptive(ep, paths[p], 7);
        LoadStats untimed;
        untimed.Account(run);
        me.stats.attempted += untimed.attempted;
        me.stats.failed += untimed.failed;
        if (!run.error.empty()) me.errors.push_back(run.error);
        me.first.emplace(p, std::move(run.log));
      }
    });
  }
  for (auto& t : threads) t.join();
  threads.clear();
  // Timed phase, in whole rounds: every client replays a fixed number of
  // zipf-drawn paths, then the append probe runs alone.
  std::vector<Rng> rngs;
  std::vector<std::unique_ptr<HttpEndpoint>> endpoints;
  for (size_t c = 0; c < kRepeatClients; ++c) {
    rngs.emplace_back(opt.seed * 1000003 + c);
    endpoints.push_back(std::make_unique<HttpEndpoint>(front.port()));
  }
  LoadStats stats;
  const Clock::time_point begin = Clock::now();
  for (size_t round = 0; round == 0 || SecondsSince(begin) < opt.seconds; ++round) {
    const Clock::time_point round_start = Clock::now();
    for (size_t c = 0; c < kRepeatClients; ++c) {
      threads.emplace_back([&, c, round] {
        Client& me = clients[c];
        me.stats.AtRound(round);
        for (size_t j = 0; j < kRepeatScriptsPerRound; ++j) {
          const size_t p = popularity.Draw(rngs[c]);
          const std::vector<Exchange>& first = me.first.at(p);
          ScriptRun run = Replay(*endpoints[c], paths[p], first);
          me.stats.Account(run);
          for (size_t i = 0; i < run.log.size(); ++i) {
            if (run.log[i].ok && TreePart(run.log[i].body) != TreePart(first[i].body)) {
              me.errors.push_back("repeat of a popular path answered differently");
              break;
            }
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    threads.clear();
    stats.AtRound(round);
    stats.round().read_s = SecondsSince(round_start);
    probe.Append(kProbeAppendsPerRound, &stats);
  }
  std::vector<std::pair<ScriptSpec, ScriptRun>> runs;
  std::map<size_t, std::string> canonical;
  for (Client& c : clients) {
    stats.Merge(c.stats);
    out.errors.insert(out.errors.end(), c.errors.begin(), c.errors.end());
    for (auto& [p, log] : c.first) {
      // Every client's first answers for a path must agree with each other.
      std::string joined;
      for (const Exchange& ex : log) joined += TreePart(ex.body);
      auto [it, fresh] = canonical.emplace(p, joined);
      if (!fresh && it->second != joined) {
        out.errors.push_back("clients saw different answers for one path");
      }
      if (fresh) runs.emplace_back(paths[p], ScriptRun{log, ""});
    }
  }
  if (std::string err = probe.Finish(); !err.empty()) out.errors.push_back(err);
  EndToEnd(setup_s, stats, Summary::kPerRound, &out);
  CheckExactRuns(runs, checker, data.rows(), 7, &out);
  front.Shutdown();
  router.Shutdown();
  return out;
}

// --- live-append ---------------------------------------------------------

ScriptSpec LiveReaderSpec(uint64_t choice) {
  ScriptSpec s;
  s.k = 3;
  s.mw = 3;
  s.dataset = "live";
  s.depth = 0;
  s.star = false;
  s.choice_seed = choice;
  return s;
}

/// Checks reader answers: each tree is recounted over the prefix of rows
/// its root mass says its version holds.
void CheckLiveTrees(const std::vector<std::string>& bodies, Checker& checker,
                    uint64_t min_rows, uint64_t max_rows, RunResult* out) {
  for (const std::string& body : bodies) {
    Tree tree;
    std::string err = ParseEnvelope(body, 7, &tree, nullptr);
    if (err.empty()) {
      const double mass = tree.nodes[0].mass;
      if (mass < static_cast<double>(min_rows) || mass > static_cast<double>(max_rows)) {
        err = "reader saw a version of " + Num(mass) + " rows, outside [" +
              std::to_string(min_rows) + ", " + std::to_string(max_rows) + "]";
      } else {
        err = checker.CheckExact(tree, static_cast<uint64_t>(mass));
      }
    }
    if (!err.empty()) {
      out->errors.push_back("live: " + err);
      return;
    }
  }
}

RunResult LiveAppend(const RunOptions& opt) {
  RunResult out;
  Dataset data = Generate({kLiveBaseRows, 7, opt.seed});
  smartdd::Table base = LoadTable(data, kLiveBaseRows);
  const Clock::time_point f0 = Clock::now();
  base.Freeze();
  const double freeze_ms = MillisBetween(f0, Clock::now());
  const double resident_mb = static_cast<double>(base.resident_column_bytes()) / (1 << 20);
  const std::string wal = WorkFile(opt, "live.wal");
  std::remove(wal.c_str());
  api::ServiceOptions options;
  options.live_snapshot_every_rows = kLiveSnapshotEveryRows;
  auto service = std::make_unique<api::ExplorationService>(options);
  if (Status s = service->AddLiveTable("live", std::move(base), Weight(), wal); !s.ok()) {
    return {0, 0, {}, {s.ToString()}};
  }
  auto front = std::make_unique<HttpFront>(service.get());
  if (Status s = front->Start(); !s.ok()) return {0, 0, {}, {s.ToString()}};
  const double setup_s = SecondsSince(opt.process_start);
  Rng append_rng(opt.seed * 65537 + 11);

  if (opt.trace) {
    LayerTotals totals;
    totals.freeze_ms = freeze_ms;
    totals.resident_mb = resident_mb;
    totals.StartCounters();
    Tracer& tr = totals.tracer;
    // The live layer alone: a second live table fed the same rows, with
    // fsync and publishing taken out of Append so each is timed apart.
    const std::string side_wal = WorkFile(opt, "side.wal");
    std::remove(side_wal.c_str());
    smartdd::Table side_base = LoadTable(data, kLiveBaseRows);
    side_base.Freeze();
    smartdd::live::LiveTableOptions lopt;
    lopt.wal_path = side_wal;
    lopt.snapshot_every_rows = 0;
    lopt.fsync_every_records = 0;
    auto side = smartdd::live::LiveTable::Create(std::move(side_base), lopt);
    if (!side.ok()) return {0, 0, {}, {side.status().ToString()}};
    HttpClient appender(front->port());
    uint64_t acked = 0;
    uint64_t next = 0;
    std::shared_ptr<const smartdd::live::TableSnapshot> snapshot;
    std::unique_ptr<smartdd::ExplorationEngine> engine;
    std::vector<std::string> bodies;
    const Clock::time_point begin = Clock::now();
    for (size_t round = 0; round == 0 || SecondsSince(begin) < opt.seconds; ++round) {
      AppendRows(&data, 32, append_rng);
      for (uint64_t r = data.rows() - 32; r < data.rows(); ++r) {
        const std::string row = CsvRow(data, r);
        Clock::time_point t0 = Clock::now();
        Status s = (*side)->Append(row);
        Clock::time_point t1 = Clock::now();
        tr.Add(next, "live.append", "", t0, t1);
        Status synced = (*side)->SyncWal();
        tr.Add(next, "live.sync", "", t1, Clock::now());
        if (!s.ok() || !synced.ok()) out.errors.push_back("live: side append failed");
        if ((r - kLiveBaseRows + 1) % kLiveSnapshotEveryRows == 0) {
          t0 = Clock::now();
          (*side)->PublishSnapshot();
          tr.Add(next, "live.publish", "", t0, Clock::now());
        }
        HttpReply reply = appender.Post("/v1/append", "dataset=live " + row);
        ++out.attempted;
        if (reply.status == 200 && reply.body.rfind("{\"ok\":true", 0) == 0) {
          ++acked;
        } else {
          ++out.failed;
        }
      }
      // One reader script at every layer on the version now latest.
      const ScriptSpec spec = LiveReaderSpec(round);
      ApiEndpoint api_ep(service.get(), &tr);
      api_ep.request = next;
      ScriptRun api_run = RunAdaptive(api_ep, spec, 7);
      for (const Exchange& ex : api_run.log) {
        ++out.attempted;
        if (!ex.ok) ++out.failed;
      }
      if (!api_run.error.empty()) {
        out.errors.push_back(api_run.error);
        break;
      }
      auto latest = service->FindLiveTable("live")->Latest();
      if (latest != snapshot) {
        engine.reset();
        snapshot = latest;
        const Clock::time_point c0 = Clock::now();
        auto created = smartdd::ExplorationEngine::Create(snapshot->table, Weight());
        tr.Add(next, "explore.engine_create", "api.execute", c0, Clock::now());
        if (!created.ok()) {
          out.errors.push_back(created.status().ToString());
          break;
        }
        engine = std::move(*created);
      }
      std::string err = ReplayBelowApi(*engine, &snapshot->table, nullptr, spec,
                                       api_run, next, 7, &totals);
      if (err.empty()) {
        HttpEndpoint http_ep(front->port(), &tr, "net.http");
        http_ep.request = next;
        err = Replay(http_ep, spec, api_run.log).error;
      }
      if (!err.empty()) {
        out.errors.push_back(err);
        break;
      }
      next += api_run.log.size();
      bodies.push_back(api_run.log[1].body);
    }
    const smartdd::live::LiveTableInfo side_info = (*side)->Info();
    totals.wal_bytes_per_row =
        static_cast<double>(side_info.wal_bytes) /
        static_cast<double>(std::max<uint64_t>(data.rows() - kLiveBaseRows, 1));
    totals.versions = static_cast<double>(service->FindLiveTable("live")->Info().version);
    engine.reset();
    FinishTrace(opt, totals, false, &out);
    Checker checker(data);
    CheckLiveTrees(bodies, checker, kLiveBaseRows, kLiveBaseRows + acked, &out);
    std::remove(side_wal.c_str());
    front.reset();
    service.reset();
    std::remove(wal.c_str());
    return out;
  }

  // A session pinned before any append: it must keep the base version.
  HttpEndpoint pin_ep(front->port());
  const ScriptSpec pin_spec = LiveReaderSpec(0);
  std::string pin_token;
  ScriptRun pinned;
  Exec(pin_ep, {"open"}, pin_spec, &pin_token, &pinned);
  Exec(pin_ep, {"expand", 0}, pin_spec, &pin_token, &pinned);

  std::atomic<bool> stop{false};
  Dataset appended;
  appended.columns = data.columns;
  appended.cardinality = data.cardinality;
  LoadStats writer;
  uint64_t acked = 0;
  std::vector<LoadStats> readers(kLiveReaders);
  std::vector<std::vector<std::string>> reader_bodies(kLiveReaders);
  std::vector<std::string> reader_errors(kLiveReaders);
  const double slice_s = opt.seconds / kLiveSlices;
  const Clock::time_point begin = Clock::now();
  auto slice_now = [&] {
    return std::min(static_cast<size_t>(SecondsSince(begin) / slice_s), kLiveSlices - 1);
  };
  std::thread append_thread([&] {
    HttpClient client(front->port());
    for (uint64_t r = 0; !stop.load(std::memory_order_relaxed); ++r) {
      if (r == appended.rows()) AppendRows(&appended, 256, append_rng);
      const Clock::time_point start = Clock::now();
      HttpReply reply = client.Post("/v1/append", "dataset=live " + CsvRow(appended, r));
      const double ms = MillisBetween(start, Clock::now());
      ++writer.attempted;
      writer.AtRound(slice_now());
      if (reply.status == 200 && reply.body.rfind("{\"ok\":true", 0) == 0) {
        writer.round().append_ms.push_back(ms);
        ++acked;
      } else {
        ++writer.failed;
        break;  // acknowledged rows must stay a prefix of `appended`
      }
    }
  });
  std::vector<std::thread> reader_threads;
  for (size_t c = 0; c < kLiveReaders; ++c) {
    reader_threads.emplace_back([&, c] {
      HttpEndpoint ep(front->port());
      std::set<std::string> seen;
      for (uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        ScriptRun run = RunAdaptive(ep, LiveReaderSpec(i), 7);
        readers[c].AtRound(slice_now());
        readers[c].Account(run);
        if (!run.error.empty() && reader_errors[c].empty()) reader_errors[c] = run.error;
        if (run.log.size() > 1 && run.log[1].ok &&
            seen.insert(std::string(TreePart(run.log[1].body))).second) {
          reader_bodies[c].push_back(std::move(run.log[1].body));
        }
      }
    });
  }
  while (SecondsSince(begin) < opt.seconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop = true;
  append_thread.join();
  for (auto& t : reader_threads) t.join();
  const double window_s = SecondsSince(begin);
  LoadStats stats = writer;
  for (const LoadStats& r : readers) stats.Merge(r);
  for (size_t i = 0; i < stats.rounds.size(); ++i) {
    // The last slice runs on until every client has stopped.
    const double s = i + 1 == kLiveSlices ? window_s - slice_s * i : slice_s;
    stats.rounds[i].read_s = s;
    stats.rounds[i].append_s = s;
  }
  for (const std::string& e : reader_errors) {
    if (!e.empty()) out.errors.push_back(e);
  }
  EndToEnd(setup_s, stats, Summary::kPerRound, &out);

  // Checks. The acknowledged rows are the first `acked` appended rows.
  data.cells.insert(data.cells.end(), appended.cells.begin(),
                    appended.cells.begin() + static_cast<std::ptrdiff_t>(acked * data.columns));
  const uint64_t total = kLiveBaseRows + acked;
  Checker checker(data);
  std::vector<std::string> bodies;
  for (auto& b : reader_bodies) bodies.insert(bodies.end(), b.begin(), b.end());
  CheckLiveTrees(bodies, checker, kLiveBaseRows, total, &out);
  {
    ScriptRun shown;
    Exec(pin_ep, {"show"}, pin_spec, &pin_token, &shown);
    if (pinned.log.size() != 2 || !pinned.log[1].ok || !shown.log[0].ok ||
        TreePart(shown.log[0].body) != TreePart(pinned.log[1].body)) {
      out.errors.push_back("live: the session pinned before the appends changed");
    }
    CheckLiveTrees({pinned.log[1].body}, checker, kLiveBaseRows, kLiveBaseRows, &out);
  }
  service->FindLiveTable("live")->PublishSnapshot();
  {
    HttpEndpoint ep(front->port());
    ScriptRun fresh = RunAdaptive(ep, LiveReaderSpec(1), 7);
    if (fresh.log.size() < 2 || !fresh.log[1].ok) {
      out.errors.push_back("live: fresh session failed: " + fresh.error);
    } else {
      CheckLiveTrees({fresh.log[1].body}, checker, total, total, &out);
      Tree tree;
      ParseEnvelope(fresh.log[1].body, 7, &tree, nullptr);
      if (std::string err = checker.CheckBestPick(tree, 0, 3, total, std::nullopt);
          !err.empty()) {
        out.errors.push_back("live: " + err);
      }
    }
  }
  front.reset();
  service.reset();
  {
    // A fresh service replaying the WAL recovers exactly the acknowledged rows.
    api::ExplorationService replayed;
    smartdd::Table again = LoadTable(data, kLiveBaseRows);
    again.Freeze();
    if (Status s = replayed.AddLiveTable("live", std::move(again), Weight(), wal); !s.ok()) {
      out.errors.push_back("live: WAL replay failed: " + s.ToString());
    } else {
      const std::string opened = replayed.ServeLine("open dataset=live k=3 mw=3");
      const std::string body = replayed.ServeLine("expand " + TokenOf(opened) + " 0");
      CheckLiveTrees({body}, checker, total, total, &out);
    }
  }
  std::remove(wal.c_str());
  return out;
}

// --- sampled-disk --------------------------------------------------------

std::vector<ScriptSpec> DiskCatalogue(uint64_t seed) {
  std::vector<ScriptSpec> out;
  Rng rng(seed * 15485863 + 5);
  for (double mw : {1.0, 2.0}) {
    for (int variant = 0; variant < 4; ++variant) {
      ScriptSpec s;
      s.k = 3;
      s.mw = mw;
      s.star = false;
      s.choice_seed = rng.Next();
      out.push_back(s);
    }
  }
  for (size_t i = out.size(); i > 1; --i) std::swap(out[i - 1], out[rng.Below(i)]);
  return out;
}

void CheckSampledRuns(const std::vector<ScriptRun>& runs, Checker& checker,
                      RunResult* out) {
  for (const ScriptRun& run : runs) {
    for (const Exchange& ex : run.log) {
      if (!ex.ok || ex.body.find("\"tree\":") == std::string::npos) continue;
      Tree tree;
      std::string err = ParseEnvelope(ex.body, kDiskColumns, &tree, nullptr);
      if (err.empty()) err = checker.CheckSampled(tree);
      if (!err.empty()) {
        out->errors.push_back("sampled: " + err);
        return;
      }
    }
  }
  const double share = checker.ci_total() == 0
                           ? 0
                           : static_cast<double>(checker.ci_inside()) /
                                 static_cast<double>(checker.ci_total());
  if (checker.ci_total() == 0 || share < kMinCiCoverage) {
    out->errors.push_back("sampled: " + std::to_string(checker.ci_inside()) + " of " +
                          std::to_string(checker.ci_total()) +
                          " estimates hold the counted mass in their 95% interval");
  }
}

RunResult SampledDisk(const RunOptions& opt) {
  RunResult out;
  const Dataset data = Generate({kDiskRows, kDiskColumns, opt.seed});
  const std::string path = WorkFile(opt, "census.sddt");
  if (Status s = WriteDiskTable(data, path); !s.ok()) return {0, 0, {}, {s.ToString()}};
  auto disk = smartdd::DiskTable::Open(path);
  if (!disk.ok()) return {0, 0, {}, {disk.status().ToString()}};
  smartdd::DiskScanSource source(*disk);
  smartdd::EngineOptions eopt;
  eopt.use_sampling = true;
  eopt.sampler.memory_capacity = kSamplerCapacity;
  eopt.sampler.min_sample_size = kSamplerMinSample;
  auto engine = smartdd::ExplorationEngine::Create(source, Weight(), eopt);
  if (!engine.ok()) return {0, 0, {}, {engine.status().ToString()}};
  api::ExplorationService service;
  SMARTDD_CHECK(service.AddEngine("census", engine->get()).ok());
  HttpFront front(&service);
  AppendProbe probe(opt.seed, WorkFile(opt, "probe.wal"));
  if (Status s = front.Start(); !s.ok()) return {0, 0, {}, {s.ToString()}};
  if (Status s = probe.Start(); !s.ok()) return {0, 0, {}, {s.ToString()}};
  const double setup_s = SecondsSince(opt.process_start);
  SyncFile(path);
  const std::vector<ScriptSpec> catalogue = DiskCatalogue(opt.seed);
  Checker checker(data);
  std::vector<ScriptRun> runs;

  if (opt.trace) {
    LayerTotals totals;
    totals.StartCounters();
    Tracer& tr = totals.tracer;
    for (int pass = 0; pass < 3; ++pass) {
      const Clock::time_point s0 = Clock::now();
      uint64_t seen = 0;
      Status s = source.Scan([&](uint64_t, const uint32_t*, const double*) {
        ++seen;
        return true;
      });
      tr.Add(0, "storage.scan", "", s0, Clock::now());
      if (!s.ok() || seen != data.rows()) out.errors.push_back("storage scan failed");
    }
    totals.scan_ms = tr.Median("storage.scan");
    // The layers below the service get their own engine and sampler, so
    // each starts as cold as the service's did.
    auto explore_engine = smartdd::ExplorationEngine::Create(source, Weight(), eopt);
    smartdd::SampleHandler sampler(source, eopt.sampler);
    if (!explore_engine.ok()) return {0, 0, {}, {explore_engine.status().ToString()}};
    uint64_t next = 0;
    const Clock::time_point begin = Clock::now();
    for (size_t i = 0; i % catalogue.size() != 0 || SecondsSince(begin) < opt.seconds;
         ++i) {
      const ScriptSpec& spec = catalogue[i % catalogue.size()];
      ApiEndpoint api_ep(&service, &tr);
      api_ep.request = next;
      ScriptRun api_run = RunAdaptive(api_ep, spec, kDiskColumns);
      for (const Exchange& ex : api_run.log) {
        ++out.attempted;
        if (!ex.ok) ++out.failed;
      }
      std::string err = api_run.error;
      if (err.empty()) {
        err = ReplayBelowApi(**explore_engine, nullptr, &sampler, spec, api_run,
                             next, kDiskColumns, &totals);
      }
      if (err.empty()) {
        HttpEndpoint http_ep(front.port(), &tr, "net.http");
        http_ep.request = next;
        err = Replay(http_ep, spec, api_run.log).error;
      }
      if (!err.empty()) {
        out.errors.push_back(err);
        break;
      }
      next += api_run.log.size();
      runs.push_back(std::move(api_run));
    }
    totals.sample_creates = sampler.creates();
    totals.sample_scans = sampler.scans_performed();
    totals.sample_reuse = sampler.find_hits() + sampler.combine_hits();
    FinishTrace(opt, totals, false, &out);
    CheckSampledRuns(runs, checker, &out);
    std::remove(path.c_str());
    return out;
  }

  LoadStats stats;
  HttpEndpoint ep(front.port());
  const Clock::time_point begin = Clock::now();
  Clock::time_point round_start = begin;
  for (size_t i = 0; i % catalogue.size() != 0 || SecondsSince(begin) < opt.seconds;
       ++i) {
    ScriptRun run = RunAdaptive(ep, catalogue[i % catalogue.size()], kDiskColumns);
    stats.Account(run);
    if (!run.error.empty()) out.errors.push_back(run.error);
    runs.push_back(std::move(run));
    if ((i + 1) % catalogue.size() == 0) CloseRound(probe, &round_start, &stats);
  }
  stats.rounds.pop_back();  // opened after the last round closed
  if (std::string err = probe.Finish(); !err.empty()) out.errors.push_back(err);
  EndToEnd(setup_s, stats, Summary::kWholeRun, &out);
  CheckSampledRuns(runs, checker, &out);
  std::remove(path.c_str());
  return out;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"cold-drill", "repeat-cluster",
                                                 "live-append", "sampled-disk"};
  return names;
}

RunResult RunWorkload(const RunOptions& options) {
  if (options.workload == "cold-drill") return ColdDrill(options);
  if (options.workload == "repeat-cluster") return RepeatCluster(options);
  if (options.workload == "live-append") return LiveAppend(options);
  if (options.workload == "sampled-disk") return SampledDisk(options);
  RunResult out;
  out.errors.push_back("unknown workload " + options.workload);
  return out;
}

}  // namespace perfbench
