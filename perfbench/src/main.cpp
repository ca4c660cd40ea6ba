// perfbench — native end-to-end benchmark of PowerLog.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>]
//   perfbench --selftest
//
// Drives the program only through its public API in the native
// configuration (instant delivery, no simulated barrier cost, no compute
// inflation, stalls, faults or checkpoints), on graphs the benchmark
// generates from --seed with the shapes of the orkut / wiki / livej dataset
// recipes. Load comes from this one thread; engines run at most 2 workers,
// so workers, the termination controller and the client fit on 4 cores.
//
// Workloads (see README.md for the layer map):
//   pagerank-orkut    cold PowerLog::Run of catalog PageRank, sync-async,
//                     at 1 and 2 workers, plus resident reads.
//   sssp-wiki-sync    cold PowerLog::Run of catalog SSSP, sync, at 1 and 2
//                     workers (the 2-worker run is ~1,500 short supersteps),
//                     plus resident reads.
//   serve-sssp-livej  SSSP materialised in a 1-worker and a 2-worker
//                     ServingCatalog; one closed-loop client calls the route
//                     handler with a fixed interleave of /mutate (8-op
//                     batches), /lookup and /topk.
//
// Every workload reports the same end-to-end metrics, each a median over
// repetitions inside the run with the first round excluded as warm-up.
// `fixpoint_wN_ms` is the workload's fixpoint-producing request at N engine
// workers: a cold PowerLog::Run, or a /mutate from request until the new
// version is served. With --trace 1 the run alternates untraced and traced
// rounds; traced rounds record spans around each call into a layer and turn
// on EngineOptions::collect_metrics, and the run reports the per-layer
// metrics plus the tracing overhead (traced ÷ untraced medians).
//
// Outputs are checked by a reference process forked at start-up, which holds
// the benchmark's own copy of the graph and the expected values, so that the
// reported peak RSS is the program's.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "channel.h"
#include "checker/mra_checker.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "core/kernel.h"
#include "datalog/analyzer.h"
#include "datalog/catalog.h"
#include "datalog/parser.h"
#include "eval/mra.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "oracle.h"
#include "powerlog/powerlog.h"
#include "powerlog/serving.h"

namespace perfbench {
namespace {

int RunSelfTest();

using Clock = std::chrono::steady_clock;
using powerlog::Graph;
using powerlog::runtime::EngineStats;
using powerlog::runtime::ExecMode;

// Taken during static initialisation, before main: set-up time is measured
// from here, so everything the process does before its first request counts.
const Clock::time_point kProcessStart = Clock::now();

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Metric bookkeeping.

struct MetricDef {
  std::string name;
  std::string unit;
};

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> kDefs = {
      {"setup_s", "s"},         {"peak_rss_mb", "MB"},
      {"fixpoint_w1_ms", "ms"}, {"fixpoint_w2_ms", "ms"},
      {"lookup_p50_us", "us"},  {"lookup_p99_us", "us"},
      {"topk_p50_us", "us"},
  };
  return kDefs;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> kDefs = [] {
    std::vector<MetricDef> d = {
        {"datalog.parse_us", "us"}, {"datalog.analyze_us", "us"},
        {"checker.check_us", "us"}, {"core.compile_us", "us"},
        {"graph.build_s", "s"},
    };
    for (const char* w : {"w1", "w2"}) {
      const std::string p = std::string("runtime.") + w + ".";
      for (const auto& [name, unit] : std::vector<std::pair<const char*, const char*>>{
               {"run_s", "s"},
               {"facade_s", "s"},
               {"edge_apps", "count"},
               {"edge_apps_per_s", "1/s"},
               {"work_inflation", "ratio"},
               {"harvests", "count"},
               {"supersteps", "count"},
               {"superstep_us", "us"},
               {"vector_edges", "count"},
               {"frontier_skipped", "count"},
               {"sparse_sweeps", "count"}}) {
        d.push_back({p + name, unit});
      }
    }
    const std::vector<MetricDef> rest = {
        {"runtime.w2.messages", "count"},
        {"runtime.w2.updates_sent", "count"},
        {"runtime.w2.inbox_drain_s", "s"},
        {"runtime.w2.idle_scans", "count"},
        {"runtime.w2.steal_words", "count"},
        {"runtime.w2.barrier_wait_s", "s"},
        {"mutation.apply_ms", "ms"},
        {"mutation.resume_ms", "ms"},
        {"mutation.patch_plan_ms", "ms"},
        {"mutation.edge_apps", "count"},
        {"mutation.affected_vertices", "count"},
        {"mutation.delta_batches", "count"},
        {"mutation.rederive_batches", "count"},
        {"mutation.recompute_batches", "count"},
        {"serving.materialize_s", "s"},
        {"serving.lookup_direct_us", "us"},
        {"serving.topk_direct_us", "us"},
        {"trace.overhead_w1", "ratio"},
        {"trace.overhead_w2", "ratio"},
        {"trace.overhead_lookup", "ratio"},
    };
    d.insert(d.end(), rest.begin(), rest.end());
    return d;
  }();
  return kDefs;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// Median over consecutive windows of `window` samples of each window's
/// q-quantile. A tail percentile taken this way follows the typical window
/// rather than the few seconds in which the host happened to be busiest.
double WindowedQuantile(const std::vector<double>& v, size_t window, double q) {
  std::vector<double> per_window;
  for (size_t i = 0; i + window <= v.size(); i += window) {
    per_window.push_back(Quantile({v.begin() + static_cast<ptrdiff_t>(i),
                                   v.begin() + static_cast<ptrdiff_t>(i + window)},
                                  q));
  }
  return Quantile(per_window, 0.5);
}

/// Samples of one kind of round (untraced or traced), by metric name.
struct Samples {
  std::map<std::string, std::vector<double>> by_name;
  void Add(const std::string& name, double v) { by_name[name].push_back(v); }
  double Median(const std::string& name) const { return At(name, 0.5); }
  double At(const std::string& name, double q) const {
    const auto it = by_name.find(name);
    return it == by_name.end() ? 0.0 : Quantile(it->second, q);
  }
  size_t Count(const std::string& name) const {
    const auto it = by_name.find(name);
    return it == by_name.end() ? 0 : it->second.size();
  }
};

/// Everything one run accumulates.
struct RunState {
  bool trace = false;
  Samples plain;   ///< untraced rounds (all rounds with --trace 0)
  Samples traced;  ///< traced rounds (--trace 1 only)
  std::map<std::string, double> totals;  ///< per-run counts and one-off values
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;  ///< failed correctness checks
  Channel* reference = nullptr;     ///< the reference process (see Reference)
  std::unique_ptr<powerlog::trace::Tracer> tracer;
  /// The tracer while a traced round runs, else null (spans cost a branch).
  const powerlog::trace::Tracer* spans = nullptr;

  void Check(const std::string& error) {
    if (!error.empty() && errors.size() < 20) errors.push_back(error);
  }
  void Fail(const std::string& what) {
    ++failed;
    std::fprintf(stderr, "operation failed: %s\n", what.c_str());
  }
};

// ---------------------------------------------------------------------------
// Workload inputs.

/// R-MAT shape of one dataset recipe in src/graph/datasets.cpp, with the seed
/// left to the benchmark.
struct Shape {
  const char* name;
  uint32_t scale;
  double edge_factor;
  double a;
  VertexId chain;  ///< directed chain appended from vertex 0
};

constexpr Shape kOrkut{"orkut", 14, 30.0, 0.52, 0};
constexpr Shape kWiki{"wiki", 16, 10.0, 0.45, 1500};
constexpr Shape kLivej{"livej", 15, 14.0, 0.57, 0};

uint64_t Mix(uint64_t x) {  // SplitMix64 finaliser
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

Graph GenerateShape(const Shape& shape, uint64_t seed) {
  powerlog::RmatParams p;
  p.scale = shape.scale;
  p.edge_factor = shape.edge_factor;
  p.a = shape.a;
  const double rest = (1.0 - shape.a) / 3.0;
  p.b = rest + 0.02;
  p.c = rest + 0.02;
  p.d = rest - 0.04;
  p.weighted = true;
  p.min_weight = 1.0;
  p.max_weight = 64.0;
  p.seed = Mix(seed);
  Graph graph = powerlog::GenerateRmat(p).ValueOrDie();
  if (shape.chain == 0) return graph;
  powerlog::GraphBuilder builder;
  const VertexId n = graph.num_vertices();
  builder.EnsureVertices(n + shape.chain);
  for (VertexId v = 0; v < n; ++v) {
    for (const Edge& e : graph.OutEdges(v)) builder.AddEdge(v, e.dst, e.weight);
  }
  builder.AddEdge(0, n, 1.0);
  for (VertexId i = 0; i + 1 < shape.chain; ++i) builder.AddEdge(n + i, n + i + 1, 1.0);
  return std::move(builder).Build().ValueOrDie();
}

powerlog::runtime::EngineOptions NativeEngine(uint32_t workers, ExecMode mode) {
  powerlog::runtime::EngineOptions o;
  o.num_workers = workers;
  o.mode = mode;
  o.network.instant = true;
  o.barrier_overhead_us = 0;
  return o;
}

std::string CatalogSource(const std::string& program) {
  return powerlog::datalog::GetCatalogEntry(program).ValueOrDie().source;
}

// ---------------------------------------------------------------------------
// Layer calls shared by the workloads.

/// Times parse, analyze, check and compile of `source`, one call per layer,
/// each under its own span.
void TimeFrontEnd(const std::string& source, RunState* st) {
  using powerlog::trace::SpanGuard;
  const auto* tracer = st->spans;
  auto t0 = Clock::now();
  std::optional<SpanGuard> span;
  span.emplace(tracer, "datalog.parse");
  auto program = powerlog::datalog::Parse(source);
  span.reset();
  st->traced.Add("datalog.parse_us", SecondsSince(t0) * 1e6);
  t0 = Clock::now();
  span.emplace(tracer, "datalog.analyze");
  auto analyzed = powerlog::datalog::Analyze(*program);
  span.reset();
  st->traced.Add("datalog.analyze_us", SecondsSince(t0) * 1e6);
  t0 = Clock::now();
  span.emplace(tracer, "checker.check");
  auto check = powerlog::checker::CheckMraConditions(*analyzed);
  span.reset();
  st->traced.Add("checker.check_us", SecondsSince(t0) * 1e6);
  t0 = Clock::now();
  span.emplace(tracer, "core.compile");
  auto kernel = powerlog::BuildKernel(*analyzed);
  span.reset();
  st->traced.Add("core.compile_us", SecondsSince(t0) * 1e6);
  if (!kernel.ok() || !check.ok() || !check->satisfied) {
    st->Check("front end rejected the catalog program");
  }
}

/// Per-layer engine figures of one fixpoint-producing request that took
/// `op_seconds` end to end.
void RecordEngine(const EngineStats& s, double op_seconds, int workers,
                  double mra_edge_apps, Samples* out) {
  const std::string p = workers == 1 ? "runtime.w1." : "runtime.w2.";
  out->Add(p + "run_s", s.wall_seconds);
  out->Add(p + "facade_s", op_seconds - s.wall_seconds);
  out->Add(p + "edge_apps", static_cast<double>(s.edge_applications));
  out->Add(p + "edge_apps_per_s", s.wall_seconds > 0
                                      ? static_cast<double>(s.edge_applications) / s.wall_seconds
                                      : 0.0);
  out->Add(p + "work_inflation", static_cast<double>(s.edge_applications) / mra_edge_apps);
  out->Add(p + "harvests", static_cast<double>(s.harvests));
  out->Add(p + "supersteps", static_cast<double>(s.supersteps));
  out->Add(p + "superstep_us",
           s.supersteps > 0 ? s.wall_seconds * 1e6 / static_cast<double>(s.supersteps) : 0.0);
  out->Add(p + "vector_edges", static_cast<double>(s.vector_edges));
  out->Add(p + "frontier_skipped", static_cast<double>(s.frontier_skipped));
  out->Add(p + "sparse_sweeps", static_cast<double>(s.sparse_sweeps));
  if (workers != 2) return;
  int64_t drain_us = 0, barrier_us = 0, idle = 0;
  for (const auto& w : s.workers) {
    drain_us += w.inbox_drain_us;
    barrier_us += w.barrier_wait_us;
    idle += w.idle_scans;
  }
  out->Add("runtime.w2.messages", static_cast<double>(s.messages));
  out->Add("runtime.w2.updates_sent", static_cast<double>(s.updates_sent));
  out->Add("runtime.w2.inbox_drain_s", static_cast<double>(drain_us) / 1e6);
  out->Add("runtime.w2.idle_scans", static_cast<double>(idle));
  out->Add("runtime.w2.steal_words", static_cast<double>(s.steal_words));
  out->Add("runtime.w2.barrier_wait_s", static_cast<double>(barrier_us) / 1e6);
}

std::optional<powerlog::metrics::JsonValue> ParseBody(const std::string& body) {
  auto parsed = powerlog::metrics::JsonValue::Parse(body);
  if (!parsed.ok()) return std::nullopt;
  return std::move(parsed).ValueOrDie();
}

double JsonNumberOrInf(const powerlog::metrics::JsonValue* v) {
  if (v == nullptr || v->kind() != powerlog::metrics::JsonValue::Kind::kNumber) {
    return std::numeric_limits<double>::infinity();
  }
  return v->number();
}

/// One closed-loop client of a catalog's route handler: issues requests,
/// times them, counts them per route, and checks each answer against the
/// resident values it is given.
class Client {
 public:
  Client(powerlog::serving::ServingCatalog* catalog, std::string program,
         std::string dataset, bool ascending)
      : handler_(powerlog::serving::MakeServingHandler(catalog)),
        query_(std::string("?program=") + program + "&dataset=" + dataset),
        ascending_(ascending) {}

  const std::map<std::string, int64_t>& requests() const { return requests_; }

  /// Sends one request; returns the body on HTTP 200.
  std::optional<std::string> Send(const char* route, const std::string& extra,
                                  const std::string& method, const std::string& body,
                                  double* seconds) {
    powerlog::HttpRequest req;
    req.method = method;
    req.target = std::string("/") + route + query_ + extra;
    req.body = body;
    powerlog::HttpResponse resp;
    const auto t0 = Clock::now();
    const bool handled = handler_(req, &resp);
    *seconds = SecondsSince(t0);
    ++requests_[std::string("serving.red.") + route + ".requests"];
    if (!handled || resp.status != 200) return std::nullopt;
    return std::move(resp.body);
  }

  /// /lookup of `v`; checks the answer equals `expected_at(v)` bit for bit.
  /// The expected value is read after the request, so that reading it does
  /// not warm the caches the request is timed on.
  void Lookup(VertexId v, const std::function<double(VertexId)>& expected_at, Samples* out,
              RunState* st) {
    powerlog::trace::SpanGuard span(st->spans, "serving.handler.lookup");
    double secs = 0.0;
    ++st->attempted;
    auto body = Send("lookup", "&v=" + std::to_string(v), "GET", "", &secs);
    if (!body) return st->Fail("/lookup v=" + std::to_string(v));
    if (out != nullptr) out->Add("lookup_us", secs * 1e6);
    auto json = ParseBody(*body);
    const double got = json ? JsonNumberOrInf(json->Find("value")) : std::nan("");
    st->Check(CheckBitExact("/lookup v=" + std::to_string(v), {got}, {expected_at(v)}));
  }

  /// /topk k=10; checks every returned vertex's value against
  /// `value_at`, and the answer against `expected_values` (the k best values,
  /// ordered) when given.
  void TopK(const std::function<double(VertexId)>& value_at,
            const std::vector<double>* expected_values, Samples* out, RunState* st) {
    powerlog::trace::SpanGuard span(st->spans, "serving.handler.topk");
    double secs = 0.0;
    ++st->attempted;
    auto body = Send("topk", ascending_ ? "&k=10&order=asc" : "&k=10", "GET", "", &secs);
    if (!body) return st->Fail("/topk");
    if (out != nullptr) out->Add("topk_us", secs * 1e6);
    auto json = ParseBody(*body);
    const powerlog::metrics::JsonValue* list = json ? json->Find("topk") : nullptr;
    if (list == nullptr) return st->Check("/topk: malformed response");
    std::vector<double> values, at_vertex;
    for (const auto& item : list->array()) {
      const double vertex = JsonNumberOrInf(item.Find("vertex"));
      values.push_back(JsonNumberOrInf(item.Find("value")));
      at_vertex.push_back(vertex >= 0 && vertex < 4294967296.0
                              ? value_at(static_cast<VertexId>(vertex))
                              : std::nan(""));
    }
    st->Check(CheckBitExact("/topk vertex values", values, at_vertex));
    if (expected_values != nullptr) {
      st->Check(CheckBitExact("/topk", values, *expected_values));
    } else if (!std::is_sorted(values.begin(), values.end(), [&](double a, double b) {
                 return ascending_ ? a < b : a > b;
               })) {
      st->Check("/topk: answer out of order");
    }
  }

 private:
  powerlog::ExpositionServer::Handler handler_;
  std::string query_;
  bool ascending_;
  std::map<std::string, int64_t> requests_;
};

/// Per-route request counts of a catalog's RED instruments.
std::map<std::string, int64_t> RedCounts(const powerlog::serving::ServingCatalog& catalog) {
  std::map<std::string, int64_t> out;
  for (const auto& [name, value] : catalog.Metrics().counters) out[name] = value;
  return out;
}

/// The resident value of each vertex, NaN for an unknown vertex.
std::function<double(VertexId)> ValuesOf(const powerlog::serving::Materialization& m) {
  return [&m](VertexId v) {
    auto value = m.Lookup(v);
    return value.ok() ? *value : std::nan("");
  };
}

/// Times direct Materialization lookups and top-k scans (no routing, query
/// tracking or JSON): the serving layer's own share of a request. Kept apart
/// from the handler requests so that it does not disturb their caches.
void TimeDirectReads(const powerlog::serving::Materialization& m, int lookups, int topks,
                     bool ascending, std::mt19937_64* rng, RunState* st) {
  const VertexId n = m.graph()->num_vertices();
  for (int i = 0; i < lookups; ++i) {
    const VertexId v = static_cast<VertexId>((*rng)() % n);
    const auto t0 = Clock::now();
    (void)m.Lookup(v);
    st->traced.Add("serving.lookup_direct_us", SecondsSince(t0) * 1e6);
  }
  for (int i = 0; i < topks; ++i) {
    const auto t0 = Clock::now();
    (void)m.TopK(10, ascending);
    st->traced.Add("serving.topk_direct_us", SecondsSince(t0) * 1e6);
  }
}

/// Moves the calling thread through the CPUs of its affinity mask, one at a
/// time, continuing where it stopped. The scheduler tends to keep the client
/// on one CPU for a whole run (on the fixpoint workloads it wakes it there
/// after every cold run), so on a shared host that one CPU's contention would
/// set every timing of the run; rotating spreads the run over the CPUs.
/// Engine threads inherit the caller's mask, so Restore() must run before
/// the next request that starts them.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&mask_);
    if (sched_getaffinity(0, sizeof(mask_), &mask_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &mask_)) cpus_.push_back(cpu);
    }
  }
  ~CpuRotation() { Restore(); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void Next() {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }
  void Restore() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(mask_), &mask_);
  }

 private:
  cpu_set_t mask_;
  std::vector<int> cpus_;
  size_t next_ = 0;
};

/// One mutation batch of 8 ops over `own`: 3 inserts of random edges, 3
/// deletes and 2 reweights of existing edges, in a fixed interleave. New
/// weights are drawn like the generator's, uniform in [1, 64).
powerlog::MutationBatch MakeBatch(const EdgeList& own, std::mt19937_64* rng) {
  const VertexId n = own.num_vertices();
  std::uniform_real_distribution<double> weight(1.0, 64.0);
  auto existing = [&]() -> std::pair<VertexId, VertexId> {
    for (;;) {
      const VertexId v = static_cast<VertexId>((*rng)() % n);
      const auto& row = own.out(v);
      if (!row.empty()) return {v, row[(*rng)() % row.size()].dst};
    }
  };
  powerlog::MutationBatch batch;
  for (int i = 0; i < 8; ++i) {
    switch (i % 3) {
      case 0: {
        const VertexId src = static_cast<VertexId>((*rng)() % n);
        VertexId dst = static_cast<VertexId>((*rng)() % n);
        if (dst == src) dst = (dst + 1) % n;
        batch.InsertEdge(src, dst, weight(*rng));
        break;
      }
      case 1: {
        const auto [src, dst] = existing();
        batch.DeleteEdge(src, dst);
        break;
      }
      default: {
        const auto [src, dst] = existing();
        batch.ReweightEdge(src, dst, weight(*rng));
        break;
      }
    }
  }
  return batch;
}

std::string MutationBody(const powerlog::MutationBatch& batch) {
  std::string body = "{\"ops\":[";
  char buf[160];
  for (size_t i = 0; i < batch.ops().size(); ++i) {
    const auto& op = batch.ops()[i];
    std::snprintf(buf, sizeof(buf), "%s{\"op\":\"%s\",\"src\":%u,\"dst\":%u,\"weight\":%.17g}",
                  i == 0 ? "" : ",",
                  op.kind == powerlog::MutationOp::kInsertEdge   ? "insert"
                  : op.kind == powerlog::MutationOp::kDeleteEdge ? "delete"
                                                                 : "reweight",
                  op.src, op.dst, op.weight);
    body += buf;
  }
  return body + "]}";
}

/// Re-convergence paths taken by the batches sent to one catalog.
struct PathCounts {
  int64_t delta = 0, rederive = 0, recompute = 0;
  void Report(RunState* st) const {
    st->totals["mutation.delta_batches"] = static_cast<double>(delta);
    st->totals["mutation.rederive_batches"] = static_cast<double>(rederive);
    st->totals["mutation.recompute_batches"] = static_cast<double>(recompute);
  }
};

/// Sends one batch through /mutate and checks the head version it reports.
/// With `layer` set, records the per-layer re-convergence figures. Returns
/// the request's wall time, or nullopt if the request failed.
std::optional<double> Mutate(Client& client, const powerlog::serving::Materialization& entry,
                             const std::string& body, int64_t expected_version,
                             PathCounts* paths, Samples* layer, RunState* st) {
  double secs = 0.0;
  ++st->attempted;
  std::optional<powerlog::trace::SpanGuard> span;
  span.emplace(st->spans, "serving.handler.mutate");
  auto resp = client.Send("mutate", "", "POST", body, &secs);
  span.reset();
  auto json = resp ? ParseBody(*resp) : std::nullopt;
  const powerlog::metrics::JsonValue* version = json ? json->Find("version") : nullptr;
  const powerlog::metrics::JsonValue* path = json ? json->Find("path") : nullptr;
  if (version == nullptr || path == nullptr) {
    st->Fail("/mutate");
    return std::nullopt;
  }
  st->Check(CheckCounts("/mutate head version",
                        {{"version", static_cast<int64_t>(version->number())}},
                        {{"version", expected_version}}));
  paths->delta += path->string_value() == "delta";
  paths->rederive += path->string_value() == "rederive";
  paths->recompute += path->string_value() == "recompute";
  if (layer != nullptr) {
    const double apply_ms = JsonNumberOrInf(json->Find("apply_seconds")) * 1e3;
    const double resume_ms = JsonNumberOrInf(json->Find("wall_seconds")) * 1e3;
    layer->Add("mutation.apply_ms", apply_ms);
    layer->Add("mutation.resume_ms", resume_ms);
    layer->Add("mutation.patch_plan_ms", apply_ms - resume_ms);
    layer->Add("mutation.edge_apps", static_cast<double>(entry.Stats().edge_applications));
    layer->Add("mutation.affected_vertices", JsonNumberOrInf(json->Find("affected_vertices")));
  }
  return secs;
}

// ---------------------------------------------------------------------------
// Workloads.

struct Workload;
void RunFixpointWorkload(const Workload& w, double seconds, uint64_t seed, RunState* st);
void RunServeWorkload(const Workload& w, double seconds, uint64_t seed, RunState* st);

struct Workload {
  const char* name;
  const char* program;
  const Shape* shape;
  ExecMode mode;
  int lookups_per_round;
  int topks_per_round;
  void (*run)(const Workload&, double, uint64_t, RunState*);
};

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"pagerank-orkut", "pagerank", &kOrkut, ExecMode::kSyncAsync, 2048, 32, RunFixpointWorkload},
      {"sssp-wiki-sync", "sssp", &kWiki, ExecMode::kSync, 256, 4, RunFixpointWorkload},
      {"serve-sssp-livej", "sssp", &kLivej, ExecMode::kSync, 16, 2, RunServeWorkload},
  };
  return kWorkloads;
}

bool IsMinProgram(const Workload& w) { return std::string(w.program) == "sssp"; }

/// Expected fixpoint of the workload's program on `own`, and the check a
/// program output must pass against it.
struct Oracle {
  bool exact = false;           ///< SSSP: bit for bit; PageRank: ε bounds
  std::vector<double> values;   ///< Dijkstra distances / MraEvaluate ranks
  double mra_edge_apps = 1.0;
  PageRankBounds bounds{0.0, 0.0};

  std::string Verify(const std::string& what, const EdgeList& own,
                     const std::vector<double>& got) const {
    if (exact) return CheckBitExact(what, got, values);
    std::string err = CheckResidual(what, own, got, bounds.residual);
    if (err.empty()) err = CheckL1Within(what + " vs MraEvaluate", got, values, bounds.l1);
    return err;
  }
};

/// Computes the oracle for `own`: SSSP from Dijkstra (and MraEvaluate must
/// agree bit for bit); PageRank from MraEvaluate, whose own residual must
/// meet the ε bound.
Oracle BuildOracle(const Workload& w, const powerlog::Kernel& kernel, const EdgeList& own,
                   RunState* st) {
  Oracle o;
  const Graph graph = own.ToGraph();
  auto mra = powerlog::eval::MraEvaluate(kernel, graph);
  if (!mra.ok() || !mra->converged) {
    st->Check("MraEvaluate did not converge");
    return o;
  }
  o.mra_edge_apps = static_cast<double>(std::max<int64_t>(1, mra->edge_applications));
  if (IsMinProgram(w)) {
    o.exact = true;
    o.values = Dijkstra(own, kernel.init.source);
    st->Check(CheckBitExact("MraEvaluate vs Dijkstra", mra->values, o.values));
  } else {
    o.bounds = PageRankBoundsFor(kernel.termination.epsilon);
    o.values = std::move(mra->values);
    st->Check(CheckResidual("MraEvaluate", own, o.values, o.bounds.residual));
  }
  return o;
}

const Workload* FindWorkload(const std::string& name) {
  for (const auto& w : Workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// The reference process.
//
// The benchmark's own copy of the graph, the graph MraEvaluate runs on and
// the expected values live in a child process forked at start-up, so that
// the benchmark process's peak RSS counts only the program's memory. The
// child generates the workload graph from the seed itself, draws every
// mutation batch and applies it to its own edge list, and checks the outputs
// and snapshots the benchmark sends it. Each answer starts with the check
// failures the request found.

enum class RefOp : uint8_t { kInit, kRebuild, kVerify, kExpected, kSameEdges, kBatch };

void ServeReference(Channel& ch) {
  RunState st;  // collects check failures only
  const Workload* w = nullptr;
  std::optional<EdgeList> own;
  std::optional<powerlog::Kernel> kernel;
  Oracle oracle;
  std::mt19937_64 rng;
  for (;;) {
    const RefOp op = ch.Get<RefOp>();
    std::vector<double> doubles;  // the answer's values, if any
    uint8_t changed = 0;
    powerlog::MutationBatch batch;
    switch (op) {
      case RefOp::kInit: {
        w = FindWorkload(ch.GetString());
        const auto seed = ch.Get<uint64_t>();
        own.emplace(GenerateShape(*w->shape, seed));
        kernel.emplace(powerlog::PowerLog::Compile(CatalogSource(w->program)).ValueOrDie());
        rng.seed(Mix(seed ^ 0xBA7C4ULL));
        oracle = BuildOracle(*w, *kernel, *own, &st);
        doubles = {oracle.mra_edge_apps};
        break;
      }
      case RefOp::kRebuild:  // after mutations: MraEvaluate too, or Dijkstra only
        if (ch.Get<uint8_t>() != 0 || !oracle.exact) {
          oracle = BuildOracle(*w, *kernel, *own, &st);
        } else {
          oracle.values = Dijkstra(*own, kernel->init.source);
        }
        break;
      case RefOp::kVerify: {
        const std::string what = ch.GetString();
        const std::vector<double> got = ch.GetDoubles();
        st.Check(oracle.Verify(what, *own, got));
        doubles = TopKValues(oracle.exact ? oracle.values : got, 10, IsMinProgram(*w));
        break;
      }
      case RefOp::kExpected:
        for (auto count = ch.Get<uint64_t>(); count > 0; --count) {
          doubles.push_back(oracle.values.at(ch.Get<VertexId>()));
        }
        break;
      case RefOp::kSameEdges: {
        const std::string what = ch.GetString();
        std::vector<std::vector<Edge>> rows(ch.Get<uint64_t>());
        for (auto& row : rows) {
          row.resize(ch.Get<uint64_t>());
          ch.GetBytes(row.data(), row.size() * sizeof(Edge));
        }
        st.Check(CheckSameEdges(what, EdgeList(std::move(rows)), *own));
        break;
      }
      case RefOp::kBatch:
        batch = MakeBatch(*own, &rng);
        for (const auto& e : batch.ops()) changed = own->Apply(e) || changed;
        break;
    }
    ch.Put<uint64_t>(st.errors.size());
    for (const auto& e : st.errors) ch.PutString(e);
    st.errors.clear();
    ch.PutDoubles(doubles);
    ch.Put(changed);
    ch.Put<uint64_t>(batch.ops().size());
    for (const auto& e : batch.ops()) ch.Put(e);
    ch.Flush();
  }
}

/// The benchmark's end of the reference process. Check failures it reports
/// go to the run's state.
class Reference {
 public:
  explicit Reference(RunState* st) : ch_(*st->reference), st_(st) {}

  /// Generates the workload graph in the reference process and computes its
  /// expected fixpoint; returns MraEvaluate's edge applications on it.
  double Init(const Workload& w, uint64_t seed) {
    ch_.Put(RefOp::kInit);
    ch_.PutString(w.name);
    ch_.Put(seed);
    return Answer().at(0);
  }

  /// Recomputes the expected fixpoint after mutations: Dijkstra, and with
  /// `with_mra` also MraEvaluate, which must agree with it.
  void Rebuild(bool with_mra) {
    ch_.Put(RefOp::kRebuild);
    ch_.Put<uint8_t>(with_mra);
    Answer();
  }

  /// Checks the output values `at(0)` .. `at(n - 1)`; returns the answer a
  /// k=10 /topk on them must give.
  std::vector<double> Verify(const std::string& what, VertexId n,
                             const std::function<double(VertexId)>& at) {
    ch_.Put(RefOp::kVerify);
    ch_.PutString(what);
    ch_.PutDoubles(n, [&](size_t v) { return at(static_cast<VertexId>(v)); });
    return Answer();
  }
  std::vector<double> Verify(const std::string& what, const std::vector<double>& values) {
    ch_.Put(RefOp::kVerify);
    ch_.PutString(what);
    ch_.PutDoubles(values);
    return Answer();
  }

  /// The expected values of `vertices` (SSSP only: Dijkstra's distances).
  std::vector<double> Expected(const std::vector<VertexId>& vertices) {
    ch_.Put(RefOp::kExpected);
    ch_.Put<uint64_t>(vertices.size());
    for (const VertexId v : vertices) ch_.Put(v);
    return Answer();
  }

  /// Checks that `snapshot` holds exactly the reference edge list's edges.
  void CheckSameEdges(const std::string& what, const Graph& snapshot) {
    ch_.Put(RefOp::kSameEdges);
    ch_.PutString(what);
    ch_.Put<uint64_t>(snapshot.num_vertices());
    for (VertexId v = 0; v < snapshot.num_vertices(); ++v) {
      const auto count = static_cast<uint64_t>(snapshot.OutEnd(v) - snapshot.OutBegin(v));
      ch_.Put(count);
      ch_.PutBytes(snapshot.OutBegin(v), count * sizeof(Edge));
    }
    Answer();
  }

  /// Draws the next mutation batch and applies it to the reference edge
  /// list; `*changed` tells whether the list changed.
  powerlog::MutationBatch NextBatch(bool* changed) {
    ch_.Put(RefOp::kBatch);
    Answer();
    *changed = changed_;
    return std::move(batch_);
  }

 private:
  std::vector<double> Answer() {
    ch_.Flush();
    for (auto count = ch_.Get<uint64_t>(); count > 0; --count) st_->Check(ch_.GetString());
    std::vector<double> doubles = ch_.GetDoubles();
    changed_ = ch_.Get<uint8_t>() != 0;
    batch_.clear();
    for (auto count = ch_.Get<uint64_t>(); count > 0; --count) {
      batch_.Add(ch_.Get<powerlog::EdgeMutation>());
    }
    return doubles;
  }

  Channel& ch_;
  RunState* st_;
  bool changed_ = false;
  powerlog::MutationBatch batch_;
};

// ---------------------------------------------------------------------------
// Workload runs.

bool TimeUp(Clock::time_point deadline, int round) {
  return round > 0 && Clock::now() >= deadline;
}

Clock::time_point Deadline(double seconds) {
  return Clock::now() +
         std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
}

/// pagerank-orkut and sssp-wiki-sync: rounds of one cold PowerLog::Run at 1
/// worker and one at 2 workers (order alternating), then resident reads. A
/// traced sssp-wiki-sync run ends with a few /mutate batches on the resident
/// state, so the re-convergence layer is measured on that cell too. PageRank
/// is left out of that: its mutated state misses the ε residual bound on some
/// seeds (see the FOUND line in CHANGES.md).
void RunFixpointWorkload(const Workload& w, double seconds, uint64_t seed, RunState* st) {
  constexpr int kTracedBatches = 4;
  constexpr int kReadShares = 4;
  const std::string source = CatalogSource(w.program);
  auto t0 = Clock::now();
  Graph generated = GenerateShape(*w.shape, seed);
  st->totals["graph.build_s"] = SecondsSince(t0);

  powerlog::serving::ServingOptions sopt;
  sopt.engine = NativeEngine(2, w.mode);
  sopt.engine.collect_metrics = st->trace;
  powerlog::serving::ServingCatalog catalog(sopt);
  auto entry = catalog.MaterializeSource(w.program, w.shape->name, source, std::move(generated))
                   .ValueOrDie();
  st->totals["setup_s"] = SecondsSince(kProcessStart);
  st->totals["serving.materialize_s"] = entry->materialize_seconds();

  // The cold runs read the catalog's copy of the graph, the only one the
  // process holds. The resident state is checked in full, untimed.
  const std::shared_ptr<const Graph> graph = entry->graph();
  const VertexId n = graph->num_vertices();
  Reference ref(st);
  const double mra_edge_apps = ref.Init(w, seed);
  const auto resident_at = ValuesOf(*entry);
  const std::vector<double> top = ref.Verify("resident state", n, resident_at);
  const bool ascending = IsMinProgram(w);
  Client client(&catalog, w.program, w.shape->name, ascending);
  std::mt19937_64 rng(Mix(seed ^ 0x5EEDULL));
  CpuRotation rotation;

  const auto deadline = Deadline(seconds);
  for (int round = 0; !TimeUp(deadline, round); ++round) {
    const bool traced = st->trace && round % 2 == 1;
    Samples* out = round == 0 ? nullptr : traced ? &st->traced : &st->plain;
    st->spans = traced ? st->tracer.get() : nullptr;
    if (traced) TimeFrontEnd(source, st);
    for (int i = 0; i < 2; ++i) {
      const int workers = (round + i) % 2 == 0 ? 1 : 2;
      powerlog::RunOptions ropt;
      ropt.engine = NativeEngine(static_cast<uint32_t>(workers), w.mode);
      ropt.engine.collect_metrics = traced;
      ++st->attempted;
      const auto r0 = Clock::now();
      std::optional<powerlog::trace::SpanGuard> span;
      span.emplace(st->spans, "powerlog.run");
      auto outcome = powerlog::PowerLog::Run(source, *graph, ropt);
      span.reset();
      const double secs = SecondsSince(r0);
      if (!outcome.ok() || !outcome->stats.converged) {
        st->Fail("PowerLog::Run w" + std::to_string(workers));
        continue;
      }
      (void)ref.Verify("PowerLog::Run w" + std::to_string(workers), outcome->values);
      if (out == nullptr) continue;
      out->Add(workers == 1 ? "fixpoint_w1_ms" : "fixpoint_w2_ms", secs * 1e3);
      if (traced) RecordEngine(outcome->stats, secs, workers, mra_edge_apps, out);
    }
    // The reads are spread over kReadShares CPUs in turn, each share after
    // an untimed warm-up: they measure the resident-state path, not the
    // refill of the caches the cold runs above evicted.
    const int share = w.lookups_per_round / kReadShares;
    for (int i = 0; i < w.lookups_per_round; ++i) {
      if (i % share == 0) {
        rotation.Next();
        for (int j = 0; j < 16; ++j) {
          client.Lookup(static_cast<VertexId>(rng() % n), resident_at, nullptr, st);
        }
        client.TopK(resident_at, &top, nullptr, st);
      }
      client.Lookup(static_cast<VertexId>(rng() % n), resident_at, out, st);
      if (i % (w.lookups_per_round / w.topks_per_round) == 0) {
        client.TopK(resident_at, &top, out, st);
      }
    }
    rotation.Restore();
    if (traced) {
      TimeDirectReads(*entry, w.lookups_per_round, w.topks_per_round, ascending, &rng, st);
    }
  }

  if (st->trace && IsMinProgram(w)) {
    st->spans = st->tracer.get();
    PathCounts paths;
    int64_t version = 1;
    for (int b = 0; b < kTracedBatches; ++b) {
      bool changed = false;
      const powerlog::MutationBatch batch = ref.NextBatch(&changed);
      version += changed;
      (void)Mutate(client, *entry, MutationBody(batch), version, &paths, &st->traced, st);
    }
    paths.Report(st);
    ref.Rebuild(true);
    (void)ref.Verify("resident state after /mutate", n, resident_at);
    ref.CheckSameEdges("snapshot after /mutate", *entry->graph());
  }
  st->Check(CheckCounts("RED request counters", RedCounts(catalog), client.requests()));
}

/// serve-sssp-livej: a 1-worker and a 2-worker catalog receive the same
/// batches; reads go to the 2-worker one. Between checkpoints every read is
/// checked against the 2-worker catalog's resident state; every kCheckEvery
/// rounds and at the end, both resident states, the snapshots and handler
/// reads are checked against Dijkstra on the reference edge list.
void RunServeWorkload(const Workload& w, double seconds, uint64_t seed, RunState* st) {
  constexpr int kCheckEvery = 128;
  const std::string source = CatalogSource(w.program);
  auto t0 = Clock::now();
  Graph graph = GenerateShape(*w.shape, seed);
  st->totals["graph.build_s"] = SecondsSince(t0);

  std::vector<std::unique_ptr<powerlog::serving::ServingCatalog>> catalogs;
  std::vector<std::shared_ptr<powerlog::serving::Materialization>> entries;
  for (const uint32_t workers : {1u, 2u}) {
    powerlog::serving::ServingOptions sopt;
    sopt.engine = NativeEngine(workers, w.mode);
    sopt.engine.collect_metrics = st->trace;
    catalogs.push_back(std::make_unique<powerlog::serving::ServingCatalog>(sopt));
    // The last catalog adopts the generated graph; the first gets a copy.
    entries.push_back(catalogs.back()
                          ->MaterializeSource(w.program, w.shape->name, source,
                                              workers == 2 ? std::move(graph) : graph)
                          .ValueOrDie());
  }
  st->totals["setup_s"] = SecondsSince(kProcessStart);
  st->totals["serving.materialize_s"] =
      (entries[0]->materialize_seconds() + entries[1]->materialize_seconds()) / 2.0;

  const VertexId n = entries[0]->graph()->num_vertices();
  Reference ref(st);
  const double mra_edge_apps = ref.Init(w, seed);
  std::vector<Client> clients;
  for (auto& c : catalogs) clients.emplace_back(c.get(), w.program, w.shape->name, true);
  std::mt19937_64 rng(Mix(seed ^ 0x5EEDULL));
  int64_t changed_batches = 0;
  PathCounts paths[2];
  const auto reads_at = ValuesOf(*entries[1]);
  CpuRotation rotation;

  auto checkpoint = [&](const char* when) {
    ref.Rebuild(false);
    std::vector<double> top;
    for (size_t i = 0; i < entries.size(); ++i) {
      const std::string what = std::string(when) + " w" + std::to_string(i + 1);
      top = ref.Verify(what + " resident state", n, ValuesOf(*entries[i]));
      ref.CheckSameEdges(what + " snapshot", *entries[i]->graph());
      st->Check(CheckCounts(what + " head version",
                            {{"version", static_cast<int64_t>(entries[i]->Version())}},
                            {{"version", 1 + changed_batches}}));
    }
    std::vector<VertexId> probe(8);
    for (VertexId& v : probe) v = static_cast<VertexId>(rng() % n);
    const std::vector<double> dist = ref.Expected(probe);
    for (size_t i = 0; i < probe.size(); ++i) {
      clients[1].Lookup(probe[i], [&](VertexId) { return dist[i]; }, nullptr, st);
    }
    clients[1].TopK(reads_at, &top, nullptr, st);
  };
  checkpoint("after set-up");

  const auto deadline = Deadline(seconds);
  int round = 0;
  for (; !TimeUp(deadline, round); ++round) {
    const bool traced = st->trace && round % 2 == 1;
    Samples* out = round == 0 ? nullptr : traced ? &st->traced : &st->plain;
    st->spans = traced ? st->tracer.get() : nullptr;
    if (traced) TimeFrontEnd(source, st);
    // Each round starts on the next CPU and then lets the scheduler place
    // the client and the engine threads as usual.
    rotation.Next();
    rotation.Restore();
    bool changed = false;
    const powerlog::MutationBatch batch = ref.NextBatch(&changed);
    if (changed) ++changed_batches;
    const std::string body = MutationBody(batch);
    for (int i = 0; i < 2; ++i) {
      const size_t c = static_cast<size_t>((round + i) % 2);  // 0: w1, 1: w2
      const auto secs = Mutate(clients[c], *entries[c], body, 1 + changed_batches, &paths[c],
                               traced && c == 1 ? out : nullptr, st);
      if (secs && out != nullptr) {
        out->Add(c == 0 ? "fixpoint_w1_ms" : "fixpoint_w2_ms", *secs * 1e3);
        if (traced) {
          RecordEngine(entries[c]->Stats(), *secs, static_cast<int>(c) + 1, mra_edge_apps, out);
        }
      }
      for (int j = 0; j < w.lookups_per_round / 2; ++j) {
        clients[1].Lookup(static_cast<VertexId>(rng() % n), reads_at, out, st);
      }
      for (int j = 0; j < w.topks_per_round / 2; ++j) clients[1].TopK(reads_at, nullptr, out, st);
    }
    if (traced) {
      TimeDirectReads(*entries[1], w.lookups_per_round, w.topks_per_round, true, &rng, st);
    }
    if (round % kCheckEvery == kCheckEvery - 1) checkpoint("checkpoint");
  }
  checkpoint("final");
  ref.Rebuild(true);  // MraEvaluate must match Dijkstra too
  for (size_t i = 0; i < catalogs.size(); ++i) {
    st->Check(CheckCounts("RED request counters w" + std::to_string(i + 1),
                          RedCounts(*catalogs[i]), clients[i].requests()));
    st->Check(CheckCounts("graph builds w" + std::to_string(i + 1),
                          {{"graph_builds", catalogs[i]->graph_builds()}},
                          {{"graph_builds", 1 + changed_batches}}));
  }
  paths[1].Report(st);
}

// ---------------------------------------------------------------------------
// Output.

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double Ratio(const RunState& st, const char* name) {
  const double plain = st.plain.Median(name);
  return plain > 0.0 ? st.traced.Median(name) / plain : 0.0;
}

std::map<std::string, double> Collect(const RunState& st) {
  std::map<std::string, double> m = st.totals;
  if (!st.trace) {
    m["peak_rss_mb"] = PeakRssMb();
    m["fixpoint_w1_ms"] = st.plain.Median("fixpoint_w1_ms");
    m["fixpoint_w2_ms"] = st.plain.Median("fixpoint_w2_ms");
    m["lookup_p50_us"] = st.plain.Median("lookup_us");
    const auto it = st.plain.by_name.find("lookup_us");
    if (it != st.plain.by_name.end()) m["lookup_p99_us"] = WindowedQuantile(it->second, 1000, 0.99);
    m["topk_p50_us"] = st.plain.Median("topk_us");
    return m;
  }
  for (const auto& [name, samples] : st.traced.by_name) {
    if (!m.count(name)) m[name] = st.traced.Median(name);
  }
  m["trace.overhead_w1"] = Ratio(st, "fixpoint_w1_ms");
  m["trace.overhead_w2"] = Ratio(st, "fixpoint_w2_ms");
  m["trace.overhead_lookup"] = Ratio(st, "lookup_us");
  return m;
}

void PrintResult(const RunState& st, const std::map<std::string, double>& values) {
  const auto& defs = st.trace ? PerLayerMetrics() : EndToEndMetrics();
  for (const auto& d : defs) {
    const auto it = values.find(d.name);
    std::fprintf(stderr, "  %-34s %16.6f %s\n", d.name.c_str(),
                 it == values.end() ? 0.0 : it->second, d.unit.c_str());
  }
  for (const char* s : {"fixpoint_w1_ms", "fixpoint_w2_ms", "lookup_us", "topk_us"}) {
    std::fprintf(stderr, "  samples %-20s %zu untraced, %zu traced\n", s, st.plain.Count(s),
                 st.traced.Count(s));
  }
  for (const auto& e : st.errors) std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  std::string out = "{\"correct\": ";
  out += st.errors.empty() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(st.attempted);
  out += ", \"failed\": " + std::to_string(st.failed) + ", \"metrics\": {";
  char buf[256];
  for (size_t i = 0; i < defs.size(); ++i) {
    const auto it = values.find(defs[i].name);
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", defs[i].name.c_str(),
                  it == values.end() ? 0.0 : it->second, defs[i].unit.c_str());
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Self-test: every check accepts a correct output and rejects a corrupted one.

/// One self-test case: the check must accept `good` and reject `bad`.
bool Expect(const char* name, const std::string& good, const std::string& bad) {
  const bool ok = good.empty() && !bad.empty();
  std::fprintf(stderr, "selftest %-44s %s\n", name, ok ? "ok" : "FAILED");
  if (!good.empty()) std::fprintf(stderr, "  rejected the correct output: %s\n", good.c_str());
  if (bad.empty()) std::fprintf(stderr, "  accepted the corrupted output\n");
  if (!bad.empty()) std::fprintf(stderr, "  %s\n", bad.c_str());
  return ok;
}

int RunSelfTest() {
  // A small orkut-shaped graph plus one isolated vertex (unreachable for SSSP).
  const Shape small{"small", 10, 8.0, 0.52, 0};
  const Graph base = GenerateShape(small, 1);
  EdgeList own(base);
  powerlog::GraphBuilder builder;
  builder.EnsureVertices(own.num_vertices() + 1);
  for (VertexId v = 0; v < own.num_vertices(); ++v) {
    for (const Edge& e : own.out(v)) builder.AddEdge(v, e.dst, e.weight);
  }
  const Graph graph = std::move(builder).Build().ValueOrDie();
  own = EdgeList(graph);
  bool ok = true;

  // SSSP: the engine's distances against Dijkstra.
  const std::string sssp = CatalogSource("sssp");
  powerlog::RunOptions ropt;
  ropt.engine = NativeEngine(2, ExecMode::kSync);
  const std::vector<double> dist = Dijkstra(own, 0);
  const std::vector<double> got = powerlog::PowerLog::Run(sssp, graph, ropt)->values;
  std::vector<double> nudged = got;
  VertexId far = 0, unreachable = 0;
  for (VertexId v = 0; v < own.num_vertices(); ++v) {
    if (std::isfinite(dist[v]) && dist[v] > dist[far]) far = v;
    if (std::isinf(dist[v])) unreachable = v;
  }
  nudged[far] = std::nextafter(nudged[far], INFINITY);
  ok &= Expect("sssp distance nudged by one ulp", CheckBitExact("sssp", got, dist),
               CheckBitExact("sssp", nudged, dist));
  std::vector<double> finite = got;
  finite[unreachable] = dist[far];
  ok &= Expect("sssp unreachable vertex given a distance", CheckBitExact("sssp", got, dist),
               CheckBitExact("sssp", finite, dist));

  // PageRank: the engine's ranks against MraEvaluate within the ε bounds.
  const std::string pagerank = CatalogSource("pagerank");
  const powerlog::Kernel pr = powerlog::PowerLog::Compile(pagerank).ValueOrDie();
  const auto mra = powerlog::eval::MraEvaluate(pr, graph).ValueOrDie();
  const PageRankBounds bounds = PageRankBoundsFor(pr.termination.epsilon);
  ropt.engine = NativeEngine(2, ExecMode::kSyncAsync);
  const std::vector<double> ranks = powerlog::PowerLog::Run(pagerank, graph, ropt)->values;
  std::vector<double> moved = mra.values;
  moved[far] += bounds.l1 * (1.0 + 1e-9);
  ok &= Expect("pagerank value moved past the L1 bound",
               CheckL1Within("pagerank", ranks, mra.values, bounds.l1),
               CheckL1Within("pagerank", moved, mra.values, bounds.l1));
  moved = ranks;
  moved[far] += 2.0 * bounds.residual;
  ok &= Expect("pagerank value moved past the residual bound",
               CheckResidual("pagerank", own, ranks, bounds.residual),
               CheckResidual("pagerank", own, moved, bounds.residual));

  // Serving: one batch through the catalog, mirrored in two edge lists, one
  // of which misses an op; and per-route counts off by one.
  powerlog::serving::ServingOptions sopt;
  sopt.engine = NativeEngine(2, ExecMode::kSync);
  powerlog::serving::ServingCatalog catalog(sopt);
  const auto entry = catalog.MaterializeSource("sssp", "small", sssp, graph).ValueOrDie();
  RunState st;
  Client client(&catalog, "sssp", "small", true);
  std::mt19937_64 rng(7);
  const powerlog::MutationBatch batch = MakeBatch(own, &rng);
  double secs = 0.0;
  ok &= client.Send("mutate", "", "POST", MutationBody(batch), &secs).has_value();
  EdgeList full = own, missing = own;
  for (size_t i = 0; i < batch.ops().size(); ++i) {
    full.Apply(batch.ops()[i]);
    if (i != 0) missing.Apply(batch.ops()[i]);  // op 0 is an insert
  }
  const EdgeList snapshot(*entry->graph());
  ok &= Expect("edge list missing one applied op", CheckSameEdges("snapshot", snapshot, full),
               CheckSameEdges("snapshot", snapshot, missing));
  EdgeList unweighted = full;
  const auto& reweight = batch.ops()[2];
  unweighted.Apply({powerlog::MutationOp::kReweightEdge, reweight.src, reweight.dst,
                    reweight.weight + 1.0});
  ok &= Expect("edge list with one weight off", CheckSameEdges("snapshot", snapshot, full),
               CheckSameEdges("snapshot", snapshot, unweighted));
  for (VertexId v = 0; v < 3; ++v) client.Lookup(v, ValuesOf(*entry), nullptr, &st);
  auto counted = client.requests();
  auto off_by_one = counted;
  ++off_by_one["serving.red.lookup.requests"];
  ok &= Expect("per-route request count off by one",
               CheckCounts("RED", RedCounts(catalog), counted),
               CheckCounts("RED", RedCounts(catalog), off_by_one));
  ok &= st.errors.empty() && st.failed == 0;
  std::fprintf(stderr, "selftest %s\n", ok ? "passed" : "FAILED");
  return ok ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
               "[--out-dir <dir>]\n       perfbench --selftest\nworkloads:");
  for (const auto& w : Workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload, out_dir = ".bench_out";
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--selftest") return RunSelfTest();
    if (i + 1 >= argc) return Usage();
    const char* v = argv[++i];
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      trace = std::atoi(v);
    } else if (a == "--out-dir") {
      out_dir = v;
    } else {
      return Usage();
    }
  }
  const Workload* w = FindWorkload(workload);
  if (w == nullptr || !(seconds > 0.0) || (trace != 0 && trace != 1)) return Usage();

  // Forked while the process has one thread; it ends when `reference` does.
  const std::unique_ptr<Channel> reference = Channel::Fork(ServeReference);
  RunState st;
  st.reference = reference.get();
  st.trace = trace == 1;
  if (st.trace) {
    st.tracer = std::make_unique<powerlog::trace::Tracer>(1u << 18);
    st.tracer->RegisterCurrentThread("perfbench");
  }
  w->run(*w, seconds, seed, &st);
  if (st.tracer) {
    powerlog::trace::Tracer::UnregisterCurrentThread();
    const std::string path =
        out_dir + "/trace-" + w->name + "-seed" + std::to_string(seed) + ".json";
    std::ofstream(path) << powerlog::trace::ExportChromeTrace(*st.tracer);
  }
  PrintResult(st, Collect(st));
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
