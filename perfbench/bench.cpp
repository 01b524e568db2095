// The repository's end-to-end benchmark program (driven by run.py).
//
// One process runs one workload: it generates its inputs from --seed,
// times every row from the outside (steady_clock around calls into the
// public functions of src/graph, src/algorithms, src/registry,
// src/service, src/rank and the registry's schedulers), checks every
// answer against the sequential oracle, and prints one JSON line:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// plus a span file. README.md in this directory explains the workloads,
// the metrics and why they are measured the way they are.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "algorithms/astar.h"
#include "algorithms/sssp.h"
#include "graph/binary_io.h"
#include "graph/graph.h"
#include "rank/live_rank.h"
#include "registry/algorithm_registry.h"
#include "registry/any_scheduler.h"
#include "registry/graph_registry.h"
#include "registry/params.h"
#include "registry/scheduler_registry.h"
#include "registry/service_factory.h"
#include "registry/static_dispatch.h"
#include "service/query.h"
#include "service/service_driver.h"
#include "support/rng.h"

namespace {

using namespace smq;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---- statistics -------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (p in [0, 1]).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// (Q3 - Q1) / median with Python's statistics.quantiles(n=4) default
/// ("exclusive") method, so in-run spreads read like cross-run ones.
double iqr_frac(std::vector<double> v) {
  if (v.size() < 2) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  auto q = [&](std::size_t i) {
    const std::size_t m = n + 1;
    const std::size_t j = std::clamp<std::size_t>(i * m / 4, 1, n - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (v[j - 1] * (4 - delta) + v[j] * delta) / 4;
  };
  const double mid = median(v);
  return mid == 0 ? 0 : (q(3) - q(1)) / mid;
}

/// The figure reported for a job timed over many rounds: its fast
/// decile, not its median. On a shared VM, other guests' bursts of load
/// (hypervisor steal) slow a share of the rounds that changes from run
/// to run; across processes on a busy host the spread of 3-thread rows
/// was 0.27-0.64 for the median and 0.03-0.20 for the fast decile
/// (README.md). The fast decile reads the rounds the host left alone.
double fast_decile_time(const std::vector<double>& seconds) { return percentile(seconds, 0.10); }
double fast_decile_rate(const std::vector<double>& rates) { return percentile(rates, 0.90); }

std::uint64_t mix(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t s = seed * 0x9E3779B97F4A7C15ULL + stream;
  return splitmix64(s);
}

// ---- tracing ----------------------------------------------------------------

/// In-memory span recorder. Spans are opened around calls into the
/// library (never inside it), kept in memory and written out at the end.
/// A disabled tracer records nothing; its scopes are empty objects.
class Tracer {
 public:
  struct Span {
    std::string name;  // "<layer>.<call>"
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
    std::uint64_t query = 0;  // 1-based query id; 0 = not a query span
    std::vector<std::pair<std::string, double>> counts;
  };

  class Scope {
   public:
    Scope(Tracer* tracer, int id) : tracer_(tracer), id_(id) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { end(); }
    /// Close the span now instead of at scope exit.
    void end() {
      if (tracer_ != nullptr) tracer_->close(id_);
      tracer_ = nullptr;
    }
    void count(std::string key, double value) {
      if (tracer_ != nullptr) tracer_->spans_[id_].counts.emplace_back(std::move(key), value);
    }

   private:
    Tracer* tracer_;
    int id_;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  void set_enabled(bool on) { enabled_ = on; }

  Scope scope(std::string_view name, std::uint64_t query = 0) {
    if (!enabled_) return Scope(nullptr, -1);
    spans_.push_back({std::string(name), ns(Clock::now()), 0, current(), query, {}});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return Scope(this, stack_.back());
  }

  /// A finished interval measured elsewhere (a query's life from submit
  /// to completion), attached under the innermost open span.
  void record(std::string_view name, Clock::time_point start, Clock::time_point end,
              std::uint64_t query) {
    if (!enabled_) return;
    spans_.push_back({std::string(name), ns(start), ns(end), current(), query, {}});
  }

  std::size_t size() const { return spans_.size(); }

  /// Self time per layer: the part of each span's interval that none of
  /// its children cover, unioned over the layer's spans (the name's
  /// prefix before the '.'), so concurrent query spans count wall time
  /// once.
  std::map<std::string, double> self_seconds_by_layer() const {
    using Interval = std::pair<std::int64_t, std::int64_t>;
    std::vector<std::vector<Interval>> kids(spans_.size());
    for (const Span& s : spans_) {
      if (s.parent >= 0) kids[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
    std::map<std::string, std::vector<Interval>> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::vector<Interval>& out = self[s.name.substr(0, s.name.find('.'))];
      std::int64_t cursor = s.start_ns;
      for (const Interval& kid : merged(std::move(kids[i]))) {
        if (kid.first > cursor) out.emplace_back(cursor, std::min(kid.first, s.end_ns));
        cursor = std::max(cursor, kid.second);
      }
      if (s.end_ns > cursor) out.emplace_back(cursor, s.end_ns);
    }
    std::map<std::string, double> seconds;
    for (auto& [layer, intervals] : self) {
      std::int64_t total = 0;
      for (const Interval& iv : merged(std::move(intervals))) total += iv.second - iv.first;
      seconds[layer] = static_cast<double>(total) * 1e-9;
    }
    return seconds;
  }

  void write(const std::string& path, const std::map<std::string, double>& self_s,
             double overhead_ms) const {
    std::ofstream f(path);
    f << "{\n  \"overhead_ms\": " << overhead_ms << ",\n  \"self_seconds\": {";
    bool first = true;
    for (const auto& [layer, s] : self_s) {
      f << (first ? "" : ",") << "\n    \"" << layer << "\": " << s;
      first = false;
    }
    f << "\n  },\n  \"spans\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      f << (i == 0 ? "" : ",") << "\n    {\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"parent\": " << s.parent << ", \"query\": " << s.query;
      if (!s.counts.empty()) {
        f << ", \"counts\": {";
        for (std::size_t k = 0; k < s.counts.size(); ++k) {
          f << (k == 0 ? "" : ", ") << "\"" << s.counts[k].first << "\": " << s.counts[k].second;
        }
        f << "}";
      }
      f << "}";
    }
    f << "\n  ]\n}\n";
  }

 private:
  /// Sorted, non-overlapping union of `v`.
  static std::vector<std::pair<std::int64_t, std::int64_t>> merged(
      std::vector<std::pair<std::int64_t, std::int64_t>> v) {
    std::sort(v.begin(), v.end());
    std::vector<std::pair<std::int64_t, std::int64_t>> out;
    for (const auto& iv : v) {
      if (!out.empty() && iv.first <= out.back().second) {
        out.back().second = std::max(out.back().second, iv.second);
      } else {
        out.push_back(iv);
      }
    }
    return out;
  }
  std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_).count();
  }
  int current() const { return stack_.empty() ? -1 : stack_.back(); }
  void close(int id) {
    spans_[id].end_ns = ns(Clock::now());
    stack_.pop_back();
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// ---- workloads --------------------------------------------------------------

struct Spec {
  std::string name;
  std::string graph;  // graph registry key
  ParamMap graph_params;
  std::size_t queries = 0;
  // The target of a query is the end of a walk of this many hops from
  // the source, so a query touches a neighbourhood, not the whole graph.
  unsigned query_hops = 1;
  // Walk along each vertex's lightest out-edge instead of a random one.
  bool lightest_edge = false;
  // Side of the square (in coordinate units) that every query's source
  // lies in, around a seeded vertex; 0 = sources anywhere in the graph.
  double district = 0;
  // Queries submitted at once in one closed-loop sample (cycling through
  // the set): enough work that waking the parked workers is noise.
  std::size_t closed_chunk = 10000;
  std::uint64_t seed = 1;
};

constexpr const char* kWorkloads[] = {"sssp-rand", "sssp-road"};

Spec make_spec(const std::string& workload, std::uint64_t seed, bool smoke) {
  Spec spec;
  spec.name = workload;
  spec.seed = seed;
  spec.graph_params.set("seed", std::to_string(mix(seed, 1)));
  if (workload == "sssp-rand") {
    spec.graph = "rand";
    spec.graph_params.set("vertices", smoke ? "20000" : "250000");
    spec.graph_params.set("edges", smoke ? "160000" : "2000000");
    spec.queries = smoke ? 200 : 1000;
    // One hop along the lightest edge: on a random graph the ball a
    // query settles grows exponentially with the target's distance, so
    // a random neighbour makes a few queries cost 100x the median and
    // the query set's cost depends on the seed.
    spec.query_hops = 1;
    spec.lightest_edge = true;
  } else if (workload == "sssp-road") {
    spec.graph = "road";
    spec.graph_params.set("vertices", smoke ? "20000" : "1000000");
    spec.queries = smoke ? 200 : 1000;
    spec.query_hops = 16;
    // One district of 64 x 64 lattice cells: the queries' graph, labels
    // and coordinates stay in cache, as on a small road graph, so the
    // service figure reads the pool, not the shared host's memory.
    spec.district = 64;
  } else {
    throw std::invalid_argument("unknown workload '" + workload + "'");
  }
  if (smoke) spec.closed_chunk = 500;
  return spec;
}

std::vector<Query> make_queries(const Spec& spec, const GraphInstance& g) {
  const Graph& graph = *g.graph;
  Xoshiro256 rng(mix(spec.seed, 2));
  std::vector<VertexId> sources;
  const Coordinates& xy = graph.coordinates();
  if (spec.district > 0 && !xy.empty()) {
    const auto centre = static_cast<VertexId>(rng.next_below(graph.num_vertices()));
    const double half = spec.district / 2;
    for (VertexId v = 0; v < graph.num_vertices(); ++v) {
      if (std::abs(xy.x[v] - xy.x[centre]) < half && std::abs(xy.y[v] - xy.y[centre]) < half) {
        sources.push_back(v);
      }
    }
  }
  std::vector<Query> out;
  out.reserve(spec.queries);
  while (out.size() < spec.queries) {
    Query q;
    q.source = sources.empty() ? static_cast<VertexId>(rng.next_below(graph.num_vertices()))
                               : sources[rng.next_below(sources.size())];
    q.target = q.source;
    for (unsigned h = 0; h < spec.query_hops; ++h) {
      const auto nbrs = graph.neighbors(q.target);
      if (nbrs.empty()) break;
      q.target = spec.lightest_edge
                     ? std::min_element(nbrs.begin(), nbrs.end(),
                                        [](const auto& a, const auto& b) {
                                          return a.weight < b.weight;
                                        })->to
                     : nbrs[rng.next_below(nbrs.size())].to;
    }
    if (q.target != q.source) out.push_back(q);
  }
  return out;
}

std::uint64_t graph_checksum(const Graph& g) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto fold = [&](std::uint64_t x) { h = (h ^ x) * 0x100000001b3ULL; };
  for (const std::size_t o : g.offsets()) fold(o);
  for (const Graph::Neighbor& n : g.adjacency()) fold((std::uint64_t{n.to} << 32) | n.weight);
  return h;
}

std::uint64_t query_checksum(std::span<const Query> qs) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const Query& q : qs) {
    h = (h ^ ((std::uint64_t{q.source} << 32) | q.target)) * 0x100000001b3ULL;
  }
  return h;
}

// ---- measurement plumbing -------------------------------------------------

/// Operation accounting for the result line: every timed parallel run
/// and every query is one attempted operation; a wrong answer, an
/// exception or a query that never completes is a failed one.
struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void record(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::cerr << "perfbench: FAILED " << what << "\n";
    }
  }
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::size_t samples = 1;
  double median = NAN;  // printed next to a fast-decile figure
};

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// ---- the SSSP rows ----------------------------------------------------------

struct RowSpec {
  std::string key;    // metric stem, e.g. "smq.t3"
  std::string sched;  // scheduler registry key
  unsigned threads = 1;
  std::size_t batch = 64;
  bool static_dispatch = false;
};

struct RowStats {
  std::vector<double> seconds;
  std::vector<double> cpu_util;
  std::uint64_t pops = 0, wasted = 0, empty_pops = 0, steals = 0, steal_fails = 0;
};

/// The SSSP rows from vertex 0. The clock covers the solve alone: the
/// registry's scheduler is built before it starts, and the distances
/// are compared with the oracle's after it stops.
class Rows {
 public:
  Rows(const GraphInstance& graph, Tracer& tracer, Ledger& ledger)
      : graph_(graph), tracer_(tracer), ledger_(ledger) {}

  /// One sequential-oracle rep; the first one becomes the oracle every
  /// later rep and every parallel row is checked against.
  void run_seq() {
    auto span = tracer_.scope("algorithms.sequential_sssp");
    const auto t0 = Clock::now();
    SequentialSsspResult seq = sequential_sssp(*graph_.graph, kSource);
    const auto t1 = Clock::now();
    seq_seconds_.push_back(seconds_between(t0, t1));
    span.count("settled", static_cast<double>(seq.settled));
    if (!oracle_) {
      oracle_ = std::make_shared<std::vector<std::uint64_t>>(std::move(seq.distances));
      settled_ = seq.settled;
    } else {
      ledger_.record(seq.distances == *oracle_ && seq.settled == settled_,
                     "sequential oracle is not deterministic");
    }
  }

  void run(const RowSpec& row) {
    RowStats& st = stats_[row.key];
    try {
      const Timed t = row.static_dispatch ? run_static(row) : run_erased(row);
      st.seconds.push_back(t.wall);
      st.cpu_util.push_back(t.cpu / (t.wall * row.threads));
      const ThreadStats& s = t.run.stats;
      st.pops += s.pops;
      st.wasted += s.wasted;
      st.empty_pops += s.empty_pops;
      st.steals += s.steals;
      st.steal_fails += s.steal_fails;
      ledger_.record(t.ok, row.key + " distances differ from the oracle");
    } catch (const std::exception& e) {
      ledger_.record(false, row.key + " threw: " + e.what());
    }
  }

  /// Forget the timings so far (the warm-up round); the oracle stays.
  void discard_samples() {
    seq_seconds_.clear();
    stats_.clear();
  }

  std::uint64_t settled() const { return settled_; }
  const std::vector<std::uint64_t>& oracle() const { return *oracle_; }
  /// The self-test corrupts it to see the rows flagged.
  std::vector<std::uint64_t>& mutable_oracle() { return *oracle_; }
  const std::vector<double>& seq_seconds() const { return seq_seconds_; }
  const RowStats& stats(const std::string& key) { return stats_[key]; }

 private:
  static constexpr VertexId kSource = 0;

  struct Timed {
    RunResult run;
    double wall = 0;  // seconds
    double cpu = 0;   // process CPU seconds over the same interval
    bool ok = false;  // the distances equal the oracle's
  };

  /// The registry's type-erased scheduler driven by parallel_sssp, the
  /// instantiation the algorithm registry's "sssp" entry runs.
  Timed run_erased(const RowSpec& row) {
    ParamMap params;
    params.set("batch-size", std::to_string(row.batch));
    AnyScheduler sched = [&] {
      auto span = tracer_.scope("registry.create");
      return SchedulerRegistry::instance().create(row.sched, row.threads, params);
    }();
    ExecutorOptions exec;
    exec.batch_size = row.batch;
    auto span = tracer_.scope("algorithms.parallel_sssp");
    const double cpu0 = cpu_seconds();
    const auto t0 = Clock::now();
    ShortestPathResult res = parallel_sssp(*graph_.graph, kSource, sched, row.threads, exec);
    Timed out{res.run, seconds_between(t0, Clock::now()), cpu_seconds() - cpu0, false};
    span.count("tasks", static_cast<double>(res.run.stats.pops));
    span.count("steals", static_cast<double>(res.run.stats.steals));
    span.end();
    out.ok = res.distances == *oracle_;
    return out;
  }

  /// run_static_dispatch builds its scheduler and checks the answer
  /// inside the call, so this row's time includes both.
  Timed run_static(const RowSpec& row) {
    ParamMap params;
    params.set("source", std::to_string(kSource));
    params.set("batch-size", std::to_string(row.batch));
    AlgoReference ref;
    ref.oracle = oracle_;
    auto span = tracer_.scope("registry.run_static_dispatch");
    const double cpu0 = cpu_seconds();
    const auto t0 = Clock::now();
    std::optional<AlgoResult> r =
        run_static_dispatch(row.sched, "sssp", graph_, row.threads, params, &ref);
    Timed out{{}, seconds_between(t0, Clock::now()), cpu_seconds() - cpu0, false};
    if (!r) throw std::runtime_error("no static dispatch row for " + row.sched);
    span.count("tasks", static_cast<double>(r->run.stats.pops));
    out.run = r->run;
    out.ok = r->validated && r->valid;
    return out;
  }

  const GraphInstance& graph_;
  Tracer& tracer_;
  Ledger& ledger_;
  std::shared_ptr<std::vector<std::uint64_t>> oracle_;  // distances from kSource
  std::uint64_t settled_ = 0;
  std::vector<double> seq_seconds_;
  std::map<std::string, RowStats> stats_;
};

// ---- the service drives -----------------------------------------------------

constexpr unsigned kServiceWorkers = 2;
constexpr std::size_t kServiceBatch = ServiceOptions{}.batch_size;
constexpr double kOfferedQps = 200;
constexpr auto kQueryTimeout = std::chrono::seconds(60);

struct Drive {
  std::vector<QueryResult> results;
  std::vector<bool> done;          // completed before the deadline
  std::vector<double> latency_s;   // from each query's due time
  std::vector<double> late_s;      // how late the generator submitted it
  double seconds = 0;              // first due time to last completion

  std::vector<double> finished(const std::vector<double>& v) const {
    std::vector<double> out;
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (done[i]) out.push_back(v[i]);
    }
    return out;
  }
};

/// Submit `queries` all at once (rate 0, closed loop) or as Poisson
/// arrivals at `rate` per second (open loop), and wait for every answer.
/// Each query is timed from when it was due, so a stall also charges the
/// queries queued behind it; one that is not answered within the
/// timeout is left not done. The wait starts at the last ticket: a
/// client asleep on each ticket in turn would make the workers wake it
/// once per answer, and those cross-CPU wake-ups (slow and erratic on a
/// shared VM) would be timed as the service's.
Drive drive(QueryService& service, std::span<const Query> queries, double rate,
            std::uint64_t seed, Tracer& tracer) {
  auto drive_span = tracer.scope(rate > 0 ? "service.open_loop" : "service.closed_loop");
  // Per-query spans for the open loop only: closed-loop chunks run
  // hundreds of thousands of queries, and their span is the chunk's.
  const bool query_spans = rate > 0;
  Xoshiro256 rng(seed);
  const std::size_t n = queries.size();
  std::vector<Clock::time_point> due(n), submitted(n);
  std::vector<QueryTicket> tickets;
  tickets.reserve(n);
  const auto start = Clock::now();
  double arrival = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (rate > 0) {
      arrival += -std::log(std::max(rng.next_double(), 1e-12)) / rate;
      due[i] = start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(arrival));
      // Spin rather than sleep: a sleeping generator's vCPU halts, and
      // the hypervisor's wake-up delay would be charged to the query.
      while (Clock::now() < due[i]) {
      }
    } else {
      due[i] = start;
    }
    auto span = query_spans ? tracer.scope("service.submit", i + 1) : Tracer::Scope(nullptr, -1);
    submitted[i] = Clock::now();
    tickets.push_back(service.submit(queries[i]));
  }
  Drive out;
  out.results.resize(n);
  out.done.assign(n, false);
  out.latency_s.assign(n, 0);
  out.late_s.assign(n, 0);
  const auto deadline = Clock::now() + kQueryTimeout;
  if (n > 0) tickets.back().wait_until(deadline);
  for (std::size_t i = 0; i < n; ++i) {
    if (tickets[i].wait_until(deadline) != std::future_status::ready) continue;
    out.results[i] = tickets[i].get();
    out.done[i] = true;
    out.late_s[i] = seconds_between(due[i], submitted[i]);
    out.latency_s[i] = out.late_s[i] + out.results[i].latency_seconds;
    if (!query_spans) continue;
    tracer.record("service.query", submitted[i],
                  submitted[i] + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(out.results[i].latency_seconds)),
                  i + 1);
  }
  out.seconds = seconds_between(start, Clock::now());
  return out;
}

/// Count each query of a drive as one operation, failed unless it was
/// answered with the oracle's distance. Returns true when none failed.
bool check_drive(const Drive& d, std::span<const std::uint64_t> want, const char* mode,
                 Ledger& ledger) {
  bool all = true;
  for (std::size_t i = 0; i < d.results.size(); ++i) {
    const bool ok = d.done[i] && d.results[i].distance == want[i];
    ledger.record(ok, ok ? std::string() : "query " + std::to_string(i) + " (" + mode + ")");
    all = all && ok;
  }
  return all;
}

/// One query in flight at a time: per-query execution latency with no
/// queue wait in front of it. Each query runs twice back to back, once
/// traced and once not (alternating which goes first), so the sum of
/// the differences is the tracing overhead with the host's drift paired
/// out.
struct OneAtATime {
  std::vector<double> exec_s;    // untraced
  std::vector<double> traced_s;  // traced
  bool complete = true;          // false: a query timed out, the drive stopped
};

OneAtATime drive_one_at_a_time(QueryService& service, std::span<const Query> queries,
                               std::span<const std::uint64_t> want, Tracer& tracer,
                               Ledger& ledger) {
  auto drive_span = tracer.scope("service.one_at_a_time");
  OneAtATime out;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    for (int pass = 0; pass < 2; ++pass) {
      const bool traced = (pass == 0) == (i % 2 == 0);
      tracer.set_enabled(traced);
      auto span = tracer.scope("service.run", i + 1);
      const auto t0 = Clock::now();
      QueryTicket ticket = service.submit(queries[i]);
      const bool done = ticket.wait_for(kQueryTimeout) == std::future_status::ready;
      (traced ? out.traced_s : out.exec_s).push_back(seconds_between(t0, Clock::now()));
      const bool ok = done && ticket.get().distance == want[i];
      ledger.record(ok, ok ? std::string() : "query " + std::to_string(i) + " (one at a time)");
      if (!done) {
        out.complete = false;
        tracer.set_enabled(true);
        return out;
      }
    }
  }
  tracer.set_enabled(true);
  return out;
}

// ---- per-layer probes ---------------------------------------------------------

/// Bytes per second of a full CSR sweep through Graph::neighbors: median
/// of `reps` sweeps. `checksum` receives the sweep's weight/target fold.
double scan_gbps(const Graph& g, int reps, std::uint64_t& checksum) {
  std::vector<double> secs;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    std::uint64_t sum = 0;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      for (const Graph::Neighbor& n : g.neighbors(v)) sum += n.weight ^ n.to;
    }
    secs.push_back(seconds_between(t0, Clock::now()));
    checksum = sum;
  }
  const double bytes = static_cast<double>((g.num_vertices() + 1) * sizeof(std::size_t) +
                                           g.num_edges() * sizeof(Graph::Neighbor));
  return bytes / median(secs) / 1e9;
}

/// Copy bandwidth over a working set of four last-level caches (read +
/// write bytes per second): the ceiling for the scan metrics.
double copy_gbps(bool smoke) {
  long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (llc <= 0) llc = 32L << 20;
  const std::size_t total = smoke ? (std::size_t{16} << 20) : 4 * static_cast<std::size_t>(llc);
  std::vector<char> buf(total, 1);
  const std::size_t half = total / 2;
  std::vector<double> secs;
  for (int r = 0; r < 3; ++r) {
    const auto t0 = Clock::now();
    std::memcpy(buf.data() + half, buf.data(), half);
    secs.push_back(seconds_between(t0, Clock::now()));
    buf[static_cast<std::size_t>(r)] ^= buf[half + static_cast<std::size_t>(r)];
  }
  return 2.0 * static_cast<double>(half) / median(secs) / 1e9;
}

/// Push/pop throughput (millions of successful ops per second) at a
/// steady queue size: every thread pops one task and pushes one back,
/// through the registry scheduler's per-thread handles.
double queue_mops(const std::string& key, unsigned threads, std::size_t per_thread,
                  std::size_t ops_per_thread) {
  AnyScheduler sched = SchedulerRegistry::instance().create(key, threads, {});
  for (unsigned tid = 0; tid < threads; ++tid) {
    AnyScheduler::Handle h = sched.handle(tid);
    Xoshiro256 rng(mix(tid, 7));
    for (std::size_t i = 0; i < per_thread; ++i) h.push(Task{rng.next_below(1u << 20), i});
    h.flush();
  }
  std::atomic<unsigned> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::uint64_t> done(threads, 0);
  std::vector<std::thread> workers;
  for (unsigned tid = 0; tid < threads; ++tid) {
    workers.emplace_back([&, tid] {
      AnyScheduler::Handle h = sched.handle(tid);
      Xoshiro256 rng(mix(tid, 8));
      ready.fetch_add(1, std::memory_order_acq_rel);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      std::uint64_t ops = 0;
      for (std::size_t i = 0; i < ops_per_thread; ++i) {
        const std::optional<Task> t = h.try_pop();
        ops += t ? 2 : 1;
        h.push(Task{(t ? t->priority : 0) + 1 + rng.next_below(1024), i});
      }
      h.flush();
      done[tid] = ops;
    });
  }
  while (ready.load(std::memory_order_acquire) < threads) std::this_thread::yield();
  const auto t0 = Clock::now();
  go.store(true, std::memory_order_release);
  for (std::thread& w : workers) w.join();
  const double secs = seconds_between(t0, Clock::now());
  return static_cast<double>(std::accumulate(done.begin(), done.end(), std::uint64_t{0})) /
         secs / 1e6;
}

// ---- one workload -------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0;  // --seconds, required
  bool trace = false;
  bool smoke = false;
  std::string out_dir = ".bench_out";
};

struct Setup {
  GraphInstance graph;
  std::vector<Query> queries;
  std::unique_ptr<QueryService> service;
};

Setup set_up(const Spec& spec, Tracer& tracer) {
  Setup s;
  {
    auto span = tracer.scope("graph.create");
    s.graph = GraphRegistry::instance().create(spec.graph, spec.graph_params);
  }
  s.queries = make_queries(spec, s.graph);
  auto span = tracer.scope("registry.make_service");
  s.service = make_service("smq", kServiceWorkers, {}, s.graph);
  s.service->start();
  return s;
}

// Set-ups before the rounds; the last one serves them.
constexpr std::size_t kFirstSetups = 3;

const std::vector<RowSpec> kTimedRows = {
    {"smq.t1", "smq", 1, 64, false},
    {"smq.t3", "smq", 3, 64, false},
    {"mq-opt.t3", "mq-opt", 3, 64, false},
};

// Traced run only: the erased-vs-static and per-task-loop comparisons.
const std::vector<RowSpec> kLayerRows = {
    {"registry.static.t1", "smq", 1, 64, true},
    {"registry.b1.t1", "smq", 1, 1, false},
    {"sched.b1.t3", "smq", 3, 1, false},
};

int run_workload(const Options& opt) {
  const Spec spec = make_spec(opt.workload, opt.seed, opt.smoke);
  Tracer tracer(opt.trace);
  Ledger ledger;
  std::vector<Metric> metrics;
  auto add = [&](std::string name, double value, std::string unit, std::size_t n = 1,
                 double median = NAN) {
    metrics.push_back({std::move(name), value, std::move(unit), n, median});
  };
  auto root = tracer.scope("bench.workload");

  // Set-up, timed: the graph (no cache), the query set and a started
  // service. kFirstSetups run first, each torn down before the next is
  // built, and the last one serves the rounds; every timed round builds
  // and tears down one more. Set-up time follows the host's memory
  // speed, which shifts within seconds on a shared VM, so set-ups spread
  // over the whole run give a steadier median than a burst at the start.
  std::vector<double> setup_s;
  auto timed_set_up = [&] {
    const auto t0 = Clock::now();
    Setup s = set_up(spec, tracer);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    return s;
  };
  Setup setup;
  while (setup_s.size() < kFirstSetups) {
    if (setup.service) setup.service->stop();
    setup = Setup{};
    setup = timed_set_up();
  }
  const GraphInstance& graph = setup.graph;
  QueryService& service = *setup.service;
  std::cerr << "perfbench: " << spec.name << " seed " << spec.seed << ": " << graph.name
            << ", " << graph.graph->num_vertices() << " vertices, " << graph.graph->num_edges()
            << " edges, graph checksum " << graph_checksum(*graph.graph) << ", "
            << setup.queries.size() << " queries, query checksum "
            << query_checksum(setup.queries) << "\n";

  ServiceReference qref;
  {
    auto span = tracer.scope("service.measure_service_reference");
    qref = measure_service_reference(graph, setup.queries, 1);
  }

  // Service closed-loop capacity: chunks of queries submitted at once,
  // the next spec.closed_chunk queries of the set each time (cycling);
  // the figure is the fast decile of their rates.
  std::vector<double> chunk_qps;
  const std::size_t nq = setup.queries.size();
  bool unfinished = false;
  std::size_t next = 0;
  auto closed_chunk = [&] {
    std::vector<Query> part(spec.closed_chunk);
    std::vector<std::uint64_t> want(spec.closed_chunk);
    for (std::size_t i = 0; i < part.size(); ++i, next = (next + 1) % nq) {
      part[i] = setup.queries[next];
      want[i] = qref.distances[next];
    }
    const Drive d = drive(service, part, 0, 0, tracer);
    chunk_qps.push_back(static_cast<double>(part.size()) / d.seconds);
    unfinished |= !check_drive(d, want, "closed loop", ledger);
  };

  // Rounds of SSSP rows with a closed-loop chunk after each, round-robin
  // so that a slow spell hits every row and the service alike; each
  // figure is the fast decile over rounds (over chunks for svc.qps).
  // The first round is a warm-up (fresh memory faulting in, allocator
  // arenas growing) whose answers are checked but whose timings are
  // dropped.
  Rows rows(graph, tracer, ledger);
  std::vector<RowSpec> round = kTimedRows;
  if (opt.trace) round.insert(round.end(), kLayerRows.begin(), kLayerRows.end());
  const int min_rounds = 3;
  Clock::time_point rows_deadline;
  for (int r = -1; r < min_rounds || Clock::now() < rows_deadline; ++r) {
    auto span = tracer.scope("bench.round");
    if (r >= 0) timed_set_up().service->stop();
    rows.run_seq();
    closed_chunk();
    for (const RowSpec& row : round) {
      rows.run(row);
      closed_chunk();
    }
    if (r == -1) {
      rows.discard_samples();
      chunk_qps.clear();
      rows_deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                         std::chrono::duration<double>(opt.seconds));
    }
  }

  if (!opt.trace) {
    std::map<std::string, std::vector<double>> samples = {
        {"setup_s", setup_s}, {"seq_s", rows.seq_seconds()}, {"svc.qps", chunk_qps}};
    for (const RowSpec& row : kTimedRows) samples[row.key + "_s"] = rows.stats(row.key).seconds;
    add("setup_s", median(setup_s), "s", setup_s.size());
    for (const char* name : {"seq_s", "smq.t1_s", "smq.t3_s", "mq-opt.t3_s"}) {
      add(name, fast_decile_time(samples[name]), "s", samples[name].size(),
          median(samples[name]));
    }
    add("svc.qps", fast_decile_rate(chunk_qps), "1/s", chunk_qps.size(), median(chunk_qps));
    // Every sample behind the figures, for a reader checking one.
    std::ofstream f(opt.out_dir + "/samples-" + spec.name + "-seed" + std::to_string(spec.seed) +
                    ".json");
    f << "{";
    for (auto it = samples.begin(); it != samples.end(); ++it) {
      f << (it == samples.begin() ? "\n" : ",\n") << "  \"" << it->first << "\": [";
      for (std::size_t i = 0; i < it->second.size(); ++i) f << (i ? ", " : "") << it->second[i];
      f << "]";
    }
    f << "\n}\n";
  } else {
    // ---- per-layer numbers (traced run only) ----
    // Open-loop latency at a fixed offered rate.
    const Drive open = drive(service, setup.queries, kOfferedQps, mix(spec.seed, 3), tracer);
    unfinished |= !check_drive(open, qref.distances, "open loop", ledger);
    const std::vector<double> open_latency = open.finished(open.latency_s);

    std::uint64_t mem_sum = 0;
    std::uint64_t map_sum = 0;
    {
      auto span = tracer.scope("graph.scan");
      add("graph.scan_gbps", scan_gbps(*graph.graph, 5, mem_sum), "GB/s", 5);
    }
    {
      namespace fs = std::filesystem;
      const fs::path dir = fs::path(opt.out_dir) / "tmp";
      fs::create_directories(dir);
      const fs::path file = dir / ("graph-" + std::to_string(getpid()) + ".bin");
      {
        auto span = tracer.scope("graph.save_binary_graph");
        save_binary_graph(file.string(), *graph.graph);
      }
      {
        Graph mapped;
        {
          auto span = tracer.scope("graph.load_binary_graph_mmap");
          mapped = load_binary_graph_mmap(file.string());
        }
        auto span = tracer.scope("graph.scan");
        add("graph.mmap_scan_gbps", scan_gbps(mapped, 5, map_sum), "GB/s", 5);
        ledger.record(mapped.is_mapped() && map_sum == mem_sum,
                      "memory-mapped graph differs from the generated one");
      }
      fs::remove(file);
      fs::remove(dir);  // only if empty: another run may share it
    }
    {
      auto span = tracer.scope("bench.memcpy");
      add("mem.copy_gbps", copy_gbps(opt.smoke), "GB/s", 3);
    }

    const std::vector<std::uint64_t>& dist = rows.oracle();
    std::uint64_t relaxed = 0;
    for (VertexId v = 0; v < dist.size(); ++v) {
      if (dist[v] != DistanceArray::kUnreached) relaxed += graph.graph->out_degree(v);
    }
    add("algorithms.seq_settled", static_cast<double>(rows.settled()), "count");
    add("algorithms.seq_medges_s",
        static_cast<double>(relaxed) / fast_decile_time(rows.seq_seconds()) / 1e6, "Medges/s",
        rows.seq_seconds().size());

    for (const RowSpec& row : kLayerRows) {
      if (row.key == "sched.b1.t3") continue;
      const RowStats& st = rows.stats(row.key);
      add(row.key + "_s", fast_decile_time(st.seconds), "s", st.seconds.size());
    }
    for (const RowSpec& row : kTimedRows) {
      const RowStats& st = rows.stats(row.key);
      const double reps = static_cast<double>(st.seconds.size());
      const std::string stem = "sched." + row.key;
      add(stem + ".work_x",
          static_cast<double>(st.pops) / (reps * static_cast<double>(rows.settled())), "x");
      add(stem + ".wasted_frac",
          st.pops == 0 ? 0 : static_cast<double>(st.wasted) / static_cast<double>(st.pops), "frac");
      add(stem + ".empty_pop_frac",
          static_cast<double>(st.empty_pops) /
              std::max<double>(1, static_cast<double>(st.pops + st.empty_pops)),
          "frac");
      add(stem + ".cpu_util", median(st.cpu_util), "frac", st.cpu_util.size());
    }
    const RowStats& b1 = rows.stats("sched.b1.t3");
    add("sched.b1.t3_s", fast_decile_time(b1.seconds), "s", b1.seconds.size());
    add("sched.b1.t3_spread", iqr_frac(b1.seconds), "frac", b1.seconds.size());
    for (const RowSpec& row : kTimedRows) {
      if (row.threads != 3) continue;
      const RowStats& st = rows.stats(row.key);
      const double reps = static_cast<double>(st.seconds.size());
      const std::string stem = "core." + row.key;
      add(stem + ".steals", static_cast<double>(st.steals) / reps, "count");
      add(stem + ".steal_fails", static_cast<double>(st.steal_fails) / reps, "count");
      add(stem + ".steal_success",
          st.steals + st.steal_fails == 0
              ? 0
              : static_cast<double>(st.steals) / static_cast<double>(st.steals + st.steal_fails),
          "frac");
    }
    {
      auto span = tracer.scope("rank.measure_live_rank");
      AnyScheduler smq = SchedulerRegistry::instance().create("smq", 3, {});
      const std::size_t n = opt.smoke ? 5000 : 100000;
      const LiveRankResult lr = measure_live_rank(smq, n, 1);
      ledger.record(lr.pops == n, "live rank probe lost tasks");
      add("core.rank_mean", lr.mean_rank, "count");
      add("core.rank_max", static_cast<double>(lr.max_rank), "count");
    }
    const std::size_t qops = opt.smoke ? 20000 : 400000;
    for (const char* key : {"smq", "mq-opt"}) {
      for (unsigned t : {1u, 3u}) {
        auto span = tracer.scope("queues.ops");
        add(std::string("queues.") + key + ".mops.t" + std::to_string(t),
            queue_mops(key, t, 4096, qops), "Mops/s");
      }
    }

    // Service layers: execution alone (one query in flight), traced and
    // untraced; queue wait is each query's open-loop latency minus its
    // own execution latency.
    const OneAtATime one =
        drive_one_at_a_time(service, setup.queries, qref.distances, tracer, ledger);
    const std::vector<double>& exec_s = one.exec_s;
    unfinished |= !one.complete;
    const double overhead_ms = (std::accumulate(one.traced_s.begin(), one.traced_s.end(), 0.0) -
                                std::accumulate(exec_s.begin(), exec_s.end(), 0.0)) * 1e3;
    std::vector<double> wait_s;
    for (std::size_t i = 0; i < exec_s.size(); ++i) {
      if (open.done[i]) wait_s.push_back(open.latency_s[i] - exec_s[i]);
    }
    // Open-loop latency is reported here, not gated: at 200 queries/s on
    // a shared VM it follows the hypervisor's vCPU wake-ups (README.md).
    add("svc.p50_ms", percentile(open_latency, 0.50) * 1e3, "ms", open_latency.size());
    add("svc.p99_ms", percentile(open_latency, 0.99) * 1e3, "ms", open_latency.size());
    add("service.exec_p50_ms", percentile(exec_s, 0.5) * 1e3, "ms", exec_s.size());
    add("service.wait_p50_ms", percentile(wait_s, 0.5) * 1e3, "ms", wait_s.size());
    add("service.wait_p99_ms", percentile(wait_s, 0.99) * 1e3, "ms", wait_s.size());
    {
      const std::size_t n = std::min<std::size_t>(setup.queries.size(), 200);
      const std::span<const Query> part(setup.queries.data(), n);
      auto span = tracer.scope("service.drive_spawn_per_query");
      const DriveResult d =
          drive_spawn_per_query(graph, "smq", {}, kServiceWorkers, part, kServiceBatch);
      std::vector<double> lat;
      for (const QueryResult& r : d.results) lat.push_back(r.latency_seconds);
      add("service.spawn_p50_ms", percentile(lat, 0.5) * 1e3, "ms", lat.size());
      for (std::size_t i = 0; i < n; ++i) {
        ledger.record(i < d.results.size() && d.results[i].distance == qref.distances[i],
                      "query " + std::to_string(i) + " (spawn per query)");
      }
    }
    add("service.gen_late_p99_ms", percentile(open.finished(open.late_s), 0.99) * 1e3, "ms",
        open_latency.size());
    {
      auto span = tracer.scope("algorithms.sequential_astar");
      std::uint64_t expanded = 0;
      std::uint64_t tasks = 0;
      for (std::size_t i = 0; i < setup.queries.size(); ++i) {
        expanded += sequential_astar(*graph.graph, setup.queries[i].source,
                                     setup.queries[i].target, graph.weight_scale)
                        .expanded;
        tasks += open.results[i].tasks;
      }
      add("service.work_x", static_cast<double>(tasks) / std::max<double>(1, expanded), "x");
    }

    if (!unfinished) {
      auto span = tracer.scope("service.stop");
      service.stop();
    }
    root.end();  // close the root span before the layer sums
    const auto self_s = tracer.self_seconds_by_layer();
    for (const char* layer :
         {"graph", "algorithms", "registry", "service", "queues", "rank", "bench"}) {
      const auto it = self_s.find(layer);
      add(std::string("trace.self_s.") + layer, it == self_s.end() ? 0 : it->second, "s");
    }
    add("trace.overhead_ms", overhead_ms, "ms", exec_s.size());
    add("trace.spans", static_cast<double>(tracer.size()), "count");
    const std::string path = opt.out_dir + "/trace-" + spec.name + "-seed" +
                             std::to_string(spec.seed) + ".json";
    tracer.write(path, self_s, overhead_ms);
    std::cerr << "perfbench: spans written to " << path << "\n";
  }
  if (!opt.trace) {
    if (!unfinished) service.stop();
    // Includes the second set-up a round builds while the first is live.
    add("peak_rss_mib", peak_rss_mib(), "MiB");
  }

  // Human-readable table (with sample counts and the ungated speedups),
  // then the result line.
  std::ostringstream table;
  for (const Metric& m : metrics) {
    table << "  " << m.name << std::string(m.name.size() < 34 ? 34 - m.name.size() : 1, ' ')
          << m.value << " " << m.unit << "  (n=" << m.samples;
    if (std::isfinite(m.median)) table << ", median " << m.median;
    table << ")\n";
  }
  if (!opt.trace) {
    const double seq = fast_decile_time(rows.seq_seconds());
    const double t1 = fast_decile_time(rows.stats("smq.t1").seconds);
    for (const RowSpec& row : kTimedRows) {
      const double t = fast_decile_time(rows.stats(row.key).seconds);
      table << "  speedup " << row.key << ": " << seq / t << "x vs seq, " << t1 / t
            << "x vs smq.t1 (not gated)\n";
    }
  }
  std::cout << spec.name << " seed " << spec.seed << (opt.trace ? " (traced)" : "") << "\n"
            << table.str();

  std::ostringstream line;
  line.precision(17);
  line << "{\"correct\": " << (ledger.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << ledger.attempted << ", \"failed\": " << ledger.failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    line << (i == 0 ? "" : ", ") << "\"" << metrics[i].name << "\": {\"value\": " << v
         << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  line << "}}";
  std::cout << line.str() << std::endl;
  if (unfinished) {
    // A query that never completed would block the service's teardown
    // (which is why stop() was skipped above); the result line is out,
    // so leave without it.
    std::_Exit(0);
  }
  return 0;
}

// ---- self-test ----------------------------------------------------------------

int self_test() {
  int failures = 0;
  auto check = [&](bool ok, const std::string& what) {
    std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
    if (!ok) ++failures;
  };
  for (const char* w : kWorkloads) {
    const Spec a = make_spec(w, 5, true);
    const Spec b = make_spec(w, 6, true);
    const GraphInstance ga1 = GraphRegistry::instance().create(a.graph, a.graph_params);
    const GraphInstance ga2 = GraphRegistry::instance().create(a.graph, a.graph_params);
    const GraphInstance gb = GraphRegistry::instance().create(b.graph, b.graph_params);
    const std::string name(w);
    check(graph_checksum(*ga1.graph) == graph_checksum(*ga2.graph),
          name + ": same seed, same graph");
    check(graph_checksum(*ga1.graph) != graph_checksum(*gb.graph),
          name + ": other seed, other graph");
    const std::vector<Query> qa1 = make_queries(a, ga1);
    const std::vector<Query> qa2 = make_queries(a, ga2);
    const std::vector<Query> qb = make_queries(b, gb);
    check(qa1.size() == a.queries && query_checksum(qa1) == query_checksum(qa2),
          name + ": same seed, same query set");
    check(query_checksum(qa1) != query_checksum(qb), name + ": other seed, other query set");
  }

  // The oracle comparison must flag a corrupted distance vector, both
  // for the SSSP rows and for a query drive.
  const Spec spec = make_spec("sssp-rand", 3, true);
  const GraphInstance g = GraphRegistry::instance().create(spec.graph, spec.graph_params);
  Tracer off(false);
  for (const bool corrupt : {false, true}) {
    Ledger ledger;
    Rows rows(g, off, ledger);
    rows.run_seq();
    if (corrupt) {
      for (std::uint64_t& d : rows.mutable_oracle()) {
        if (d != 0 && d != DistanceArray::kUnreached) {
          d += 1;
          break;
        }
      }
    }
    rows.run(kTimedRows[1]);  // erased, T=3
    rows.run(kLayerRows[0]);  // run_static_dispatch
    if (corrupt) {
      check(ledger.attempted == 2 && ledger.failed == 2,
            "rows checked against a corrupted oracle are flagged");
    } else {
      check(ledger.attempted == 2 && ledger.failed == 0, "rows match the oracle");
    }
  }

  const std::vector<Query> qs = make_queries(spec, g);
  const ServiceReference qref = measure_service_reference(g, qs, 1);
  auto service = make_service("smq", kServiceWorkers, {}, g);
  service->start();
  const Drive d = drive(*service, qs, 0, 0, off);
  service->stop();
  std::vector<std::uint64_t> wrong = qref.distances;
  wrong[wrong.size() / 2] += 1;
  Ledger good_ledger;
  Ledger bad_ledger;
  check(check_drive(d, qref.distances, "self-test", good_ledger) && good_ledger.failed == 0,
        "service answers match the oracle");
  check(!check_drive(d, wrong, "self-test", bad_ledger) && bad_ledger.failed == 1,
        "a corrupted query distance is flagged");
  Drive missing = d;
  missing.done[0] = false;
  Ledger missing_ledger;
  check(!check_drive(missing, qref.distances, "self-test", missing_ledger) &&
            missing_ledger.failed == 1,
        "an unanswered query is flagged");
  std::cout << (failures == 0 ? "self-test passed" : "self-test FAILED") << "\n";
  return failures == 0 ? 0 : 1;
}

int usage() {
  std::cerr << "usage: perfbench --workload sssp-rand|sssp-road --seed N "
               "--seconds S --trace 0|1 [--smoke] [--out DIR]\n"
               "       perfbench --self-test\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    try {
      if (a == "--workload") opt.workload = value();
      else if (a == "--seed") opt.seed = std::stoull(value());
      else if (a == "--seconds") opt.seconds = std::stod(value());
      else if (a == "--trace") opt.trace = value() != "0";
      else if (a == "--out") opt.out_dir = value();
      else if (a == "--smoke") opt.smoke = true;
      else if (a == "--self-test") test = true;
      else return usage();
    } catch (const std::exception& e) {
      std::cerr << "perfbench: " << e.what() << "\n";
      return usage();
    }
  }
  if (test) return self_test();
  if (std::find(std::begin(kWorkloads), std::end(kWorkloads), opt.workload) ==
          std::end(kWorkloads) ||
      !(opt.seconds > 0)) {
    return usage();
  }
  try {
    std::filesystem::create_directories(opt.out_dir);
    return run_workload(opt);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
