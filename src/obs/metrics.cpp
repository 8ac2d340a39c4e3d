#include "obs/metrics.hpp"

#include <sstream>

#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/span.hpp"
#include "obs/timer.hpp"

#if TAGS_OBS_ENABLED

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace tags::obs {

namespace {

// Counters beyond this many distinct names fall back to a shared atomic.
constexpr std::size_t kSlabSlots = 1024;
constexpr std::size_t kMaxSolveRecords = 10000;

struct Slab {
  std::array<std::atomic<std::uint64_t>, kSlabSlots> slot{};
};

struct CounterInfo {
  std::string name;
  std::atomic<std::uint64_t> overflow{0};  ///< used when id >= kSlabSlots
};

struct GaugeInfo {
  std::string name;
  std::atomic<double> value{0.0};
};

struct HistInfo {
  std::string name;
  std::vector<double> bounds;  ///< sorted upper bounds; +1 overflow bucket
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets;
  std::atomic<std::uint64_t> n{0};
  std::atomic<double> sum{0.0};

  void observe(double v) noexcept {
    const auto it = std::upper_bound(bounds.begin(), bounds.end(), v);
    const auto idx = static_cast<std::size_t>(it - bounds.begin());
    buckets[idx].fetch_add(1, std::memory_order_relaxed);
    n.fetch_add(1, std::memory_order_relaxed);
    double cur = sum.load(std::memory_order_relaxed);
    while (!sum.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
    }
  }
};

struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<CounterInfo>> counters;
  std::unordered_map<std::string, std::size_t> counter_id;
  std::vector<std::unique_ptr<GaugeInfo>> gauges;
  std::unordered_map<std::string, std::size_t> gauge_id;
  std::vector<std::unique_ptr<HistInfo>> hists;
  std::unordered_map<std::string, std::size_t> hist_id;
  // Slabs are never freed: a slab returned by an exiting thread goes to the
  // free list and keeps its counts, so aggregation never races a teardown.
  std::vector<std::unique_ptr<Slab>> slabs;
  std::vector<Slab*> free_slabs;
  std::vector<SolveRecord> solves;
  std::uint64_t solves_dropped = 0;

  static Registry& get() {
    static Registry* r = new Registry;  // leaked: outlives static destructors
    return *r;
  }
};

/// This thread's slab, leased from the registry and returned on thread exit.
struct SlabLease {
  Slab* slab = nullptr;
  ~SlabLease() {
    if (slab == nullptr) return;
    Registry& r = Registry::get();
    const std::lock_guard<std::mutex> lock(r.mu);
    r.free_slabs.push_back(slab);
  }
};

Slab& local_slab() {
  thread_local SlabLease lease;
  if (lease.slab == nullptr) {
    Registry& r = Registry::get();
    const std::lock_guard<std::mutex> lock(r.mu);
    if (!r.free_slabs.empty()) {
      lease.slab = r.free_slabs.back();
      r.free_slabs.pop_back();
    } else {
      r.slabs.push_back(std::make_unique<Slab>());
      lease.slab = r.slabs.back().get();
    }
  }
  return *lease.slab;
}

std::size_t intern(std::unordered_map<std::string, std::size_t>& ids,
                   const std::string& name, std::size_t next) {
  const auto [it, inserted] = ids.emplace(name, next);
  return it->second;
}

std::uint64_t counter_total(Registry& r, std::size_t id) {
  // Caller holds r.mu.
  std::uint64_t total = r.counters[id]->overflow.load(std::memory_order_relaxed);
  if (id < kSlabSlots) {
    for (const auto& slab : r.slabs) {
      total += slab->slot[id].load(std::memory_order_relaxed);
    }
  }
  return total;
}

}  // namespace

// ---------------------------------------------------------------------------
// Counter / Gauge / Histogram
// ---------------------------------------------------------------------------

Counter::Counter(const std::string& name) {
  Registry& r = Registry::get();
  const std::lock_guard<std::mutex> lock(r.mu);
  id_ = intern(r.counter_id, name, r.counters.size());
  if (id_ == r.counters.size()) {
    r.counters.push_back(std::make_unique<CounterInfo>());
    r.counters.back()->name = name;
  }
}

void Counter::add(std::uint64_t delta) noexcept {
  if (id_ < kSlabSlots) {
    local_slab().slot[id_].fetch_add(delta, std::memory_order_relaxed);
  } else {
    Registry::get().counters[id_]->overflow.fetch_add(delta, std::memory_order_relaxed);
  }
}

std::uint64_t Counter::value() const {
  Registry& r = Registry::get();
  const std::lock_guard<std::mutex> lock(r.mu);
  return counter_total(r, id_);
}

Gauge::Gauge(const std::string& name) {
  Registry& r = Registry::get();
  const std::lock_guard<std::mutex> lock(r.mu);
  id_ = intern(r.gauge_id, name, r.gauges.size());
  if (id_ == r.gauges.size()) {
    r.gauges.push_back(std::make_unique<GaugeInfo>());
    r.gauges.back()->name = name;
  }
}

void Gauge::set(double v) noexcept {
  Registry::get().gauges[id_]->value.store(v, std::memory_order_relaxed);
}

double Gauge::value() const {
  return Registry::get().gauges[id_]->value.load(std::memory_order_relaxed);
}

Histogram::Histogram(const std::string& name, std::vector<double> upper_bounds) {
  assert(std::is_sorted(upper_bounds.begin(), upper_bounds.end()));
  Registry& r = Registry::get();
  const std::lock_guard<std::mutex> lock(r.mu);
  id_ = intern(r.hist_id, name, r.hists.size());
  if (id_ == r.hists.size()) {
    auto info = std::make_unique<HistInfo>();
    info->name = name;
    info->bounds = std::move(upper_bounds);
    info->buckets =
        std::make_unique<std::atomic<std::uint64_t>[]>(info->bounds.size() + 1);
    for (std::size_t i = 0; i <= info->bounds.size(); ++i) info->buckets[i] = 0;
    r.hists.push_back(std::move(info));
  }
}

std::vector<double> Histogram::exponential_bounds(double first, double factor,
                                                  std::size_t count) {
  std::vector<double> b;
  b.reserve(count);
  double v = first;
  for (std::size_t i = 0; i < count; ++i, v *= factor) b.push_back(v);
  return b;
}

std::vector<double> Histogram::linear_bounds(double lo, double hi, std::size_t count) {
  std::vector<double> b;
  b.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    b.push_back(lo + (hi - lo) * static_cast<double>(i + 1) /
                         static_cast<double>(count));
  }
  return b;
}

void Histogram::observe(double v) noexcept { Registry::get().hists[id_]->observe(v); }

std::uint64_t Histogram::count() const {
  return Registry::get().hists[id_]->n.load(std::memory_order_relaxed);
}

double Histogram::sum() const {
  return Registry::get().hists[id_]->sum.load(std::memory_order_relaxed);
}

namespace {

double hist_percentile(const HistInfo& h, double p) {
  const std::size_t n_buckets = h.bounds.size() + 1;
  std::vector<std::uint64_t> counts(n_buckets);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < n_buckets; ++i) {
    counts[i] = h.buckets[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  if (total == 0) return 0.0;
  const double target = std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(total);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < n_buckets; ++i) {
    const double next = cumulative + static_cast<double>(counts[i]);
    if (next >= target || i + 1 == n_buckets) {
      if (i == h.bounds.size()) return h.bounds.empty() ? 0.0 : h.bounds.back();
      const double lower = i == 0 ? std::min(0.0, h.bounds[0]) : h.bounds[i - 1];
      const double upper = h.bounds[i];
      const double frac =
          counts[i] == 0 ? 1.0 : (target - cumulative) / static_cast<double>(counts[i]);
      return lower + (upper - lower) * std::clamp(frac, 0.0, 1.0);
    }
    cumulative = next;
  }
  return h.bounds.back();
}

}  // namespace

double Histogram::percentile(double p) const {
  return hist_percentile(*Registry::get().hists[id_], p);
}

// ---------------------------------------------------------------------------
// Name-based helpers
// ---------------------------------------------------------------------------

void count(const char* name, std::uint64_t delta) {
  if (!metrics_on()) return;
  Counter(name).add(delta);
}

void gauge_set(const char* name, double v) {
  if (!metrics_on()) return;
  Gauge(name).set(v);
}

void observe(const char* name, double v) {
  if (!metrics_on()) return;
  Histogram(name, Histogram::exponential_bounds(1e-6, 4.0, 24)).observe(v);
}

// ---------------------------------------------------------------------------
// Solve log
// ---------------------------------------------------------------------------

void record_solve(SolveRecord rec) {
  if (!metrics_on()) return;
  Registry& r = Registry::get();
  const std::lock_guard<std::mutex> lock(r.mu);
  if (r.solves.size() >= kMaxSolveRecords) {
    ++r.solves_dropped;
    return;
  }
  r.solves.push_back(std::move(rec));
}

std::vector<SolveRecord> solve_records() {
  Registry& r = Registry::get();
  const std::lock_guard<std::mutex> lock(r.mu);
  return r.solves;
}

std::vector<CounterSnapshot> counter_snapshots() {
  Registry& r = Registry::get();
  const std::lock_guard<std::mutex> lock(r.mu);
  std::vector<CounterSnapshot> out;
  out.reserve(r.counters.size());
  for (std::size_t i = 0; i < r.counters.size(); ++i) {
    out.push_back({r.counters[i]->name, counter_total(r, i)});
  }
  return out;
}

std::vector<GaugeSnapshot> gauge_snapshots() {
  Registry& r = Registry::get();
  const std::lock_guard<std::mutex> lock(r.mu);
  std::vector<GaugeSnapshot> out;
  out.reserve(r.gauges.size());
  for (const auto& g : r.gauges) {
    out.push_back({g->name, g->value.load(std::memory_order_relaxed)});
  }
  return out;
}

std::vector<HistogramSnapshot> histogram_snapshots() {
  Registry& r = Registry::get();
  const std::lock_guard<std::mutex> lock(r.mu);
  std::vector<HistogramSnapshot> out;
  out.reserve(r.hists.size());
  for (const auto& h : r.hists) {
    HistogramSnapshot s;
    s.name = h->name;
    s.bounds = h->bounds;
    s.buckets.resize(h->bounds.size() + 1);
    for (std::size_t i = 0; i <= h->bounds.size(); ++i) {
      s.buckets[i] = h->buckets[i].load(std::memory_order_relaxed);
      s.count += s.buckets[i];
    }
    s.sum = h->sum.load(std::memory_order_relaxed);
    out.push_back(std::move(s));
  }
  return out;
}

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---------------------------------------------------------------------------
// Export
// ---------------------------------------------------------------------------

std::string metrics_json(const std::string& id) {
  JsonWriter w;
  w.begin_object();
  w.field("id", id);
  w.field("schema_version", static_cast<std::int64_t>(5));
  w.field("obs_level", static_cast<std::int64_t>(level()));

  w.key("timers");
  w.begin_object();
  for (const auto& [path, stat] : timer_stats()) {
    w.key(path);
    w.begin_object();
    w.field("count", static_cast<std::int64_t>(stat.count));
    w.field("total_ms", static_cast<double>(stat.total_ns) / 1e6);
    w.field("self_ms", static_cast<double>(stat.self_ns) / 1e6);
    w.end_object();
  }
  w.end_object();

  // Schema v2: the causal span profile. Sorted by (start, id), so a span's
  // parent always appears before it; self_ms excludes same-thread children.
  w.key("spans");
  w.begin_array();
  for (const SpanRecord& s : span_records_export()) {
    w.begin_object();
    w.field("id", static_cast<std::int64_t>(s.id));
    w.field("parent", static_cast<std::int64_t>(s.parent_id));
    w.field("thread", static_cast<std::int64_t>(s.thread));
    w.field("name", s.name);
    w.field("start_ms", static_cast<double>(s.start_ns) / 1e6);
    w.field("end_ms", static_cast<double>(s.end_ns) / 1e6);
    w.field("self_ms", static_cast<double>(s.self_ns) / 1e6);
    if (!s.num.empty()) {
      w.key("num");
      w.begin_object();
      for (const auto& [k, v] : s.num) w.field(k, v);
      w.end_object();
    }
    if (!s.str.empty()) {
      w.key("str");
      w.begin_object();
      for (const auto& [k, v] : s.str) w.field(k, v);
      w.end_object();
    }
    w.end_object();
  }
  w.end_array();
  w.field("spans_dropped", static_cast<std::int64_t>(spans_dropped()));

  Registry& r = Registry::get();
  const std::lock_guard<std::mutex> lock(r.mu);

  w.key("counters");
  w.begin_object();
  for (std::size_t i = 0; i < r.counters.size(); ++i) {
    w.field(r.counters[i]->name, static_cast<std::int64_t>(counter_total(r, i)));
  }
  w.end_object();

  w.key("gauges");
  w.begin_object();
  for (const auto& g : r.gauges) {
    w.field(g->name, g->value.load(std::memory_order_relaxed));
  }
  w.end_object();

  w.key("histograms");
  w.begin_object();
  for (const auto& h : r.hists) {
    w.key(h->name);
    w.begin_object();
    std::uint64_t total = 0;
    for (std::size_t i = 0; i <= h->bounds.size(); ++i) {
      total += h->buckets[i].load(std::memory_order_relaxed);
    }
    w.field("count", static_cast<std::int64_t>(total));
    w.field("sum", h->sum.load(std::memory_order_relaxed));
    w.field("p50", hist_percentile(*h, 50.0));
    w.field("p90", hist_percentile(*h, 90.0));
    w.field("p99", hist_percentile(*h, 99.0));
    w.end_object();
  }
  w.end_object();

  w.key("solves");
  w.begin_array();
  for (const SolveRecord& s : r.solves) {
    w.begin_object();
    w.field("context", s.context);
    w.field("method", s.method);
    w.field("n", static_cast<std::int64_t>(s.n));
    w.field("iterations", static_cast<std::int64_t>(s.iterations));
    w.field("residual", s.residual);
    w.field("relative_residual", s.relative_residual);
    w.field("converged", s.converged);
    w.field("diverged", s.diverged);
    w.field("certified", s.certified);
    if (s.condition > 0.0) w.field("condition", s.condition);
    w.field("wall_ms", s.wall_ms);
    if (!s.attempts.empty()) w.field("attempts", s.attempts);
    if (!s.note.empty()) w.field("note", s.note);
    w.end_object();
  }
  w.end_array();
  w.field("solves_dropped", static_cast<std::int64_t>(r.solves_dropped));

  // Schema v3: the analysis-server section — the serve.* counters and
  // gauges under stable field names, so the smoke harness and dashboards
  // need not know the registry naming scheme. All-zero when no server ran
  // in this process.
  const auto counter_by_name = [&r](const char* name) -> std::int64_t {
    for (std::size_t i = 0; i < r.counters.size(); ++i) {
      if (r.counters[i]->name == name) {
        return static_cast<std::int64_t>(counter_total(r, i));
      }
    }
    return 0;
  };
  const auto gauge_by_name = [&r](const char* name) -> double {
    for (const auto& g : r.gauges) {
      if (g->name == name) return g->value.load(std::memory_order_relaxed);
    }
    return 0.0;
  };
  w.key("server");
  w.begin_object();
  w.field("requests", counter_by_name("serve.requests"));
  w.field("cache_hit", counter_by_name("serve.cache_hit"));
  w.field("cache_miss", counter_by_name("serve.cache_miss"));
  w.field("cache_evicted", counter_by_name("serve.cache_evicted"));
  w.field("jobs_shed", counter_by_name("serve.jobs_shed"));
  w.field("deadline_missed", counter_by_name("serve.deadline_missed"));
  w.field("queue_depth", gauge_by_name("serve.queue.depth"));
  w.field("cache_size", gauge_by_name("serve.cache.size"));
  w.end_object();

  // Schema v4: the durable-store section — the store.* counters and gauges
  // under stable field names (all-zero when no store was opened).
  w.key("store");
  w.begin_object();
  w.field("records_appended", counter_by_name("store.records_appended"));
  w.field("commits", counter_by_name("store.commits"));
  w.field("records_dropped", counter_by_name("store.records_dropped"));
  w.field("records_recovered", counter_by_name("store.records_recovered"));
  w.field("decode_failures", counter_by_name("store.decode_failures"));
  w.field("lookups", counter_by_name("store.lookups"));
  w.field("lookup_hits", counter_by_name("store.lookup_hits"));
  w.field("shards_journaled", counter_by_name("store.shards_journaled"));
  w.field("shards_resumed", counter_by_name("store.shards_resumed"));
  w.field("cache_loaded", counter_by_name("store.cache_loaded"));
  w.field("records", gauge_by_name("store.records"));
  w.field("bytes", gauge_by_name("store.bytes"));
  w.end_object();

  // Schema v5: the NCD aggregation-disaggregation section — the ncd.*
  // counters under stable field names (all-zero when no solve reached the
  // NCD-AD row in this process).
  w.key("ncd");
  w.begin_object();
  w.field("gate_accepts", counter_by_name("ncd.gate.accepts"));
  w.field("gate_rejects", counter_by_name("ncd.gate.rejects"));
  w.field("solves", counter_by_name("ncd.solves"));
  w.field("fallthroughs", counter_by_name("ncd.fallthroughs"));
  w.field("sweeps", counter_by_name("ncd.sweeps"));
  w.end_object();

  w.end_object();
  return std::move(w).str();
}

std::string metrics_text() {
  std::ostringstream os;
  os << "timers (count, total ms, self ms):\n";
  for (const auto& [path, stat] : timer_stats()) {
    // Indent by nesting depth so the tree structure is visible.
    const auto depth = static_cast<std::size_t>(
        std::count(path.begin(), path.end(), '/'));
    os << std::string(2 + 2 * depth, ' ')
       << path.substr(path.find_last_of('/') + (path.find('/') == std::string::npos
                                                    ? 0
                                                    : 1))
       << "  x" << stat.count << "  " << static_cast<double>(stat.total_ns) / 1e6
       << "  " << static_cast<double>(stat.self_ns) / 1e6 << "\n";
  }
  Registry& r = Registry::get();
  const std::lock_guard<std::mutex> lock(r.mu);
  os << "counters:\n";
  for (std::size_t i = 0; i < r.counters.size(); ++i) {
    const std::uint64_t v = counter_total(r, i);
    if (v != 0) os << "  " << r.counters[i]->name << " = " << v << "\n";
  }
  os << "gauges:\n";
  for (const auto& g : r.gauges) {
    os << "  " << g->name << " = " << g->value.load(std::memory_order_relaxed) << "\n";
  }
  os << "solve records: " << r.solves.size() << "\n";
  return os.str();
}

void reset_metrics() {
  Registry& r = Registry::get();
  const std::lock_guard<std::mutex> lock(r.mu);
  for (auto& c : r.counters) c->overflow.store(0, std::memory_order_relaxed);
  for (auto& slab : r.slabs) {
    for (auto& s : slab->slot) s.store(0, std::memory_order_relaxed);
  }
  for (auto& g : r.gauges) g->value.store(0.0, std::memory_order_relaxed);
  for (auto& h : r.hists) {
    for (std::size_t i = 0; i <= h->bounds.size(); ++i) {
      h->buckets[i].store(0, std::memory_order_relaxed);
    }
    h->n.store(0, std::memory_order_relaxed);
    h->sum.store(0.0, std::memory_order_relaxed);
  }
  r.solves.clear();
  r.solves_dropped = 0;
  detail::reset_timer_stats();
  detail::reset_spans();
}

}  // namespace tags::obs

#endif  // TAGS_OBS_ENABLED

namespace tags::obs {

#if !TAGS_OBS_ENABLED
std::string metrics_json(const std::string& id) {
  JsonWriter w;
  w.begin_object();
  w.field("id", id);
  w.field("schema_version", static_cast<std::int64_t>(5));
  w.field("obs_level", static_cast<std::int64_t>(-1));
  w.key("timers");
  w.begin_object();
  w.end_object();
  w.key("spans");
  w.begin_array();
  w.end_array();
  w.field("spans_dropped", static_cast<std::int64_t>(0));
  w.key("counters");
  w.begin_object();
  w.end_object();
  w.key("gauges");
  w.begin_object();
  w.end_object();
  w.key("histograms");
  w.begin_object();
  w.end_object();
  w.key("solves");
  w.begin_array();
  w.end_array();
  w.field("solves_dropped", static_cast<std::int64_t>(0));
  w.key("server");
  w.begin_object();
  w.field("requests", static_cast<std::int64_t>(0));
  w.field("cache_hit", static_cast<std::int64_t>(0));
  w.field("cache_miss", static_cast<std::int64_t>(0));
  w.field("cache_evicted", static_cast<std::int64_t>(0));
  w.field("jobs_shed", static_cast<std::int64_t>(0));
  w.field("deadline_missed", static_cast<std::int64_t>(0));
  w.field("queue_depth", 0.0);
  w.field("cache_size", 0.0);
  w.end_object();
  w.key("store");
  w.begin_object();
  w.field("records_appended", static_cast<std::int64_t>(0));
  w.field("commits", static_cast<std::int64_t>(0));
  w.field("records_dropped", static_cast<std::int64_t>(0));
  w.field("records_recovered", static_cast<std::int64_t>(0));
  w.field("decode_failures", static_cast<std::int64_t>(0));
  w.field("lookups", static_cast<std::int64_t>(0));
  w.field("lookup_hits", static_cast<std::int64_t>(0));
  w.field("shards_journaled", static_cast<std::int64_t>(0));
  w.field("shards_resumed", static_cast<std::int64_t>(0));
  w.field("cache_loaded", static_cast<std::int64_t>(0));
  w.field("records", 0.0);
  w.field("bytes", 0.0);
  w.end_object();
  w.key("ncd");
  w.begin_object();
  w.field("gate_accepts", static_cast<std::int64_t>(0));
  w.field("gate_rejects", static_cast<std::int64_t>(0));
  w.field("solves", static_cast<std::int64_t>(0));
  w.field("fallthroughs", static_cast<std::int64_t>(0));
  w.field("sweeps", static_cast<std::int64_t>(0));
  w.end_object();
  w.end_object();
  return std::move(w).str();
}
#endif  // !TAGS_OBS_ENABLED

bool write_telemetry_json(const std::string& path, const std::string& id) {
  // Temp-then-rename so a crash mid-export (or a concurrent reader) never
  // sees a truncated JSON; check_bench_json.py rejects empty artifacts.
  return write_text_file_atomic(path, metrics_json(id) + "\n");
}

}  // namespace tags::obs
