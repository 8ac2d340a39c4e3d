// pb_bench: the benchmark's workload program. Each subcommand runs one
// workload (or one piece of serve_mixed) through the repository's public
// APIs and prints, as its last stdout line, one JSON object that run.py
// reduces to metrics. "ready" is printed (and flushed) the moment set-up
// ends, so run.py can time set-up from process start.
//
//   pb_bench paper_sweep|large_chain|sim_tags --seed N --seconds S
//             [--setup-only] [--passes N] [--telemetry-out PATH]
//   pb_bench serve_presolve --socket PATH --seed N [--cold]
//   pb_bench loadgen --socket PATH --seed N --plan SPEC --records PATH
//             --sample-out PATH [--telemetry-out PATH]
//   pb_bench serve_check --seed N --sample PATH
//   pb_bench calibrate --threads T --seconds S
//
// --telemetry-out turns on the benchmark's spans (the traced run), resets
// the program's obs registry when the measured pass starts, and writes the
// program's telemetry JSON (spans, solve log, counters, gauges, timers)
// when it ends.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <sys/mman.h>

#include "approx/optimizer.hpp"
#include "common.hpp"
#include "core/experiment.hpp"
#include "core/pool.hpp"
#include "core/scenario.hpp"
#include "models/pepa_sources.hpp"
#include "models/tags.hpp"
#include "models/tags_h2.hpp"
#include "models/tags_nnode.hpp"
#include "pepa/derivation.hpp"
#include "pepa/parser.hpp"
#include "pepa/to_ctmc.hpp"
#include "serve/engine.hpp"
#include "serve/request.hpp"
#include "sim/simulator.hpp"

namespace pb {
int run_loadgen(const std::map<std::string, std::string>& args);
int run_presolve(const std::map<std::string, std::string>& args);
}  // namespace pb

namespace {

using namespace tags;
using pb::BenchSpan;
using pb::Check;
using pb::JsonLine;

constexpr unsigned kThreads = 4;  // sweep / replication parallelism (nproc = 4)

struct Options {
  std::map<std::string, std::string> args;
  [[nodiscard]] std::uint64_t seed() const { return std::stoull(get("--seed", "1")); }
  [[nodiscard]] double seconds() const { return std::stod(get("--seconds", "10")); }
  [[nodiscard]] bool has(const std::string& k) const { return args.count(k) > 0; }
  [[nodiscard]] std::string get(const std::string& k, const std::string& def) const {
    const auto it = args.find(k);
    return it == args.end() ? def : it->second;
  }
};

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--", 0) != 0) throw std::invalid_argument("unexpected argument: " + a);
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      o.args[a] = argv[++i];
    } else {
      o.args[a] = "1";
    }
  }
  return o;
}

/// "ready <cpu_s>": set-up is done, after this many CPU seconds.
void ready() {
  std::printf("ready %s\n", pb::fmt_double(pb::cpu_s()).c_str());
  std::fflush(stdout);
}

bool rel_close(double a, double b, double rel) {
  return std::abs(a - b) <= rel * std::max({std::abs(a), std::abs(b), 1e-12});
}

/// What every in-process workload reports.
struct Result {
  std::vector<double> pass_s;      ///< wall time of each measured pass
  std::vector<double> pass_cpu_s;  ///< CPU time (all threads) of each measured pass
  std::vector<double> pass_ref_s;  ///< mean reference rep CPU time right after each pass
  double peak_rss_mb = 0.0;        ///< program peak before the latest reference slice
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Check> checks;
  JsonLine facts;  ///< per-layer facts only this program can see

  void check(std::string name, bool ok, std::string detail = {}) {
    ++attempted;
    if (!ok) ++failed;
    checks.push_back({std::move(name), ok, std::move(detail)});
  }
};

// ---------------------------------------------------------------------------
// Reference kernel: the speed of the machine right now
// ---------------------------------------------------------------------------
//
// The host lends its cores to other tenants, and how fast a core runs this
// program's code moved by 2x within an hour while the benchmark was sized
// (the same figure set took 4.5 to 10.8 CPU s), and by up to 2x between
// consecutive seconds in a busy hour. The benchmark therefore also times a
// fixed reference kernel while it measures (a slice after every pass, on as
// many threads as the pass keeps busy; on one thread alongside the request
// stream in serve_mixed), and run.py reports CPU times at the reference
// kernel's speed.
// The kernel is benchmark code and never changes with the program: a
// Gauss-Seidel-like sweep over a seeded random sparse matrix of 25 000 rows
// and 6 entries per row (about 2 MB, the size of one core's L2), the
// access pattern that dominates paper_sweep. A probe with this access
// pattern ran 2.2x slower in a busy hour of the host than in a quiet one,
// as paper_sweep did (and sim_tags and large_chain 2.1x), where a
// register-only loop ran 1.5x slower.

constexpr std::size_t kRefRows = 25000;
constexpr std::size_t kRefPerRow = 6;
constexpr int kRefSweeps = 1200;

/// Anonymous pages of its own: unmapped on destruction, so the kernel's
/// memory never stays in the measured process's resident set.
template <class T>
class MappedArray {
 public:
  explicit MappedArray(std::size_t n) : n_(n) {
    void* p = mmap(nullptr, n * sizeof(T), PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                   -1, 0);
    if (p == MAP_FAILED) throw std::runtime_error("reference kernel: mmap failed");
    data_ = static_cast<T*>(p);
  }
  MappedArray(const MappedArray&) = delete;
  MappedArray& operator=(const MappedArray&) = delete;
  ~MappedArray() { munmap(data_, n_ * sizeof(T)); }
  T& operator[](std::size_t i) { return data_[i]; }

 private:
  std::size_t n_;
  T* data_;
};

/// CPU seconds of each of `reps` reps (kRefSweeps sweeps each) run by the
/// calling thread; `checksum` gets the iterate, so the sweeps are kept.
std::vector<double> reference_reps(unsigned thread, int reps, double& checksum) {
  MappedArray<std::uint32_t> col(kRefRows * kRefPerRow);
  MappedArray<double> val(kRefRows * kRefPerRow);
  MappedArray<double> x(kRefRows);
  for (std::size_t i = 0; i < kRefRows; ++i) x[i] = 1.0;
  std::uint64_t z = 0x9E3779B97F4A7C15ull * (thread + 1);
  for (std::size_t i = 0; i < kRefRows * kRefPerRow; ++i) {
    z ^= z << 13;
    z ^= z >> 7;
    z ^= z << 17;
    col[i] = static_cast<std::uint32_t>(z % kRefRows);
    val[i] = 1e-4 * static_cast<double>(z % 1000);  // row sums < 0.6: contractive
  }
  const auto thread_cpu = [] {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
  };
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(reps));
  checksum = 0.0;
  for (int r = 0; r < reps; ++r) {
    const double c0 = thread_cpu();
    for (int sweep = 0; sweep < kRefSweeps; ++sweep) {
      for (std::size_t i = 0; i < kRefRows; ++i) {
        double acc = 1.0;
        for (std::size_t j = i * kRefPerRow; j < (i + 1) * kRefPerRow; ++j) {
          acc -= val[j] * x[col[j]];
        }
        x[i] = 0.5 * acc;
      }
    }
    out.push_back(thread_cpu() - c0);
    checksum += x[kRefRows / 2];
  }
  return out;
}

/// One rep on each of `threads` threads at once, `reps` times; the CPU
/// seconds of every rep.
std::vector<double> reference_slice(unsigned threads, int reps) {
  std::vector<std::vector<double>> per(threads);
  std::vector<double> checksums(threads);
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&per, &checksums, t, reps] {
      per[t] = reference_reps(t, reps, checksums[t]);
    });
  }
  for (auto& t : pool) t.join();
  std::vector<double> all;
  for (unsigned t = 0; t < threads; ++t) {
    if (!std::isfinite(checksums[t])) throw std::runtime_error("reference kernel diverged");
    all.insert(all.end(), per[t].begin(), per[t].end());
  }
  return all;
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// Runs one untimed warm-up pass (the first pass pays page faults and cold
/// caches: up to 3x slower on a sweep), then timed passes until the next
/// one would overrun `seconds` (at least one, at most max_passes). After
/// each timed pass a reference slice runs on `ref_threads` threads, the
/// number the pass keeps busy. The traced run makes exactly one timed pass,
/// wrapped in the pb/bench/pass root span, and exports telemetry right
/// after it.
void measure(const Options& o, Result& r, unsigned ref_threads,
             const std::function<void()>& pass) {
  const bool traced = o.has("--telemetry-out");
  const int max_passes = std::stoi(o.get("--passes", traced ? "1" : "1000"));
  const double budget = o.seconds();
  pass();
  const double t_begin = pb::now_s();
  if (traced) obs::reset_metrics();
  for (int i = 0; i < max_passes; ++i) {
    const double t0 = pb::now_s();
    const double c0 = pb::cpu_s();
    {
      BenchSpan root("pb/bench/pass");
      pass();
    }
    r.pass_s.push_back(pb::now_s() - t0);
    r.pass_cpu_s.push_back(pb::cpu_s() - c0);
    if (!traced) {
      // Four reps a slice however many threads run them, so one slice is
      // as precise on one thread as on four. The slice's memory is not the
      // program's: take the peak so far, and restart it after the slice.
      r.peak_rss_mb = std::max(r.peak_rss_mb, pb::peak_rss_mb());
      const int reps = static_cast<int>(std::max(1u, 4 / ref_threads));
      r.pass_ref_s.push_back(mean(reference_slice(ref_threads, reps)));
      pb::reset_peak_rss();
    }
    std::vector<double> sorted = r.pass_s;
    std::sort(sorted.begin(), sorted.end());
    const double typical = sorted[sorted.size() / 2];
    if (pb::now_s() - t_begin + typical > budget) break;
  }
  if (traced) {
    obs::write_telemetry_json(o.get("--telemetry-out", ""), "perfbench");
  }
}

int emit(const char* workload, const Result& r) {
  JsonLine out;
  out.str("workload", workload);
  out.nums("pass_s", r.pass_s);
  out.nums("pass_cpu_s", r.pass_cpu_s);
  out.nums("pass_ref_s", r.pass_ref_s);
  out.integer("attempted", r.attempted);
  out.integer("failed", r.failed);
  out.raw("checks", pb::checks_json(r.checks));
  out.raw("facts", r.facts.finish());
  out.num("rss_mb", std::max(r.peak_rss_mb, pb::peak_rss_mb()));
  std::printf("%s\n", out.finish().c_str());
  return 0;
}

std::int64_t nnz_of(const models::SolvableModel& m) {
  return static_cast<std::int64_t>(m.chain().generator().nnz());
}

/// {"<states>": nnz, ...}: lets run.py compute the bytes the iterative
/// solves of these chains moved.
std::string nnz_by_states(std::initializer_list<std::pair<std::int64_t, std::int64_t>> chains) {
  std::string out = "{";
  for (const auto& [states, nnz] : chains) {
    if (out.size() > 1) out += ',';
    out += "\"" + std::to_string(states) + "\":" + std::to_string(nnz);
  }
  return out + "}";
}

// ---------------------------------------------------------------------------
// paper_sweep: the paper's figure grids through the sharded, warm-started
// sweep engine plus integer-t optimisations (Figures 6-12).
// ---------------------------------------------------------------------------

struct PaperInputs {
  models::TagsParams exp_base;       // Figures 6/7
  std::vector<double> exp_t;
  models::TagsH2Params h2_base;      // Figures 9/10
  std::vector<double> h2_t;
  models::TagsParams opt_exp;        // a Figure 8 row
  models::TagsH2Params opt_h2;       // a Figure 11 row
};

PaperInputs paper_inputs(std::uint64_t seed) {
  pb::Rng rng(seed, "paper_sweep");
  PaperInputs in;
  const core::Fig6Scenario fig6 = core::Fig6Scenario::make();
  in.exp_base = fig6.tags_at(fig6.t_values.front());
  in.exp_base.lambda = rng.jitter(fig6.lambda, 0.03);
  for (const double t : fig6.t_values) in.exp_t.push_back(rng.jitter(t, 0.01));

  const core::Fig9Scenario fig9 = core::Fig9Scenario::make();
  const double lambda9 = rng.jitter(fig9.lambda, 0.02);
  const double alpha9 = rng.uniform(0.985, 0.99);
  in.h2_base = models::TagsH2Params::from_ratio(lambda9, alpha9, fig9.ratio,
                                                core::PaperDefaults::kMeanDemand, 40.0);
  // The Figure 9 range from t = 40 (below it one Gauss-Seidel solve of the
  // 12 831-state chain costs 5-10x the others). Sixteen points make eight
  // shards, so work stealing rather than one slow shard sets the time.
  for (const double t : core::linspace(40.0, 150.0, 16)) in.h2_t.push_back(rng.jitter(t, 0.01));

  in.opt_exp = core::Fig8Scenario{}.tags_at(rng.jitter(11.0, 0.02), 50.0);
  in.opt_h2 = core::Fig11Scenario::make().tags_at(rng.uniform(0.95, 0.97), 30.0);
  return in;
}

int paper_sweep(const Options& o) {
  const PaperInputs in = paper_inputs(o.seed());
  // Set-up: the figure set's two structures, assembled once (their sizes
  // and nnz are the models.* facts; the sweep builds its own per shard).
  const models::TagsModel exp_model(in.exp_base);
  const models::TagsH2Model h2_model(in.h2_base);
  ready();
  if (o.has("--setup-only")) return 0;

  Result r;
  std::vector<models::Metrics> exp_sweep, h2_sweep;
  approx::ExactOptimum opt_exp, opt_h2;
  core::SweepStats exp_stats, h2_stats;
  const auto pass = [&](unsigned threads) {
    const core::SweepPlan plan{threads, 0, 0};
    {
      BenchSpan s("pb/core/t_sweep");
      exp_stats = {};
      exp_sweep = core::tags_t_sweep(in.exp_base, in.exp_t, plan, &exp_stats);
    }
    {
      BenchSpan s("pb/core/t_sweep");
      h2_stats = {};
      h2_sweep = core::tags_h2_t_sweep(in.h2_base, in.h2_t, plan, &h2_stats);
    }
    // The Figure 8/11 optimisations are independent rows: one per worker.
    // Their spans nest under the pool's own core/pool_task spans.
    std::vector<std::function<void()>> tasks;
    tasks.emplace_back([&] {
      BenchSpan s("pb/approx/optimise");
      opt_exp = approx::optimise_tags_t_integer(in.opt_exp, approx::Objective::kMinQueueLength,
                                                47, 53);
    });
    tasks.emplace_back([&] {
      BenchSpan s("pb/approx/optimise");
      opt_h2 = approx::optimise_tags_h2_t_integer(
          in.opt_h2, approx::Objective::kMinResponseTime, 27, 28);
    });
    core::ThreadPool pool(std::min<unsigned>(threads, static_cast<unsigned>(tasks.size())));
    pool.run(std::move(tasks));
  };
  measure(o, r, kThreads, [&] { pass(kThreads); });
  if (o.has("--telemetry-out")) {
    // Scaling baseline: the same pass on one thread.
    const double t0 = pb::now_s();
    pass(1);
    r.facts.num("pass_1thread_s", pb::now_s() - t0);
  }

  // Checks. Every solve of every sweep certified.
  const std::size_t points = in.exp_t.size() + in.h2_t.size();
  const std::uint64_t uncert = exp_stats.warm.uncertified + h2_stats.warm.uncertified;
  r.attempted += static_cast<std::int64_t>(points);
  r.failed += static_cast<std::int64_t>(uncert);
  // Seeded sample of sweep points against a cold evaluate_scenario.
  pb::Rng pick(o.seed(), "paper_sweep.check");
  const auto cold_check = [&](const core::ScenarioRequest& req, const models::Metrics& warm,
                              const std::string& what) {
    const core::ScenarioOutcome cold = core::evaluate_scenario(req);
    const bool ok = cold.solve.certificate.ok() &&
                    rel_close(cold.metrics.mean_total, warm.mean_total, 1e-6) &&
                    rel_close(cold.metrics.throughput, warm.throughput, 1e-6) &&
                    rel_close(cold.metrics.response_time, warm.response_time, 1e-6);
    r.check(what, ok,
            "cold W=" + pb::fmt_double(cold.metrics.response_time) +
                " warm W=" + pb::fmt_double(warm.response_time));
  };
  for (int k = 0; k < 3; ++k) {
    const std::size_t i = pick.next() % in.exp_t.size();
    models::TagsParams p = in.exp_base;
    p.t = in.exp_t[i];
    cold_check(core::request_for(p), exp_sweep[i], "exp_sweep_point_matches_cold");
  }
  {
    const std::size_t i = pick.next() % in.h2_t.size();
    models::TagsH2Params p = in.h2_base;
    p.t = in.h2_t[i];
    cold_check(core::request_for(p), h2_sweep[i], "h2_sweep_point_matches_cold");
  }
  {
    models::TagsParams p = in.opt_exp;
    p.t = opt_exp.t;
    cold_check(core::request_for(p), opt_exp.metrics, "exp_optimum_matches_cold");
  }
  {
    models::TagsH2Params p = in.opt_h2;
    p.t = opt_h2.t;
    cold_check(core::request_for(p), opt_h2.metrics, "h2_optimum_matches_cold");
  }

  r.facts.integer("approx.optimisations", 2);
  r.facts.integer("approx.opt_evals", opt_exp.solves + opt_h2.solves);
  r.facts.integer("core.sweep.points", static_cast<std::int64_t>(points));
  r.facts.raw("nnz_by_states", nnz_by_states({{exp_model.n_states(), nnz_of(exp_model)},
                                              {h2_model.n_states(), nnz_of(h2_model)}}));
  r.facts.integer("models.states", exp_model.n_states() + h2_model.n_states());
  r.facts.integer("models.nnz", nnz_of(exp_model) + nnz_of(h2_model));
  return emit("paper_sweep", r);
}

// ---------------------------------------------------------------------------
// large_chain: cold solves of chains far larger than L2, from parameters
// (3-node TAGS) and from PEPA text (TAGS-H2).
// ---------------------------------------------------------------------------

struct LargeInputs {
  std::vector<models::TagsNNodeParams> nnode;
  models::TagsH2Params h2;
  std::string h2_source;
};

LargeInputs large_inputs(std::uint64_t seed) {
  pb::Rng rng(seed, "large_chain");
  LargeInputs in;
  for (const unsigned k : {8u}) {
    models::TagsNNodeParams p;
    p.lambda = rng.jitter(6.0, 0.03);
    p.mu = 10.0;
    p.n = 3;
    p.timeout_rates = {rng.jitter(40.0, 0.03), rng.jitter(20.0, 0.03)};
    p.buffers = {k, k, k};
    in.nnode.push_back(p);
  }
  in.h2 = models::TagsH2Params::from_ratio(rng.jitter(11.0, 0.02), rng.uniform(0.95, 0.97),
                                           10.0, core::PaperDefaults::kMeanDemand,
                                           rng.jitter(30.0, 0.03), 6, 14, 14);
  in.h2_source = models::tags_h2_pepa_source(in.h2);
  return in;
}

struct NNodeOutcome {
  ctmc::SteadyStateResult solve;
  double mean_total = 0.0;
  double throughput = 0.0;
  double loss = 0.0;
};

int large_chain(const Options& o) {
  const LargeInputs in = large_inputs(o.seed());
  ready();
  if (o.has("--setup-only")) return 0;

  Result r;
  std::vector<NNodeOutcome> nnode(in.nnode.size());
  std::int64_t states = 0, nnz = 0, pepa_states = 0;
  pepa::SolvedModel pepa_solved;
  double parse_ms = 0.0, derive_ms = 0.0;
  const auto pass = [&] {
    states = nnz = 0;
    for (std::size_t i = 0; i < in.nnode.size(); ++i) {
      std::optional<models::TagsNNodeModel> model;
      {
        BenchSpan s("pb/models/build");
        model.emplace(in.nnode[i]);
      }
      {
        BenchSpan s("pb/ctmc/solve");
        nnode[i].solve = model->solve();
      }
      BenchSpan measures("pb/models/measures");
      const linalg::Vec& pi = nnode[i].solve.pi;
      nnode[i].mean_total = 0.0;
      for (std::size_t st = 0; st < pi.size(); ++st) {
        for (unsigned node = 0; node < in.nnode[i].n_nodes(); ++node) {
          nnode[i].mean_total += pi[st] * model->queue_length(static_cast<ctmc::index_t>(st), node);
        }
      }
      nnode[i].throughput = 0.0;
      for (unsigned node = 0; node < in.nnode[i].n_nodes(); ++node) {
        nnode[i].throughput += model->chain().throughput(pi, "service_" + std::to_string(node + 1));
      }
      nnode[i].loss = model->chain().throughput(pi, "loss1");
      for (unsigned node = 1; node < in.nnode[i].n_nodes(); ++node) {
        nnode[i].loss += model->chain().throughput(pi, "timeout_lost_" + std::to_string(node));
      }
      states += model->n_states();
      nnz += nnz_of(*model);
    }
    const double t0 = pb::now_s();
    std::optional<pepa::Model> parsed;
    {
      BenchSpan s("pb/pepa/parse");
      parsed.emplace(pepa::parse_model(in.h2_source));
    }
    const double t1 = pb::now_s();
    std::optional<pepa::DerivedModel> derived;
    {
      BenchSpan s("pb/pepa/derive");
      derived.emplace(pepa::derive(*parsed, "System"));
    }
    const double t2 = pb::now_s();
    parse_ms = (t1 - t0) * 1e3;
    derive_ms = (t2 - t1) * 1e3;
    pepa_states = derived->chain.n_states();
    {
      BenchSpan s("pb/pepa/solve");
      pepa_solved = pepa::solve(std::move(*derived));
    }
  };
  measure(o, r, 1, pass);  // the large solves run on one thread

  for (std::size_t i = 0; i < nnode.size(); ++i) {
    r.check("nnode_certified", nnode[i].solve.certificate.ok());
    // Flow balance: every arrival completes or is lost.
    r.check("nnode_flow_balance",
            rel_close(nnode[i].throughput + nnode[i].loss, in.nnode[i].lambda, 1e-6),
            "X+L=" + pb::fmt_double(nnode[i].throughput + nnode[i].loss));
  }
  r.check("pepa_certified", pepa_solved.solve_info.certificate.ok());
  // The PEPA-derived chain against the direct TagsH2Model build.
  const models::TagsH2Model direct(in.h2);
  const ctmc::SteadyStateResult direct_solve = direct.solve();
  r.check("pepa_states_match_direct", direct.n_states() == pepa_states,
          std::to_string(pepa_states) + " vs " + std::to_string(direct.n_states()));
  const models::Metrics dm = direct.metrics_from(direct_solve.pi);
  const double pepa_x = pepa_solved.action_throughput("service1") +
                        pepa_solved.action_throughput("service2");
  r.check("pepa_throughput_matches_direct",
          direct_solve.certificate.ok() && rel_close(pepa_x, dm.throughput, 1e-6),
          pb::fmt_double(pepa_x) + " vs " + pb::fmt_double(dm.throughput));

  r.facts.num("pepa.parse_ms", parse_ms);
  r.facts.num("pepa.derive_ms", derive_ms);
  r.facts.integer("pepa.states", pepa_states);
  r.facts.integer("models.states", states);
  r.facts.integer("models.nnz", nnz);
  r.facts.raw("nnz_by_states", nnz_by_states({{states, nnz}, {direct.n_states(), nnz_of(direct)}}));
  return emit("large_chain", r);
}

// ---------------------------------------------------------------------------
// sim_tags: a fixed set of discrete-event replications, at most four in
// parallel, plus one small CTMC reference solve.
// ---------------------------------------------------------------------------

struct SimJob {
  bool tags = true;
  sim::TagsSimParams tp;
  sim::DispatchSimParams dp;
};

constexpr int kErlangReplications = 8;

struct SimInputs {
  models::TagsParams ref;      // CTMC of the Erlang-timeout replications
  std::vector<SimJob> jobs;    // first kErlangReplications are the CI check
};

SimInputs sim_inputs(std::uint64_t seed) {
  pb::Rng rng(seed, "sim_tags");
  SimInputs in;
  in.ref.lambda = rng.jitter(5.0, 0.03);
  in.ref.mu = 10.0;
  // Timeouts rare enough (P ~ 2e-4) that the CTMC's independent resampling
  // of the node-2 repeat period is below the check's resolution.
  in.ref.t = rng.jitter(4.0, 0.03);
  in.ref.n = 6;
  in.ref.k1 = in.ref.k2 = 10;
  const double horizon = 3e5;
  for (int i = 0; i < kErlangReplications; ++i) {
    SimJob j;
    j.tp.lambda = in.ref.lambda;
    j.tp.service = sim::Exponential{in.ref.mu};
    j.tp.timeouts = {sim::Erlang{in.ref.n + 1, in.ref.t}};
    j.tp.buffers = {in.ref.k1, in.ref.k2};
    j.tp.horizon = horizon;
    j.tp.warmup_fraction = 0.1;
    j.tp.seed = rng.next();
    in.jobs.push_back(j);
  }
  // Deterministic timeouts (the real TAGS) under three demand laws.
  const std::vector<sim::Distribution> demands{
      sim::Exponential{10.0}, sim::HyperExp2{0.99, 19.9, 0.199},
      sim::BoundedPareto{0.0215, 100.0, 1.1}};
  for (const auto& d : demands) {
    for (int i = 0; i < 2; ++i) {
      SimJob j;
      j.tp.lambda = rng.jitter(8.0, 0.03);
      j.tp.service = d;
      j.tp.timeouts = {sim::Deterministic{rng.jitter(0.14, 0.03)}};
      j.tp.buffers = {10, 10};
      j.tp.horizon = horizon;
      j.tp.seed = rng.next();
      in.jobs.push_back(j);
    }
  }
  for (const auto policy : {sim::DispatchPolicy::kShortestQueue, sim::DispatchPolicy::kRandom}) {
    for (int i = 0; i < 2; ++i) {
      SimJob j;
      j.tags = false;
      j.dp.lambda = rng.jitter(8.0, 0.03);
      j.dp.service = sim::HyperExp2{0.99, 19.9, 0.199};
      j.dp.n_queues = 2;
      j.dp.buffer = 10;
      j.dp.policy = policy;
      j.dp.horizon = horizon;
      j.dp.seed = rng.next();
      in.jobs.push_back(j);
    }
  }
  return in;
}

int sim_tags(const Options& o) {
  const SimInputs in = sim_inputs(o.seed());
  models::Metrics ref;
  {
    const models::TagsModel model(in.ref);
    ref = model.metrics();
  }
  ready();
  if (o.has("--setup-only")) return 0;

  Result r;
  std::vector<sim::SimResults> out(in.jobs.size());
  std::vector<double> job_ms(in.jobs.size());
  const auto pass = [&] {
    const std::uint64_t parent = obs::Span::current_id();
    std::atomic<std::size_t> next{0};
    const auto worker = [&] {
      for (std::size_t i = next++; i < in.jobs.size(); i = next++) {
        const double t0 = pb::now_s();
        if (in.jobs[i].tags) {
          BenchSpan s("pb/sim/simulate_tags", parent);
          out[i] = sim::simulate_tags(in.jobs[i].tp);
        } else {
          BenchSpan s("pb/sim/simulate_dispatch", parent);
          out[i] = sim::simulate_dispatch(in.jobs[i].dp);
        }
        job_ms[i] = (pb::now_s() - t0) * 1e3;
      }
    };
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < kThreads; ++t) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  };
  measure(o, r, kThreads, pass);

  std::int64_t jobs = 0, tags_jobs = 0, dispatch_jobs = 0;
  double tags_ms = 0.0, dispatch_ms = 0.0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const auto done = static_cast<std::int64_t>(out[i].completed);
    jobs += done;
    (in.jobs[i].tags ? tags_jobs : dispatch_jobs) += done;
    (in.jobs[i].tags ? tags_ms : dispatch_ms) += job_ms[i];
    r.check("replication_completed", out[i].completed > 0 && std::isfinite(out[i].mean_response));
  }
  // Exponential TAGS with Erlang(n+1, t) timeouts against the CTMC: the
  // CTMC value must lie in the replications' 99% CI (Student t, 7 dof),
  // widened by a 1% floor as in tests/sim_vs_ctmc_test.cpp.
  constexpr double kT99Df7 = 3.499;
  for (const auto& [name, field, want] :
       std::vector<std::tuple<const char*, double sim::SimResults::*, double>>{
           {"sim_response_in_ctmc_ci", &sim::SimResults::mean_response, ref.response_time},
           {"sim_queue_in_ctmc_ci", &sim::SimResults::mean_total_queue, ref.mean_total}}) {
    double mean = 0.0, ss = 0.0;
    for (int i = 0; i < kErlangReplications; ++i) mean += out[i].*field;
    mean /= kErlangReplications;
    for (int i = 0; i < kErlangReplications; ++i) ss += std::pow(out[i].*field - mean, 2);
    const double half = kT99Df7 * std::sqrt(ss / (kErlangReplications - 1) / kErlangReplications);
    r.check(name, std::abs(mean - want) <= half + 0.01 * std::abs(want),
            "sim " + pb::fmt_double(mean) + " +- " + pb::fmt_double(half) + " ctmc " +
                pb::fmt_double(want));
  }
  r.facts.integer("sim.jobs", jobs);
  r.facts.integer("sim.jobs.tags", tags_jobs);
  r.facts.integer("sim.jobs.dispatch", dispatch_jobs);
  r.facts.num("sim.tags_ms", tags_ms);
  r.facts.num("sim.dispatch_ms", dispatch_ms);
  return emit("sim_tags", r);
}

// ---------------------------------------------------------------------------
// serve_check: a seeded sample of served "result" objects against the
// one-shot Engine::evaluate_now, byte for byte.
// ---------------------------------------------------------------------------

int serve_check(const Options& o) {
  std::ifstream in(o.get("--sample", ""));
  if (!in) throw std::runtime_error("serve_check: cannot open --sample");
  Result r;
  std::string request, response;
  while (std::getline(in, request) && std::getline(in, response)) {
    std::string err;
    const auto req = serve::parse_request(request, &err);
    if (!req) {
      r.check("sample_request_parses", false, err);
      continue;
    }
    const serve::Answer a = serve::Engine::evaluate_now(req->scenario);
    const std::string line = serve::serialize_answer(req->id, a, serve::Served{}, req->want_pi);
    const auto want = pb::result_object(line);
    const auto got = pb::result_object(response);
    const auto method_of = [](std::string_view line) {
      const std::size_t at = line.find("\"method\":\"");
      return at == std::string_view::npos ? std::string_view{}
                                          : line.substr(at + 10, line.find('"', at + 10) - at - 10);
    };
    r.check("served_result_identical_to_oneshot", want && got && *want == *got,
            req->id + " " + core::structure_key(req->scenario) + " served by " +
                std::string(method_of(response)) + ", one-shot by " + a.method);
  }
  return emit("serve_check", r);
}

// ---------------------------------------------------------------------------
// calibrate: the reference kernel alongside serve_mixed's request stream
// ---------------------------------------------------------------------------

/// Runs one-rep reference slices on --threads threads until --seconds have
/// passed; prints every rep's CPU seconds.
int calibrate(const Options& o) {
  const auto threads = static_cast<unsigned>(std::stoul(o.get("--threads", "1")));
  const double until = pb::now_s() + o.seconds();
  std::vector<double> all;
  do {
    const std::vector<double> slice = reference_slice(threads, 1);
    all.insert(all.end(), slice.begin(), slice.end());
  } while (pb::now_s() < until);
  JsonLine out;
  out.nums("rep_cpu_s", all);
  std::printf("%s\n", out.finish().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: pb_bench <workload|serve_presolve|loadgen|serve_check|calibrate> ...\n");
    return 2;
  }
  try {
    const std::string cmd = argv[1];
    const Options o = parse_args(argc, argv);
    pb::g_trace = o.has("--telemetry-out");
    if (cmd == "paper_sweep") return paper_sweep(o);
    if (cmd == "large_chain") return large_chain(o);
    if (cmd == "sim_tags") return sim_tags(o);
    if (cmd == "serve_check") return serve_check(o);
    if (cmd == "calibrate") return calibrate(o);
    if (cmd == "serve_presolve") return pb::run_presolve(o.args);
    if (cmd == "loadgen") return pb::run_loadgen(o.args);
    std::fprintf(stderr, "pb_bench: unknown command %s\n", cmd.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pb_bench: %s\n", e.what());
    return 1;
  }
}
