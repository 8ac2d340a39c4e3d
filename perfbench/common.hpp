// Shared pieces of the benchmark program: the seeded input generator, the
// benchmark's own spans, a minimal JSON line emitter, and the serve_mixed
// scenarios (shared by the pre-solve client and the load generator, so both
// see the same hot set).
#pragma once

#include <cstdint>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/scenario.hpp"
#include "obs/obs.hpp"

namespace pb {

/// Seeded generator of benchmark inputs. Streams are split by name so that
/// adding a draw to one workload never shifts another workload's inputs.
class Rng {
 public:
  Rng(std::uint64_t seed, std::string_view stream);
  [[nodiscard]] double uniform(double lo, double hi);
  /// value * (1 + u), u uniform in [-rel, rel].
  [[nodiscard]] double jitter(double value, double rel);
  [[nodiscard]] double exponential(double rate);
  [[nodiscard]] std::uint64_t next();

 private:
  std::mt19937_64 gen_;
};

/// True in the traced run only. Timed runs record no benchmark spans.
extern bool g_trace;

/// A benchmark span around one call into a layer's public functions. Named
/// "pb/<layer>/<op>"; recorded through the program's own span store so it
/// shares one clock with the program's spans and parents them. Does nothing
/// unless g_trace is set.
class BenchSpan {
 public:
  explicit BenchSpan(std::string_view name);
  BenchSpan(std::string_view name, std::uint64_t parent_id);

 private:
  std::optional<tags::obs::Span> span_;
};

/// One flat JSON object, built field by field; doubles print with 17
/// significant digits.
class JsonLine {
 public:
  void num(std::string_view key, double v);
  void integer(std::string_view key, std::int64_t v);
  void str(std::string_view key, std::string_view v);
  void boolean(std::string_view key, bool v);
  void nums(std::string_view key, const std::vector<double>& vs);
  /// Raw pre-rendered JSON value.
  void raw(std::string_view key, std::string_view json);
  [[nodiscard]] std::string finish() const;

 private:
  void key(std::string_view k);
  std::string body_;
};

[[nodiscard]] std::string fmt_double(double v);

/// Outcome of one output check.
struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};
[[nodiscard]] std::string checks_json(const std::vector<Check>& checks);

/// Peak resident set of this process in MB (VmHWM).
[[nodiscard]] double peak_rss_mb();
/// Lowers VmHWM to the current resident set (Linux clear_refs "5"), so a
/// later peak_rss_mb() sees only what happened after this call.
void reset_peak_rss();
[[nodiscard]] double now_s();
/// CPU time (user + system, all threads) this process has used, in seconds.
/// Unlike wall time it does not grow while the host runs someone else on
/// this machine's cores.
[[nodiscard]] double cpu_s();

// ---------------------------------------------------------------------------
// serve_mixed scenarios
// ---------------------------------------------------------------------------

/// One structure of the served population: a policy at fixed (n, k1, k2).
struct ServeStructure {
  tags::core::PolicyKind policy;
  unsigned n;
  unsigned k1;
  unsigned k2;
};

/// The structures every serve_mixed run uses (all seven policies).
[[nodiscard]] const std::vector<ServeStructure>& serve_structures();

/// A rate point of structure `st`, drawn from `rng`.
[[nodiscard]] tags::core::ScenarioRequest random_scenario(const ServeStructure& st, Rng& rng);

/// The hot set: a fixed number of rate points per structure, drawn from the
/// seed. It fits the server's solve cache; index order is the Zipf rank
/// order after a seeded shuffle.
[[nodiscard]] std::vector<tags::core::ScenarioRequest> serve_hot_set(std::uint64_t seed);

/// Per-request options of one scheduled request.
struct ServeRequestSpec {
  std::size_t scenario = 0;
  bool want_pi = false;
  double deadline_ms = -1.0;
  int priority = 1;  ///< 0 low, 1 normal, 2 high
};
[[nodiscard]] std::string serve_request_line(const tags::core::ScenarioRequest& s,
                                             const std::string& id,
                                             const ServeRequestSpec& spec);

/// The "result" member of a solve response: everything from `"result":`
/// to the byte before the closing brace of the response object.
[[nodiscard]] std::optional<std::string_view> result_object(std::string_view line);

}  // namespace pb
