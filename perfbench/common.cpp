#include "common.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <ctime>
#include <fstream>

#include "ctmc/digest.hpp"
#include "serve/request.hpp"

namespace pb {

bool g_trace = false;

Rng::Rng(std::uint64_t seed, std::string_view stream)
    : gen_(tags::ctmc::fnv1a64(stream.data(), stream.size()) ^
           (seed * 0x9e3779b97f4a7c15ULL)) {}

double Rng::uniform(double lo, double hi) {
  return std::uniform_real_distribution<double>(lo, hi)(gen_);
}

double Rng::jitter(double value, double rel) { return value * (1.0 + uniform(-rel, rel)); }

double Rng::exponential(double rate) {
  return std::exponential_distribution<double>(rate)(gen_);
}

std::uint64_t Rng::next() { return gen_(); }

BenchSpan::BenchSpan(std::string_view name) {
  if (g_trace) span_.emplace(name);
}

BenchSpan::BenchSpan(std::string_view name, std::uint64_t parent_id) {
  if (g_trace) span_.emplace(name, parent_id);
}

std::string fmt_double(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 17);
  return std::string(buf, res.ptr);
}

namespace {

std::string json_escape(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

void JsonLine::key(std::string_view k) {
  if (!body_.empty()) body_ += ',';
  body_ += json_escape(k);
  body_ += ':';
}

void JsonLine::num(std::string_view k, double v) {
  key(k);
  body_ += fmt_double(v);
}

void JsonLine::integer(std::string_view k, std::int64_t v) {
  key(k);
  body_ += std::to_string(v);
}

void JsonLine::str(std::string_view k, std::string_view v) {
  key(k);
  body_ += json_escape(v);
}

void JsonLine::boolean(std::string_view k, bool v) {
  key(k);
  body_ += v ? "true" : "false";
}

void JsonLine::nums(std::string_view k, const std::vector<double>& vs) {
  key(k);
  body_ += '[';
  for (std::size_t i = 0; i < vs.size(); ++i) {
    if (i > 0) body_ += ',';
    body_ += fmt_double(vs[i]);
  }
  body_ += ']';
}

void JsonLine::raw(std::string_view k, std::string_view json) {
  key(k);
  body_ += json;
}

std::string JsonLine::finish() const { return "{" + body_ + "}"; }

std::string checks_json(const std::vector<Check>& checks) {
  std::string out = "[";
  for (std::size_t i = 0; i < checks.size(); ++i) {
    if (i > 0) out += ',';
    JsonLine j;
    j.str("name", checks[i].name);
    j.boolean("ok", checks[i].ok);
    j.str("detail", checks[i].detail);
    out += j.finish();
  }
  return out + "]";
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

void reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// ---------------------------------------------------------------------------
// serve_mixed population
// ---------------------------------------------------------------------------

namespace {
constexpr std::size_t kHotPerStructure = 12;
}

const std::vector<ServeStructure>& serve_structures() {
  using tags::core::PolicyKind;
  // Every policy, several (n, k1, k2) shapes. All chains are solved by the
  // direct level-QBD solver (or in closed form), so a warm miss costs 1-30 ms
  // and its answer is independent of the warm start: every served result
  // must then be byte-identical to the one-shot path.
  static const std::vector<ServeStructure> kStructures{
      {PolicyKind::kTags, 3, 6, 6},           {PolicyKind::kTags, 4, 8, 5},
      {PolicyKind::kTags, 4, 6, 6},
      {PolicyKind::kTagsH2, 2, 5, 5},         {PolicyKind::kTagsH2, 3, 4, 6},
      {PolicyKind::kTagsH2, 3, 6, 6},         {PolicyKind::kRandom, 6, 10, 10},
      {PolicyKind::kRandomH2, 6, 10, 10},     {PolicyKind::kRoundRobin, 6, 10, 10},
      {PolicyKind::kShortestQueue, 6, 10, 10}, {PolicyKind::kShortestQueue, 6, 20, 20},
      {PolicyKind::kShortestQueueH2, 6, 10, 10}, {PolicyKind::kShortestQueueH2, 6, 20, 20},
  };
  return kStructures;
}

tags::core::ScenarioRequest random_scenario(const ServeStructure& st, Rng& rng) {
  tags::core::ScenarioRequest r;
  r.policy = st.policy;
  r.n = st.n;
  r.k1 = st.k1;
  r.k2 = st.k2;
  r.lambda = rng.uniform(4.0, 12.0);
  r.mu = 10.0;
  r.t = rng.uniform(15.0, 80.0);
  r.alpha = rng.uniform(0.9, 0.99);
  const double ratio = rng.uniform(10.0, 100.0);
  // Mean demand 0.1 with mu1 = ratio * mu2 (the paper's Figures 9-12).
  r.mu2 = (r.alpha / ratio + (1.0 - r.alpha)) / 0.1;
  r.mu1 = ratio * r.mu2;
  return r;
}

std::vector<tags::core::ScenarioRequest> serve_hot_set(std::uint64_t seed) {
  Rng rng(seed, "serve_hot_set");
  std::vector<tags::core::ScenarioRequest> out;
  for (const ServeStructure& st : serve_structures()) {
    for (std::size_t i = 0; i < kHotPerStructure; ++i) out.push_back(random_scenario(st, rng));
  }
  // Seeded shuffle: Zipf rank order is independent of the structure order.
  for (std::size_t i = out.size(); i > 1; --i) {
    std::swap(out[i - 1], out[rng.next() % i]);
  }
  return out;
}

std::string serve_request_line(const tags::core::ScenarioRequest& s, const std::string& id,
                               const ServeRequestSpec& spec) {
  tags::serve::Request req;
  req.op = tags::serve::RequestOp::kSolve;
  req.id = id;
  req.scenario = s;
  req.deadline_ms = spec.deadline_ms;
  req.priority = static_cast<tags::serve::Priority>(spec.priority);
  req.want_pi = spec.want_pi;
  return tags::serve::serialize_request(req);
}

std::optional<std::string_view> result_object(std::string_view line) {
  constexpr std::string_view kKey = "\"result\":";
  const std::size_t at = line.find(kKey);
  if (at == std::string_view::npos || line.empty() || line.back() != '}') {
    return std::nullopt;
  }
  return line.substr(at, line.size() - 1 - at);
}

}  // namespace pb
