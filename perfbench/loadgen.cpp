// Open-loop load generator for serve_mixed, and the set-up client that
// pre-solves every served structure once cold.
//
// One process, one thread, at most kConnections Unix-socket connections.
// The whole arrival schedule is drawn from the seed before the first send:
// Poisson arrivals at each phase's fixed rate. A fixed share of requests
// asks for a fresh rate point (a parameter study moving on: always a warm
// miss); the rest are drawn with Zipf popularity from the hot set, which
// set-up has already solved into the cache. The miss share is therefore the
// same in every phase and every run, and the p99 sits inside the miss
// latencies rather than on the cliff between hits and misses. Each request is sent when it is
// due, whatever is outstanding, and its latency is timed from that due
// time, so a stall in the server (or in this process) is charged to every
// request it delays. Responses are matched to requests by id.
//
// Plan: comma-separated phases "name:rate_per_s:seconds", run in order,
// each drained before the next starts.
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"

namespace pb {

namespace {

constexpr int kConnections = 4;
constexpr double kZipfExponent = 1.1;
constexpr double kFreshShare = 0.08;
constexpr std::size_t kPresolveWindow = 6;  // in flight; below the queue depth
constexpr double kWantPiShare = 0.03;
constexpr double kDeadlineShare = 0.2;
constexpr double kDeadlineMs = 5000.0;
constexpr std::size_t kSampleSize = 16;
constexpr double kDrainSeconds = 3.0;

struct Phase {
  std::string name;
  double rate = 0.0;
  double seconds = 0.0;
};

std::vector<Phase> parse_plan(const std::string& spec) {
  std::vector<Phase> phases;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t end = spec.find(',', pos);
    if (end == std::string::npos) end = spec.size();
    const std::string item = spec.substr(pos, end - pos);
    const std::size_t a = item.find(':');
    const std::size_t b = item.find(':', a + 1);
    if (a == std::string::npos || b == std::string::npos) {
      throw std::invalid_argument("bad plan item: " + item);
    }
    phases.push_back({item.substr(0, a), std::stod(item.substr(a + 1, b - a - 1)),
                      std::stod(item.substr(b + 1))});
    pos = end + 1;
  }
  return phases;
}

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) throw std::runtime_error("socket path too long");
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error("connect(" + path + ") failed: " + std::strerror(errno));
  }
  return fd;
}

void send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("send failed: ") + std::strerror(errno));
    }
    off += static_cast<std::size_t>(n);
  }
}

/// Line reader over one connection; owns the socket.
struct Conn {
  explicit Conn(int fd_) : fd(fd_) {}
  ~Conn() {
    if (fd >= 0) ::close(fd);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;
  Conn(Conn&& o) noexcept : fd(std::exchange(o.fd, -1)), buf(std::move(o.buf)) {}
  Conn& operator=(Conn&&) = delete;

  int fd = -1;
  std::string buf;

  /// Read what is available; append complete lines to `lines`. False on EOF.
  bool pump(std::vector<std::string>& lines) {
    char chunk[1 << 16];
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, MSG_DONTWAIT);
    if (n == 0) return false;
    if (n < 0) return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
    buf.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (std::size_t nl; (nl = buf.find('\n', start)) != std::string::npos; start = nl + 1) {
      lines.emplace_back(buf, start, nl - start);
    }
    buf.erase(0, start);
    return true;
  }
};

bool has(std::string_view line, std::string_view needle) {
  return line.find(needle) != std::string_view::npos;
}

double field_num(std::string_view line, std::string_view key) {
  const std::size_t at = line.find(key);
  if (at == std::string_view::npos) return -1.0;
  return std::strtod(std::string(line.substr(at + key.size(), 32)).c_str(), nullptr);
}

std::string field_id(std::string_view line) {
  constexpr std::string_view kKey = "\"id\":\"";
  const std::size_t at = line.find(kKey);
  if (at == std::string_view::npos) return {};
  const std::size_t end = line.find('"', at + kKey.size());
  return std::string(line.substr(at + kKey.size(), end - at - kKey.size()));
}

/// Zipf(s) sampler over ranks [0, n) by inverse CDF.
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) cdf_[i] = acc += 1.0 / std::pow(double(i + 1), s);
    for (double& c : cdf_) c /= acc;
  }
  [[nodiscard]] std::size_t draw(Rng& rng) const {
    const double u = rng.uniform(0.0, 1.0);
    return std::min<std::size_t>(
        static_cast<std::size_t>(std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin()),
        cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

enum class Status { kPending, kOk, kShed, kError, kUncertified, kTimeout };

const char* status_name(Status s) {
  switch (s) {
    case Status::kPending: return "pending";
    case Status::kOk: return "ok";
    case Status::kShed: return "shed";
    case Status::kError: return "error";
    case Status::kUncertified: return "uncertified";
    case Status::kTimeout: return "timeout";
  }
  return "?";
}

struct Req {
  std::size_t phase = 0;
  double due = 0.0;  ///< seconds from run start (offset in phase until it starts)
  double sent = -1.0;
  double recv = -1.0;
  ServeRequestSpec spec;
  Status status = Status::kPending;
  bool cached = false;
  bool warm = false;
  double queue_ms = 0.0;
  double solve_ms = 0.0;
  std::size_t bytes = 0;
  bool sampled = false;
};

struct SpanRec {
  std::uint64_t id;
  std::uint64_t parent;
  const char* name;
  double start;
  double end;
};

std::string spans_json(const std::vector<SpanRec>& spans) {
  std::string out = "{\"spans_dropped\":0,\"spans\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (i > 0) out += ',';
    JsonLine j;
    j.integer("id", static_cast<std::int64_t>(spans[i].id));
    j.integer("parent", static_cast<std::int64_t>(spans[i].parent));
    j.integer("thread", 0);
    j.str("name", spans[i].name);
    j.num("start_ms", spans[i].start * 1e3);
    j.num("end_ms", spans[i].end * 1e3);
    out += j.finish();
  }
  return out + "]}";
}

// Built by appending: GCC 12 warns falsely (-Wrestrict) on "r" + to_string.
std::string request_id(char tag, std::size_t i) {
  std::string id(1, tag);
  id += std::to_string(i);
  return id;
}

std::string arg(const std::map<std::string, std::string>& args, const std::string& k) {
  const auto it = args.find(k);
  if (it == args.end()) throw std::invalid_argument("missing " + k);
  return it->second;
}

}  // namespace

int run_presolve(const std::map<std::string, std::string>& args) {
  // --cold: one rate point per structure, each the structure's cold solve
  // (set-up). Otherwise the whole hot set, a few requests in flight at a
  // time, so the cache holds it before the timed phases start.
  std::vector<tags::core::ScenarioRequest> hot = serve_hot_set(std::stoull(arg(args, "--seed")));
  if (args.count("--cold") > 0) {
    Rng rng(std::stoull(arg(args, "--seed")), "serve_cold");
    hot.clear();
    for (const ServeStructure& st : serve_structures()) hot.push_back(random_scenario(st, rng));
  }
  Conn c(connect_unix(arg(args, "--socket")));
  std::size_t sent = 0, answered = 0, ok = 0;
  std::vector<std::string> lines;
  while (answered < hot.size()) {
    while (sent < hot.size() && sent - answered < kPresolveWindow) {
      send_all(c.fd, serve_request_line(hot[sent], request_id('p', sent), {}) + "\n");
      ++sent;
    }
    pollfd p{c.fd, POLLIN, 0};
    if (::poll(&p, 1, 60000) <= 0) break;
    if (!c.pump(lines)) break;
    for (const auto& l : lines) {
      ++answered;
      if (has(l, "\"ok\":true") &&
          (has(l, "\"certified\":true") || has(l, "\"method\":\"closed-form\""))) {
        ++ok;
      }
    }
    lines.clear();
  }
  JsonLine out;
  out.integer("scenarios", static_cast<std::int64_t>(hot.size()));
  out.integer("ok", static_cast<std::int64_t>(ok));
  std::printf("%s\n", out.finish().c_str());
  return ok == hot.size() ? 0 : 1;
}

int run_loadgen(const std::map<std::string, std::string>& args) {
  const std::uint64_t seed = std::stoull(arg(args, "--seed"));
  const std::vector<Phase> phases = parse_plan(arg(args, "--plan"));
  const bool traced = args.count("--telemetry-out") > 0;
  // scenarios = the hot set, then one fresh rate point per fresh request.
  std::vector<tags::core::ScenarioRequest> scenarios = serve_hot_set(seed);
  const std::size_t hot = scenarios.size();

  // The schedule, drawn in full before the first send.
  Rng rng(seed, "serve_schedule");
  const Zipf zipf(hot, kZipfExponent);
  std::size_t fresh = 0;
  std::vector<Req> reqs;
  std::vector<std::pair<std::size_t, std::size_t>> phase_range;  // [begin, end)
  for (std::size_t p = 0; p < phases.size(); ++p) {
    const std::size_t begin = reqs.size();
    const double rate = phases[p].rate;
    for (double t = rng.exponential(rate); t < phases[p].seconds; t += rng.exponential(rate)) {
      Req r;
      r.phase = p;
      r.due = t;
      // Fresh points cycle through the structures, so every run has the
      // same miss mix.
      if (rng.uniform(0.0, 1.0) < kFreshShare) {
        const auto& structures = serve_structures();
        r.spec.scenario = scenarios.size();
        scenarios.push_back(random_scenario(structures[fresh++ % structures.size()], rng));
      } else {
        r.spec.scenario = zipf.draw(rng);
      }
      r.spec.want_pi = rng.uniform(0.0, 1.0) < kWantPiShare;
      r.spec.deadline_ms = rng.uniform(0.0, 1.0) < kDeadlineShare ? kDeadlineMs : -1.0;
      const double u = rng.uniform(0.0, 1.0);
      r.spec.priority = u < 0.2 ? 0 : (u < 0.8 ? 1 : 2);
      reqs.push_back(r);
    }
    phase_range.emplace_back(begin, reqs.size());
  }
  // Seeded sample for the byte-identity check, outside the warm-up phase.
  for (std::size_t k = 0; k < kSampleSize && !reqs.empty(); ++k) {
    const std::size_t i = rng.next() % reqs.size();
    if (phases[reqs[i].phase].name != "warm") reqs[i].sampled = true;
  }

  std::vector<Conn> conns;
  conns.reserve(kConnections);
  for (int i = 0; i < kConnections; ++i) conns.emplace_back(connect_unix(arg(args, "--socket")));
  std::vector<pollfd> pfds(conns.size());
  std::vector<std::string> lines;
  std::vector<std::string> sample_lines;  // request, response pairs
  std::vector<SpanRec> spans;
  std::uint64_t next_span = 2;
  std::size_t outstanding = 0;
  double idle_since = 0.0;

  const double t0 = now_s();
  const auto now = [&] { return now_s() - t0; };
  const auto handle = [&](const std::string& line) {
    const std::string id = field_id(line);
    if (id.size() < 2 || id[0] != 'r') return;
    const std::size_t i = std::stoull(id.substr(1));
    if (i >= reqs.size() || reqs[i].status != Status::kPending) return;
    Req& r = reqs[i];
    r.recv = now();
    r.bytes = line.size();
    if (has(line, "\"shed\":true")) {
      r.status = Status::kShed;
    } else if (!has(line, "\"ok\":true")) {
      r.status = Status::kError;
    } else {
      const bool certified =
          has(line, "\"certified\":true") || has(line, "\"method\":\"closed-form\"");
      r.status = certified ? Status::kOk : Status::kUncertified;
      r.cached = has(line, "\"cached\":true");
      r.warm = has(line, "\"warm\":true");
      r.queue_ms = field_num(line, "\"queue_ms\":");
      r.solve_ms = field_num(line, "\"solve_ms\":");
    }
    if (traced) spans.push_back({next_span++, 1, "pb/loadgen/roundtrip", r.due, r.recv});
    if (r.sampled && r.status == Status::kOk) {
      sample_lines.push_back(serve_request_line(scenarios[r.spec.scenario], id, r.spec));
      sample_lines.push_back(line);
    }
    if (--outstanding == 0) idle_since = r.recv;
  };
  // The generator polls without sleeping: a wake-up from ppoll() costs tens
  // of microseconds of scheduler jitter, which would land in every latency.
  const auto pump_once = [&](double deadline) {
    if (deadline <= now()) return;
    for (std::size_t c = 0; c < conns.size(); ++c) pfds[c] = {conns[c].fd, POLLIN, 0};
    const timespec ts{0, 0};
    if (::ppoll(pfds.data(), pfds.size(), &ts, nullptr) <= 0) return;
    for (std::size_t c = 0; c < conns.size(); ++c) {
      if ((pfds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      if (!conns[c].pump(lines)) throw std::runtime_error("server closed a connection");
      for (const auto& l : lines) handle(l);
      lines.clear();
    }
  };
  const auto pump_until = [&](double deadline) {
    while (now() < deadline) pump_once(deadline);
  };
  const auto send = [&](std::size_t i) {
    Req& r = reqs[i];
    if (traced && outstanding == 0 && r.due > idle_since) {
      spans.push_back({next_span++, 1, "pb/loadgen/idle", idle_since, r.due});
    }
    r.sent = now();
    ++outstanding;
    std::string line = serve_request_line(scenarios[r.spec.scenario], request_id('r', i), r.spec);
    line += '\n';
    send_all(conns[i % conns.size()].fd, line);
  };

  for (std::size_t p = 0; p < phases.size(); ++p) {
    const auto [begin, end] = phase_range[p];
    const double base = now();
    for (std::size_t i = begin; i < end; ++i) reqs[i].due += base;
    for (std::size_t i = begin; i < end; ++i) {
      pump_until(reqs[i].due);
      send(i);
    }
    pump_until(base + phases[p].seconds);
    // Drain this phase before the next one starts.
    const double drain_deadline = now() + kDrainSeconds;
    while (outstanding > 0 && now() < drain_deadline) {
      pump_until(std::min(drain_deadline, now() + 0.01));
    }
    if (traced && outstanding == 0 && idle_since < now()) {
      spans.push_back({next_span++, 1, "pb/loadgen/idle", idle_since, now()});
      idle_since = now();
    }
  }
  for (Req& r : reqs) {
    if (r.sent >= 0.0 && r.status == Status::kPending) r.status = Status::kTimeout;
  }
  const double t_end = now();
  conns.clear();

  std::ofstream rec(arg(args, "--records"));
  rec << "phase,due,sent,recv,status,cached,warm,queue_ms,solve_ms,bytes,want_pi\n";
  for (const Req& r : reqs) {
    if (r.sent < 0.0) continue;
    rec << phases[r.phase].name << ',' << fmt_double(r.due) << ',' << fmt_double(r.sent)
        << ',' << fmt_double(r.recv) << ',' << status_name(r.status) << ','
        << int(r.cached) << ',' << int(r.warm) << ',' << fmt_double(r.queue_ms) << ','
        << fmt_double(r.solve_ms) << ',' << r.bytes << ',' << int(r.spec.want_pi) << '\n';
  }
  std::ofstream sample(arg(args, "--sample-out"));
  for (const auto& l : sample_lines) sample << l << '\n';
  if (traced) {
    spans.push_back({1, 0, "pb/bench/pass", 0.0, t_end});
    std::ofstream tel(args.at("--telemetry-out"));
    tel << spans_json(spans);
  }

  JsonLine out;
  out.integer("requests", static_cast<std::int64_t>(
                              std::count_if(reqs.begin(), reqs.end(),
                                            [](const Req& r) { return r.sent >= 0.0; })));
  out.num("rss_mb", peak_rss_mb());
  std::printf("%s\n", out.finish().c_str());
  return 0;
}

}  // namespace pb
