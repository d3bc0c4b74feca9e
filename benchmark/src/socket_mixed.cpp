// socket-mixed-1k: the transport-bound workload.
//
// An in-process SocketServer on a Unix socket in front of a PlacementService
// over a 1,000-PM fleet filled to saturation (the engine is cheap at this
// size). A separate generator process (this binary, `--generator`) opens
// two connections — one JSON-lines, one PRVB1 — and sends open-loop Poisson
// arrivals on a fixed offered-rate ladder: 40% place, 40% release of acked
// VMs, 15% lookup (a read through the worker queue) and 5% util (answered
// on the submit fast path). Each op is timed from its due time to its
// decoded response, so generator stalls count against latency, and the
// generator's own lateness is reported separately.
//
// Checks: every response matches its request's op and VM in FIFO order on
// both protocols; every lookup returns the PM its VM was acked on; the
// state digest survives a hard stop and WAL recovery.
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <functional>
#include <array>
#include <fstream>
#include <future>
#include <map>
#include <variant>
#include <sstream>
#include <thread>

#include "common/rng.hpp"
#include "service/binary_protocol.hpp"
#include "service/service.hpp"
#include "service/snapshot.hpp"
#include "service/socket_server.hpp"
#include "sim/simulator.hpp"
#include "workloads.hpp"

extern char** environ;

namespace bench {
namespace {

using prvm::Request;
using prvm::Response;

constexpr double kSloP99Us = 2000.0;
constexpr double kSloFailed = 0.001;

struct Params {
  std::size_t fleet = 1000;
  /// Offered rates (ops/s) of the ladder, low to high; the nominal rung is
  /// where lat_p50_us, tail.lat_p90_us and tail.lat_p99_us are read.
  std::vector<double> rates = {36000, 72000, 108000, 144000, 162000};
  std::size_t nominal = 1;
  /// Each visit of the nominal rung lasts this many times a visit of any
  /// other rung: its latency figures get the most samples.
  double nominal_weight = 4.0;
  /// Walks of the whole ladder; per-rung figures are medians over them.
  std::size_t passes = 5;
  double gap_seconds = 0.08;  ///< idle time between a visit's last response and the next visit
  std::size_t setup_reps = 3;
  std::size_t fill_reps = 9;
  std::size_t recovery_reps = 7;
  std::size_t corpus_ops = 20000;  ///< recorded requests/responses for the codec replay
  std::size_t codec_rounds = 8;    ///< ABAB rounds of the codec replay
};

Params params_for(const Options& options) {
  Params p;
  if (options.smoke) {
    p.fleet = 200;
    p.rates = {1000, 2000, 3000};
    p.nominal = 1;
    p.passes = 2;
    p.gap_seconds = 0.05;
    p.setup_reps = 1;
    p.fill_reps = 1;
    p.recovery_reps = 1;
    p.corpus_ops = 500;
    p.codec_rounds = 2;
  }
  return p;
}

// --- small socket helpers ---------------------------------------------------

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (fd < 0 || ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (fd >= 0) ::close(fd);
    throw std::runtime_error("cannot connect to " + path + ": " + std::strerror(errno));
  }
  return fd;
}

bool write_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

/// One JSON-lines round trip of `health` on a fresh connection: the
/// "first request accepted" point of set-up and recovery.
void health_over_socket(const std::string& path) {
  const int fd = connect_unix(path);
  const std::string line = "{\"op\":\"health\"}\n";
  bool ok = write_all(fd, line.data(), line.size());
  prvm::LineBuffer lines;
  std::optional<Response> response;
  char buf[4096];
  while (ok && !response.has_value()) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n <= 0) break;
    lines.feed(std::string_view(buf, static_cast<std::size_t>(n)));
    if (auto frame = lines.next()) response = prvm::parse_response(frame->line, nullptr);
  }
  ::close(fd);
  check(response.has_value() && response->ok, "health over the socket failed");
}

// --- the generator process ----------------------------------------------------

enum class Kind : std::uint8_t { kPlace, kRelease, kLookup, kUtil };

const char* op_name(Kind kind) {
  switch (kind) {
    case Kind::kPlace: return "place";
    case Kind::kRelease: return "release";
    case Kind::kLookup: return "lookup";
    case Kind::kUtil: return "util";
  }
  return "?";
}

struct GenOp {
  std::uint64_t due_ns = 0;  ///< offset from the start of its visit
  std::uint64_t send_ns = 0;
  std::uint64_t recv_ns = 0;
  std::uint64_t vm = 0;
  std::uint64_t expect_pm = 0;  ///< lookup: the PM its VM was acked on
  std::uint32_t type = 0;
  std::uint16_t visit = 0;  ///< index into the generator's visits (0 = warm-up)
  std::uint8_t conn = 0;
  Kind kind = Kind::kPlace;
  bool ok = false;
  bool failure = false;
};

struct Plan {
  std::string socket_path;
  std::uint64_t seed = 1;
  std::vector<double> rates;
  std::size_t nominal = 0;
  double nominal_weight = 1.0;
  std::size_t passes = 1;
  double rung_seconds = 1.0;  ///< length of one visit of one rung
  double gap_seconds = 0.25;
  bool trace = false;
  std::uint64_t next_vm = 1;
  std::size_t corpus_ops = 0;
  std::string live_path, result_path, corpus_path, spans_path, corrupt;
};

void write_plan(const Plan& plan, const std::filesystem::path& path) {
  std::ofstream out(path);
  out.precision(17);
  out << "socket " << plan.socket_path << "\nseed " << plan.seed << "\nrates";
  for (double r : plan.rates) out << ' ' << r;
  out << "\nnominal " << plan.nominal << "\nnominal_weight " << plan.nominal_weight
      << "\npasses " << plan.passes
      << "\nrung_seconds " << plan.rung_seconds
      << "\ngap_seconds " << plan.gap_seconds << "\ntrace " << plan.trace << "\nnext_vm "
      << plan.next_vm << "\ncorpus_ops " << plan.corpus_ops << "\nlive " << plan.live_path
      << "\nresult " << plan.result_path << "\ncorpus " << plan.corpus_path << "\nspans "
      << plan.spans_path << "\ncorrupt " << (plan.corrupt.empty() ? "-" : plan.corrupt) << "\n";
}

Plan read_plan(const std::string& path) {
  std::ifstream in(path);
  Plan plan;
  std::string key;
  while (in >> key) {
    if (key == "socket") in >> plan.socket_path;
    else if (key == "seed") in >> plan.seed;
    else if (key == "rates") {
      std::string rest;
      std::getline(in, rest);
      std::istringstream rs(rest);
      for (double r; rs >> r;) plan.rates.push_back(r);
    } else if (key == "nominal") in >> plan.nominal;
    else if (key == "passes") in >> plan.passes;
    else if (key == "nominal_weight") in >> plan.nominal_weight;
    else if (key == "rung_seconds") in >> plan.rung_seconds;
    else if (key == "gap_seconds") in >> plan.gap_seconds;
    else if (key == "trace") in >> plan.trace;
    else if (key == "next_vm") in >> plan.next_vm;
    else if (key == "corpus_ops") in >> plan.corpus_ops;
    else if (key == "live") in >> plan.live_path;
    else if (key == "result") in >> plan.result_path;
    else if (key == "corpus") in >> plan.corpus_path;
    else if (key == "spans") in >> plan.spans_path;
    else if (key == "corrupt") {
      in >> plan.corrupt;
      if (plan.corrupt == "-") plan.corrupt.clear();
    }
  }
  return plan;
}

/// Acked, live VMs the generator may release, look up or sample. A VM taken
/// for a release or lookup leaves the pool until its response arrives, so
/// no two in-flight ops on different connections ever race on one VM.
class VmPool {
 public:
  void add(std::uint64_t vm, std::uint64_t pm) { vms_.emplace_back(vm, pm); }
  bool take(prvm::Rng& rng, std::pair<std::uint64_t, std::uint64_t>& out) {
    if (vms_.empty()) return false;
    const std::size_t i = rng.uniform_index(vms_.size());
    out = vms_[i];
    vms_[i] = vms_.back();
    vms_.pop_back();
    return true;
  }
  bool peek(prvm::Rng& rng, std::uint64_t& vm) const {
    if (vms_.empty()) return false;
    vm = vms_[rng.uniform_index(vms_.size())].first;
    return true;
  }

 private:
  std::vector<std::pair<std::uint64_t, std::uint64_t>> vms_;
};

/// Single-threaded open-loop generator: one event loop sends every op when
/// it falls due (all ops already due go out in one write per connection)
/// and reads responses as they arrive, so the generator adds one thread,
/// not four, to the cores the server runs on.
class Generator {
 public:
  explicit Generator(Plan plan) : plan_(std::move(plan)), tracer_(plan_.trace) {}

  int run() {
    ::prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);  // 1 us wake-up slack
    load_live();
    schedule();
    if (plan_.trace) corpus_.resize(ops_.size());
    spans_ = tracer_.buffer(ops_.size() + 16);
    for (int c = 0; c < 2; ++c) fds_[c] = connect_unix(plan_.socket_path);
    if (!write_all(fds_[1], prvm::kBinaryPreamble, sizeof prvm::kBinaryPreamble)) {
      throw std::runtime_error("cannot send the PRVB1 preamble");
    }
    visits_.front().start_ns = prvm::obs::now_ns() + 20'000'000;  // first op 20 ms from now
    loop();
    ::close(fds_[0]);
    ::close(fds_[1]);
    if (!mismatch_.empty()) {
      std::fprintf(stderr, "CHECK FAILED: %s\n", mismatch_.c_str());
      return 1;
    }
    summarize();
    if (plan_.trace) {
      write_corpus();
      tracer_.write(plan_.spans_path);
    }
    return 0;
  }

 private:
  void load_live() {
    std::ifstream in(plan_.live_path);
    for (std::uint64_t vm, pm; in >> vm >> pm;) pool_.add(vm, pm);
    next_vm_ = plan_.next_vm;
  }

  /// Poisson arrivals. The ladder is walked `passes` times, low rate to
  /// high, after an unreported warm-up visit at the lowest rate (connections,
  /// caches and page faults settle there). A visit starts `gap_seconds`
  /// after every response of the previous one arrived, so a backlog one
  /// visit built never spills into the next.
  void schedule() {
    prvm::Rng rng(plan_.seed ^ 0x5eed50c4e7ULL);
    const std::vector<double> mix = prvm::default_vm_mix(catalog());
    visits_.push_back(Visit{-1, 0, kWarmupSeconds});
    for (std::size_t p = 0; p < plan_.passes; ++p) {
      for (std::size_t r = 0; r < plan_.rates.size(); ++r) {
        const double length =
            plan_.rung_seconds * (r == plan_.nominal ? plan_.nominal_weight : 1.0);
        visits_.push_back(Visit{static_cast<int>(r), p, length});
      }
    }
    for (std::size_t v = 0; v < visits_.size(); ++v) {
      const Visit& visit = visits_[v];
      const double rate = plan_.rates[visit.rung < 0 ? 0 : static_cast<std::size_t>(visit.rung)];
      double due = 0.0;
      while (true) {
        due += -std::log(1.0 - rng.uniform()) / rate;
        if (due >= visit.length_s) break;
        GenOp op;
        op.due_ns = static_cast<std::uint64_t>(due * 1e9);
        op.visit = static_cast<std::uint16_t>(v);
        op.conn = rng.chance(0.5) ? 1 : 0;
        const double u = rng.uniform();
        op.kind = u < 0.40 ? Kind::kPlace : u < 0.80 ? Kind::kRelease
                : u < 0.95 ? Kind::kLookup : Kind::kUtil;
        op.type = static_cast<std::uint32_t>(rng.weighted_index(mix));
        ++per_conn_[op.conn];
        ops_.push_back(op);
      }
    }
  }

  /// Never blocks on a send: a server whose pipeline is full stops reading
  /// until we read its responses, so requests wait in `out_` (and count as
  /// latency from their due time) while the loop keeps receiving.
  void loop() {
    std::size_t next = 0;
    std::size_t answered = 0;
    std::size_t current = 0;  // the visit being sent
    const auto gap_ns = static_cast<std::uint64_t>(plan_.gap_seconds * 1e9);
    char buf[65536];
    while (mismatch_.empty() && answered < ops_.size()) {
      std::uint64_t now = prvm::obs::now_ns();
      // Next visit: once the current one is fully answered, start after the gap.
      if (next < ops_.size() && ops_[next].visit != current &&
          visits_[current].outstanding == 0) {
        current = ops_[next].visit;
        visits_[current].start_ns = now + gap_ns;
      }
      for (std::size_t batch = 0; next < ops_.size() && batch < 256 &&
                                  ops_[next].visit == current &&
                                  visits_[current].start_ns + ops_[next].due_ns <= now;
           ++batch) {
        const std::uint32_t id = static_cast<std::uint32_t>(next++);
        GenOp& op = ops_[id];
        std::string* corpus = nullptr;
        if (plan_.trace && visits_[op.visit].rung == static_cast<int>(plan_.nominal) &&
            corpus_size_ < plan_.corpus_ops) {
          corpus = &corpus_[id].first;
          ++corpus_size_;
        }
        const std::size_t before = out_[op.conn].size();
        encode(op, op.conn, out_[op.conn], corpus);
        bytes_sent_[op.conn] += out_[op.conn].size() - before;
        op.send_ns = now;
        ++visits_[current].outstanding;
        fifo_[op.conn].push_back(id);
      }
      for (int c = 0; c < 2; ++c) {
        if (!flush(c)) return;
      }
      now = prvm::obs::now_ns();
      timespec timeout{0, 100'000'000};
      if (next < ops_.size() && ops_[next].visit == current) {
        const std::uint64_t due = visits_[current].start_ns + ops_[next].due_ns;
        const std::uint64_t wait = due > now ? due - now : 0;
        timeout.tv_sec = static_cast<time_t>(wait / 1'000'000'000);
        timeout.tv_nsec = static_cast<long>(wait % 1'000'000'000);
      }
      pollfd fds[2];
      for (int c = 0; c < 2; ++c) {
        fds[c] = {fds_[c], static_cast<short>(POLLIN | (out_[c].size() > out_sent_[c] ? POLLOUT : 0)),
                  0};
      }
      if (::ppoll(fds, 2, &timeout, nullptr) < 0 && errno != EINTR) {
        mismatch_ = std::string("ppoll failed: ") + std::strerror(errno);
        return;
      }
      for (int c = 0; c < 2; ++c) {
        if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        const ssize_t n = ::recv(fds_[c], buf, sizeof buf, MSG_DONTWAIT);
        if (n < 0 && (errno == EAGAIN || errno == EINTR)) continue;
        if (n <= 0) {
          mismatch_ = "connection " + std::to_string(c) + " closed with responses outstanding";
          return;
        }
        bytes_received_[c] += static_cast<std::size_t>(n);
        answered += drain(c, std::string_view(buf, static_cast<std::size_t>(n)));
      }
    }
  }

  /// Sends as much of connection `c`'s pending bytes as the socket takes
  /// without blocking; false when the connection is gone.
  bool flush(int c) {
    while (out_sent_[c] < out_[c].size()) {
      const ssize_t n = ::send(fds_[c], out_[c].data() + out_sent_[c], out_[c].size() - out_sent_[c],
                               MSG_DONTWAIT | MSG_NOSIGNAL);
      if (n > 0) {
        out_sent_[c] += static_cast<std::size_t>(n);
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return true;
      } else {
        mismatch_ = "connection " + std::to_string(c) + " closed while sending";
        return false;
      }
    }
    out_[c].clear();
    out_sent_[c] = 0;
    return true;
  }

  /// Decodes every complete response in `chunk` and settles it against the
  /// connection's FIFO; returns how many were settled.
  std::size_t drain(int c, std::string_view chunk) {
    const std::uint64_t now = prvm::obs::now_ns();
    std::size_t settled = 0;
    if (c == 0) {
      lines_.feed(chunk);
    } else {
      frames_.feed(chunk);
    }
    while (mismatch_.empty()) {
      std::optional<Response> response;
      if (c == 0) {
        auto frame = lines_.next();
        if (!frame.has_value()) break;
        response = prvm::parse_response(frame->line, nullptr);
      } else {
        auto frame = frames_.next();
        if (!frame.has_value()) break;
        if (frame->status == prvm::BinaryFrameBuffer::Status::kOk &&
            frame->kind == prvm::BinaryFrameKind::kResponse) {
          response = prvm::parse_binary_response(frame->payload, nullptr);
        }
      }
      if (fifo_[c].empty()) {
        mismatch_ = "connection " + std::to_string(c) + ": response with no request outstanding";
        break;
      }
      const std::uint32_t id = fifo_[c].front();
      fifo_[c].pop_front();
      settle(id, response, now);
      ++settled;
    }
    return settled;
  }

  /// Binds a VM to `op` at send time and encodes it for connection `c`.
  void encode(GenOp& op, int c, std::string& out, std::string* corpus_request) {
    std::pair<std::uint64_t, std::uint64_t> taken;
    if ((op.kind == Kind::kRelease || op.kind == Kind::kLookup) && !pool_.take(rng_, taken)) {
      op.kind = Kind::kPlace;  // never happens at saturation; keeps the op valid
    }
    if (op.kind == Kind::kUtil && !pool_.peek(rng_, op.vm)) op.kind = Kind::kPlace;
    Request request;
    switch (op.kind) {
      case Kind::kPlace:
        op.vm = next_vm_++;
        request = place_request(op.vm, op.type);
        break;
      case Kind::kRelease:
        op.vm = taken.first;
        request = release_request(op.vm);
        break;
      case Kind::kLookup:
        op.vm = taken.first;
        op.expect_pm = taken.second;
        request = lookup_request(op.vm);
        break;
      case Kind::kUtil:
        request.op = prvm::RequestOp::kUtil;
        request.vm_id = op.vm;
        request.cpu = 0.25 + 0.5 * rng_.uniform();
        break;
    }
    if (c == 0) {
      prvm::encode_request_into(request, out);
    } else {
      prvm::encode_binary_request_into(request, out);
    }
    if (corpus_request != nullptr) *corpus_request = prvm::encode_request(request);
  }

  /// Matches one response to its FIFO request and updates the pool.
  void settle(std::uint32_t id, const std::optional<Response>& response, std::uint64_t now) {
    GenOp& op = ops_[id];
    std::uint64_t expect_vm = op.vm;
    if (plan_.corrupt == "socket.fifo" && id == ops_.size() / 2) expect_vm += 1;
    if (!response.has_value() || response->op != op_name(op.kind) ||
        !response->vm.has_value() || *response->vm != expect_vm) {
      mismatch_ = "connection " + std::to_string(op.conn) + ": response " +
                  (response.has_value() ? response->op + " vm " +
                                              std::to_string(response->vm.value_or(0))
                                        : std::string("<undecodable>")) +
                  " does not match request " + op_name(op.kind) + " vm " +
                  std::to_string(expect_vm);
      return;
    }
    op.recv_ns = now;
    --visits_[op.visit].outstanding;
    op.ok = response->ok;
    op.failure = is_failure(*response) || (op.kind == Kind::kRelease && !response->ok);
    if (op.kind == Kind::kPlace && response->ok) pool_.add(op.vm, response->pm.value_or(0));
    if (op.kind == Kind::kLookup) {
      if (!response->ok || response->pm.value_or(~0ULL) != op.expect_pm) {
        mismatch_ = "lookup of vm " + std::to_string(op.vm) + " did not return its acked PM";
        return;
      }
      pool_.add(op.vm, op.expect_pm);
    }
    if (spans_ != nullptr) {
      spans_->add(op.kind == Kind::kUtil ? SpanName::kSocketUtil : SpanName::kSocketOp, id,
                  op.kind == Kind::kUtil ? op.send_ns : visits_[op.visit].start_ns + op.due_ns,
                  now);
    }
    if (!corpus_.empty() && !corpus_[id].first.empty()) {
      corpus_[id].second = prvm::encode_response(*response);
    }
  }

  /// Per visit: latency from due time, lateness, round trips, failures and
  /// the backlog left at the visit's end; its p50/p90/p99 are the medians of
  /// those percentiles over the visit's 100 ms windows. Per rung, written
  /// for the parent as "rung.<r>.<stat> <value>" lines: the latency
  /// percentiles of the best pass, everything else the median over passes.
  /// On a shared machine a host stall (vCPU steal, a noisy neighbour) spoils
  /// the windows and passes it hits for milliseconds at a time; the best
  /// pass is what the daemon does when the host leaves it alone. The median
  /// pass and the p99 pooled over every sample are written too.
  void summarize() {
    struct Stats {
      double ops = 0, achieved = 0, p50 = 0, p90 = 0, p99 = 0, failed = 0, backlog = 0, places_ok = 0,
             late_p50 = 0, late_p99 = 0, util_rtt_p50 = 0, worker_rtt_p50 = 0,
             worker_rtt_p99 = 0;
    };
    std::vector<std::vector<double>> lat(visits_.size()), late(visits_.size()),
        util_rtt(visits_.size()), worker_rtt(visits_.size());
    std::map<std::pair<std::size_t, std::size_t>, std::vector<double>> window_lat;
    std::vector<Stats> stats(visits_.size());
    std::vector<std::uint64_t> last_recv(visits_.size(), 0);
    std::uint64_t attempted = 0, failed = 0;
    for (const GenOp& op : ops_) {
      const Visit& visit = visits_[op.visit];
      Stats& st = stats[op.visit];
      const std::uint64_t due = visit.start_ns + op.due_ns;
      const std::uint64_t end = visit.start_ns + static_cast<std::uint64_t>(visit.length_s * 1e9);
      const std::uint64_t recv = op.recv_ns;
      lat[op.visit].push_back(static_cast<double>(recv - due) / 1e3);
      const auto window = static_cast<std::size_t>(
          static_cast<double>(op.due_ns) / 1e9 / kWindowSeconds);
      window_lat[{op.visit, window}].push_back(lat[op.visit].back());
      late[op.visit].push_back(static_cast<double>(op.send_ns - due) / 1e3);
      const double rtt = static_cast<double>(op.recv_ns - op.send_ns) / 1e3;
      (op.kind == Kind::kUtil ? util_rtt : worker_rtt)[op.visit].push_back(rtt);
      st.ops += 1;
      if (op.failure) st.failed += 1;
      if (due <= end && recv > end) st.backlog += 1;
      if (op.kind == Kind::kPlace && op.ok) st.places_ok += 1;
      last_recv[op.visit] = std::max(last_recv[op.visit], recv);
      ++attempted;
      if (op.failure) ++failed;
    }
    std::ofstream out(plan_.result_path);
    out.precision(17);
    std::vector<std::vector<Stats>> by_rung(plan_.rates.size());
    // Per visit: the median over its 100 ms windows of each percentile.
    std::vector<std::vector<double>> win_p50(visits_.size()), win_p90(visits_.size()),
        win_p99(visits_.size());
    for (const auto& [key, values] : window_lat) {
      win_p50[key.first].push_back(quantile(values, 0.50));
      win_p90[key.first].push_back(quantile(values, 0.90));
      win_p99[key.first].push_back(quantile(values, 0.99));
    }
    std::vector<std::vector<double>> pooled(plan_.rates.size());
    for (std::size_t v = 1; v < visits_.size(); ++v) {
      const Visit& visit = visits_[v];
      Stats& st = stats[v];
      const double span_s =
          std::max(visit.length_s, static_cast<double>(last_recv[v] - visit.start_ns) / 1e9);
      st.achieved = st.ops / span_s;
      st.places_ok /= visit.length_s;
      st.late_p50 = quantile(late[v], 0.50);
      st.late_p99 = quantile(late[v], 0.99);
      st.util_rtt_p50 = quantile(util_rtt[v], 0.50);
      st.worker_rtt_p50 = quantile(worker_rtt[v], 0.50);
      st.worker_rtt_p99 = quantile(worker_rtt[v], 0.99);
      st.p50 = median(win_p50[v]);
      st.p90 = median(win_p90[v]);
      st.p99 = median(win_p99[v]);
      by_rung[static_cast<std::size_t>(visit.rung)].push_back(st);
      pooled[static_cast<std::size_t>(visit.rung)].insert(
          pooled[static_cast<std::size_t>(visit.rung)].end(), lat[v].begin(), lat[v].end());
      const std::string k = "rung." + std::to_string(visit.rung) + ".pass." +
                            std::to_string(visit.pass) + ".";
      out << k << "start_ns " << visit.start_ns << '\n'
          << k << "end_ns " << visit.start_ns + static_cast<std::uint64_t>(visit.length_s * 1e9)
          << '\n'
          << k << "p99_us " << quantile(lat[v], 0.99) << '\n';
    }
    for (std::size_t r = 0; r < by_rung.size(); ++r) {
      const std::vector<Stats>& passes = by_rung[r];
      const auto values_of = [&](double Stats::*field) {
        std::vector<double> values;
        for (const Stats& st : passes) values.push_back(st.*field);
        return values;
      };
      const auto med = [&](double Stats::*field) { return median(values_of(field)); };
      const auto best = [&](double Stats::*field) {
        const std::vector<double> values = values_of(field);
        return *std::min_element(values.begin(), values.end());
      };
      double ops = 0, fails = 0;
      for (const Stats& st : passes) {
        ops += st.ops;
        fails += st.failed;
      }
      const std::string k = "rung." + std::to_string(r) + ".";
      out << k << "ops " << ops << '\n'
          << k << "failed " << fails << '\n'
          << k << "achieved " << med(&Stats::achieved) << '\n'
          << k << "p50_us " << best(&Stats::p50) << '\n'
          << k << "p90_us " << best(&Stats::p90) << '\n'
          << k << "p99_us " << best(&Stats::p99) << '\n'
          << k << "p50_median_pass_us " << med(&Stats::p50) << '\n'
          << k << "p99_median_pass_us " << med(&Stats::p99) << '\n'
          << k << "p99_pooled_us " << quantile(pooled[r], 0.99) << '\n'
          << k << "backlog " << med(&Stats::backlog) << '\n'
          << k << "visit_ops " << med(&Stats::ops) << '\n'
          << k << "places_ok_per_s " << med(&Stats::places_ok) << '\n'
          << k << "late_p50_us " << med(&Stats::late_p50) << '\n'
          << k << "late_p99_us " << med(&Stats::late_p99) << '\n'
          << k << "util_rtt_p50_us " << med(&Stats::util_rtt_p50) << '\n'
          << k << "worker_rtt_p50_us " << med(&Stats::worker_rtt_p50) << '\n'
          << k << "worker_rtt_p99_us " << med(&Stats::worker_rtt_p99) << '\n';
    }
    out << "attempted " << attempted << "\nfailed " << failed << '\n';
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    out << "generator_cpu_s "
        << static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
               static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) / 1e6
        << '\n';
    for (int c = 0; c < 2; ++c) {
      const double ops = static_cast<double>(std::max<std::size_t>(1, per_conn_[c]));
      out << (c == 0 ? "json" : "bin") << ".bytes_per_op "
          << static_cast<double>(bytes_sent_[c] + bytes_received_[c]) / ops << '\n';
    }
  }

  void write_corpus() {
    std::ofstream out(plan_.corpus_path);
    for (const auto& [request, response] : corpus_) {
      if (request.empty() || response.empty()) continue;
      out << request << response;  // both end in '\n'
    }
  }

  static constexpr double kWarmupSeconds = 0.5;
  static constexpr double kWindowSeconds = 0.1;

  Plan plan_;
  Tracer tracer_;
  SpanBuffer* spans_ = nullptr;
  prvm::Rng rng_{plan_.seed * 31 + 7};
  VmPool pool_;
  std::uint64_t next_vm_ = 1;
  std::vector<GenOp> ops_;
  struct Visit {
    int rung;          ///< -1 = warm-up
    std::size_t pass;
    double length_s;
    std::uint64_t start_ns = 0;     ///< set when the visit starts
    std::size_t outstanding = 0;    ///< sent, not yet answered
  };
  std::vector<Visit> visits_;
  std::size_t per_conn_[2] = {0, 0};
  int fds_[2] = {-1, -1};
  std::deque<std::uint32_t> fifo_[2];
  std::string out_[2];              ///< encoded requests not yet taken by the socket
  std::size_t out_sent_[2] = {0, 0};
  prvm::LineBuffer lines_{prvm::kMaxBinaryResponseBytes};
  prvm::BinaryFrameBuffer frames_{prvm::kMaxBinaryResponseBytes};
  std::size_t bytes_sent_[2] = {0, 0};
  std::size_t bytes_received_[2] = {0, 0};
  /// Traced runs: (request, response) JSON lines per op id, for the first
  /// corpus_ops ops of the nominal rung.
  std::vector<std::pair<std::string, std::string>> corpus_;
  std::size_t corpus_size_ = 0;
  std::string mismatch_;
};

}  // namespace

namespace {

std::map<std::string, double> read_summary(const std::filesystem::path& path) {
  std::map<std::string, double> out;
  std::ifstream in(path);
  std::string key;
  for (double value; in >> key >> value;) out[key] = value;
  return out;
}

/// Spawns the generator and waits for it, killing it past `deadline_s`;
/// calls `tick` every 20 ms while it runs.
int run_generator_process(const std::filesystem::path& plan_path, double deadline_s,
                          const std::function<void()>& tick) {
  std::string self = std::filesystem::read_symlink("/proc/self/exe").string();
  std::string flag = "--generator";
  std::string plan = plan_path.string();
  char* argv[] = {self.data(), flag.data(), plan.data(), nullptr};
  pid_t pid = 0;
  if (::posix_spawn(&pid, self.c_str(), nullptr, nullptr, argv, environ) != 0) {
    throw std::runtime_error("cannot spawn the generator");
  }
  const auto start = Clock::now();
  int status = 0;
  while (true) {
    const pid_t done = ::waitpid(pid, &status, WNOHANG);
    if (done == pid) break;
    if (seconds_since(start) > deadline_s) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &status, 0);
      throw std::runtime_error("generator did not finish in time");
    }
    tick();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128;
}

struct Stack {
  std::unique_ptr<prvm::PlacementService> service;
  std::unique_ptr<prvm::SocketServer> server;
  std::string socket_path;

  void stop() {
    if (server != nullptr) server->stop();
    server.reset();
    if (service != nullptr) service->stop_now();
  }
};

/// Service + socket server over `dir`, started and answering health.
Stack start_stack(const std::vector<std::size_t>& fleet,
                  const std::shared_ptr<const prvm::ScoreTableSet>& tables,
                  const std::filesystem::path& dir, const std::string& socket_path) {
  Stack stack;
  prvm::ServiceConfig config;
  config.data_dir = dir;
  config.metrics = std::make_shared<prvm::obs::Registry>();
  stack.service = std::make_unique<prvm::PlacementService>(catalog(), fleet, tables, config);
  stack.service->start();
  prvm::SocketServerConfig server_config;
  server_config.unix_path = socket_path;
  stack.server = std::make_unique<prvm::SocketServer>(*stack.service, server_config);
  stack.server->start();
  stack.socket_path = socket_path;
  health_over_socket(socket_path);
  return stack;
}

/// Codec replay of the recorded requests/responses: JSON and PRVB1 decode
/// and encode, interleaved ABAB, one span per batch. Returns ns per op for
/// (json decode, json encode, bin decode, bin encode).
std::array<double, 4> codec_replay(const std::filesystem::path& corpus_path, std::size_t rounds,
                                   SpanBuffer* spans, std::size_t& corpus_ops) {
  std::ifstream in(corpus_path);
  std::vector<std::string> request_lines;
  std::vector<Request> requests;
  std::vector<Response> responses;
  std::vector<std::string> bin_payloads;
  for (std::string req_line, resp_line; std::getline(in, req_line) && std::getline(in, resp_line);) {
    auto request = prvm::parse_request(req_line);
    auto response = prvm::parse_response(resp_line, nullptr);
    check(std::holds_alternative<Request>(request) && response.has_value(),
          "codec corpus holds an undecodable line");
    std::string frame;
    prvm::encode_binary_request_into(std::get<Request>(request), frame);
    bin_payloads.push_back(frame.substr(prvm::kBinaryHeaderBytes));
    request_lines.push_back(std::move(req_line));
    requests.push_back(std::get<Request>(std::move(request)));
    responses.push_back(std::move(*response));
  }
  corpus_ops = requests.size();
  check(corpus_ops > 0, "codec corpus is empty");
  const prvm::BinaryStringTable types;
  std::string out;
  std::array<std::uint64_t, 4> total_ns{};
  std::size_t sink = 0;
  const auto timed = [&](int slot, SpanName name, auto&& body) {
    const ScopedSpan span(spans, name);
    const std::uint64_t t0 = prvm::obs::now_ns();
    body();
    total_ns[static_cast<std::size_t>(slot)] += prvm::obs::now_ns() - t0;
  };
  for (std::size_t round = 0; round < rounds; ++round) {
    timed(0, SpanName::kJsonDecode, [&] {
      for (const std::string& line : request_lines) sink += prvm::parse_request(line).index();
    });
    timed(2, SpanName::kBinDecode, [&] {
      for (const std::string& payload : bin_payloads) {
        sink += prvm::parse_binary_request(payload, types).index();
      }
    });
    timed(1, SpanName::kJsonEncode, [&] {
      for (const Response& response : responses) {
        out.clear();
        prvm::encode_response_into(response, out);
        sink += out.size();
      }
    });
    timed(3, SpanName::kBinEncode, [&] {
      for (const Response& response : responses) {
        out.clear();
        prvm::encode_binary_response_into(response, out);
        sink += out.size();
      }
    });
  }
  check(sink > 0, "codec replay produced nothing");
  std::array<double, 4> per_op{};
  const double n = static_cast<double>(rounds * corpus_ops);
  for (std::size_t i = 0; i < 4; ++i) per_op[i] = static_cast<double>(total_ns[i]) / n;
  return per_op;
}

/// Fills `service` to saturation in-process (64 consecutive rejections),
/// 256 places in flight; returns acked placements per second.
double fill(prvm::PlacementService& service, std::uint64_t seed,
            std::vector<std::pair<std::uint64_t, std::uint64_t>>& live, std::uint64_t& next_vm,
            Report& report) {
  prvm::Rng rng(seed);
  const std::vector<double> mix = prvm::default_vm_mix(catalog());
  std::deque<std::pair<std::uint64_t, std::future<Response>>> inflight;
  std::size_t streak = 0;
  const auto start = Clock::now();
  const auto submit_place = [&] {
    const std::uint64_t vm = next_vm++;
    inflight.emplace_back(vm, service.submit(place_request(vm, rng.weighted_index(mix))));
  };
  for (std::size_t i = 0; i < 256; ++i) submit_place();
  while (!inflight.empty()) {
    auto [vm, future] = std::move(inflight.front());
    inflight.pop_front();
    const Response response = future.get();
    ++report.attempted;
    if (is_failure(response)) ++report.failed;
    if (response.ok) {
      live.emplace_back(vm, response.pm.value_or(0));
      streak = 0;
    } else {
      ++streak;
    }
    if (streak < 64) submit_place();
  }
  return ratio(static_cast<double>(live.size()), seconds_since(start));
}

}  // namespace

void run_socket_mixed(const Options& options, Tracer& tracer, Report& report) {
  const Params params = params_for(options);
  const std::vector<std::size_t> fleet = prvm::mixed_pm_fleet(catalog(), params.fleet);
  const double rung_seconds =
      options.seconds / (static_cast<double>(params.passes) *
                         (static_cast<double>(params.rates.size() - 1) + params.nominal_weight));
  report.param("fleet_pms", static_cast<double>(params.fleet));
  std::string rates = "[";
  for (std::size_t r = 0; r < params.rates.size(); ++r) {
    rates += (r > 0 ? ", " : "") + std::to_string(static_cast<long>(params.rates[r]));
  }
  report.param("ladder_ops_per_s", rates + "]");
  report.param("nominal_rate", params.rates[params.nominal]);
  report.param("passes", static_cast<double>(params.passes));
  report.param("visit_seconds", rung_seconds);
  report.param("nominal_visit_seconds", rung_seconds * params.nominal_weight);
  report.param("mix", "\"40% place, 40% release, 15% lookup, 5% util; 1 JSON + 1 PRVB1 connection\"");
  report.param("setup_reps", static_cast<double>(params.setup_reps));
  report.param("recovery_reps", static_cast<double>(params.recovery_reps));

  SpanBuffer* spans = tracer.buffer(4096);

  // --- set-up: cold tables + service + socket until a health answer ---
  std::shared_ptr<const prvm::ScoreTableSet> tables;
  Stack stack;
  std::filesystem::path data_dir;
  std::size_t rep = 0;
  run_setup_reps(params.setup_reps, [&] {
    stack.stop();
    stack.service.reset();
    const auto t0 = Clock::now();
    tables = cold_score_tables();
    const auto t1 = Clock::now();
    data_dir = options.run_dir / ("svc-" + std::to_string(rep));
    const ScopedSpan span(spans, SpanName::kServiceStart);
    stack = start_stack(fleet, tables, data_dir,
                        (options.run_dir / ("s" + std::to_string(rep++) + ".sock")).string());
    return std::make_pair(seconds_since(t0), seconds_since(t1));
  }, report);
  if (tracer.enabled()) report_core_layers(tracer, report);
  prvm::PlacementService& service = *stack.service;
  const prvm::obs::Registry& registry = service.metrics_registry();

  // --- fill to saturation in-process, fill_reps times: once on the served
  // service, the others on throwaway services between the recovery
  // repetitions (one burst of host interference cannot cover them all);
  // fill_pps is the median ---
  std::vector<std::pair<std::uint64_t, std::uint64_t>> live;
  std::uint64_t next_vm = 1;
  std::vector<double> fill_pps;
  std::size_t extra_fills = 0;
  const auto extra_fill = [&] {
    prvm::ServiceConfig config;
    config.data_dir = options.run_dir / ("fill-" + std::to_string(extra_fills++));
    config.metrics = std::make_shared<prvm::obs::Registry>();
    prvm::PlacementService throwaway(catalog(), fleet, tables, config);
    throwaway.start();
    std::vector<std::pair<std::uint64_t, std::uint64_t>> throwaway_live;
    std::uint64_t throwaway_next = 1;
    fill_pps.push_back(fill(throwaway, options.seed, throwaway_live, throwaway_next, report));
    throwaway.stop_now();
  };
  fill_pps.push_back(fill(service, options.seed, live, next_vm, report));
  report.param("fill_placements", static_cast<double>(live.size()));
  report.param("fill_reps", static_cast<double>(params.fill_reps));

  // --- the ladder, driven by the generator process ---
  Plan plan;
  plan.socket_path = stack.socket_path;
  plan.seed = options.seed;
  plan.rates = params.rates;
  plan.nominal = params.nominal;
  plan.nominal_weight = params.nominal_weight;
  plan.passes = params.passes;
  plan.rung_seconds = rung_seconds;
  plan.gap_seconds = params.gap_seconds;
  plan.trace = tracer.enabled();
  plan.next_vm = next_vm;
  plan.corpus_ops = params.corpus_ops;
  plan.live_path = (options.run_dir / "live.txt").string();
  plan.result_path = (options.run_dir / "result.txt").string();
  plan.corpus_path = (options.run_dir / "corpus.jsonl").string();
  plan.spans_path = (options.out_dir / ("spans-socket-mixed-1k-seed" + std::to_string(options.seed) +
                                        "-generator.bin")).string();
  plan.corrupt = options.corrupt;
  {
    std::ofstream out(plan.live_path);
    for (const auto& [vm, pm] : live) out << vm << ' ' << pm << '\n';
  }
  write_plan(plan, options.run_dir / "plan.txt");
  const auto wait0 = histogram_of(registry, "prvm_queue_wait_ns");
  const auto batch0 = histogram_of(registry, "prvm_batch_size");
  const auto compute0 = histogram_of(registry, "prvm_place_compute_ns");
  const auto flush0 = histogram_of(registry, "prvm_wal_flush_ns");
  const auto counter = [&](const char* name) { return counter_of(registry, name); };
  const std::uint64_t queue_full0 = counter("prvm_queue_rejected_total");
  const std::uint64_t rejected0 = counter("prvm_ops_rejected_total");
  const std::uint64_t lookups0 = counter("prvm_engine_score_lookups_total");
  const std::uint64_t probes0 = counter("prvm_engine_index_probes_total");
  const std::uint64_t hits0 = counter("prvm_engine_rep_cache_hits_total");
  const std::uint64_t misses0 = counter("prvm_engine_rep_cache_misses_total");
  const std::uint64_t calls0 = counter("prvm_engine_place_total");
  const std::uint64_t appends0 = counter("prvm_wal_appends_total");
  std::error_code ec;
  const std::uintmax_t wal0 = std::filesystem::file_size(data_dir / "wal.log", ec);

  // Service histograms sampled while the ladder runs, so the per-layer
  // numbers can be cut to the nominal rung's time window.
  struct Sample {
    std::uint64_t at_ns;
    prvm::obs::HistogramSnapshot wait, batch, compute, flush;
  };
  std::vector<Sample> samples;
  const auto take_sample = [&] {
    samples.push_back(Sample{prvm::obs::now_ns(), histogram_of(registry, "prvm_queue_wait_ns"),
                             histogram_of(registry, "prvm_batch_size"),
                             histogram_of(registry, "prvm_place_compute_ns"),
                             histogram_of(registry, "prvm_wal_flush_ns")});
  };
  const int code = run_generator_process(options.run_dir / "plan.txt",
                                         3.0 * options.seconds + 60.0,
                                         tracer.enabled() ? std::function<void()>(take_sample)
                                                          : std::function<void()>([] {}));
  check(code == 0, "generator exited with code " + std::to_string(code) +
                       " (a FIFO, op/vm or lookup check failed, see stderr)");
  std::map<std::string, double> g = read_summary(plan.result_path);
  const std::string nominal = "rung." + std::to_string(params.nominal) + ".";
  report.attempted += static_cast<std::uint64_t>(g["attempted"]);
  report.failed += static_cast<std::uint64_t>(g["failed"]);

  // slo_rate: highest rung meeting p99 <= 2 ms, failed <= 0.1 %, no backlog
  // (p99, backlog and achieved rate are medians over the passes).
  double slo_rate = 0.0;
  char line[256];
  report.note("ladder: rate ops/s | achieved | p50 us | p99 us (best pass) | p99 us (median "
              "pass) | p99 us (pooled) | failed | backlog | meets SLO");
  for (std::size_t r = 0; r < params.rates.size(); ++r) {
    const std::string k = "rung." + std::to_string(r) + ".";
    const double ops = g[k + "ops"];
    const bool meets = g[k + "p99_us"] <= kSloP99Us && g[k + "failed"] <= kSloFailed * ops &&
                       g[k + "backlog"] <= std::max(64.0, 0.01 * g[k + "visit_ops"]);
    if (meets) slo_rate = g[k + "achieved"];
    std::snprintf(line, sizeof line,
                  "  %8.0f | %8.0f | %7.1f | %7.1f | %7.1f | %8.1f | %6.0f | %7.0f | %s",
                  params.rates[r], g[k + "achieved"], g[k + "p50_us"], g[k + "p99_us"],
                  g[k + "p99_median_pass_us"], g[k + "p99_pooled_us"], g[k + "failed"],
                  g[k + "backlog"], meets ? "yes" : "no");
    report.note(line);
  }
  const double lat_p50 = g[nominal + "p50_us"];
  report.e2e("churn_pps", g[nominal + "places_ok_per_s"], "placements/s");
  report.e2e("lat_p50_us", lat_p50, "us");
  report.param("slo_rate", slo_rate);
  report.param("latency_samples_nominal", g[nominal + "ops"]);
  report.param("generator_cpu_s", g["generator_cpu_s"]);
  report.overhead_basis_name = "lat_p50_us";
  report.overhead_basis = lat_p50;

  const auto wait = histogram_delta(histogram_of(registry, "prvm_queue_wait_ns"), wait0);
  const auto batch = histogram_delta(histogram_of(registry, "prvm_batch_size"), batch0);
  const auto compute = histogram_delta(histogram_of(registry, "prvm_place_compute_ns"), compute0);
  const auto flush = histogram_delta(histogram_of(registry, "prvm_wal_flush_ns"), flush0);
  // Sample deltas over every visit of the nominal rung (traced runs only).
  prvm::obs::HistogramSnapshot nominal_wait, nominal_batch, nominal_compute, nominal_flush;
  for (std::size_t p = 0; p < params.passes; ++p) {
    const std::string k = nominal + "pass." + std::to_string(p) + ".";
    const Sample* first = nullptr;
    const Sample* last = nullptr;
    for (const Sample& sample : samples) {
      if (first == nullptr && sample.at_ns >= g[k + "start_ns"]) first = &sample;
      if (sample.at_ns <= g[k + "end_ns"]) last = &sample;
    }
    if (first == nullptr || last == nullptr || first >= last) continue;
    histogram_add(nominal_wait, histogram_delta(last->wait, first->wait));
    histogram_add(nominal_batch, histogram_delta(last->batch, first->batch));
    histogram_add(nominal_compute, histogram_delta(last->compute, first->compute));
    histogram_add(nominal_flush, histogram_delta(last->flush, first->flush));
  }
  const double queue_full = static_cast<double>(counter("prvm_queue_rejected_total") - queue_full0);
  const double rejected = static_cast<double>(counter("prvm_ops_rejected_total") - rejected0);
  const double calls = static_cast<double>(counter("prvm_engine_place_total") - calls0);
  const double lookups = static_cast<double>(counter("prvm_engine_score_lookups_total") - lookups0);
  const double probes = static_cast<double>(counter("prvm_engine_index_probes_total") - probes0);
  const double hits = static_cast<double>(counter("prvm_engine_rep_cache_hits_total") - hits0);
  const double misses = static_cast<double>(counter("prvm_engine_rep_cache_misses_total") - misses0);
  const double appends = static_cast<double>(counter("prvm_wal_appends_total") - appends0);
  const double wal_bytes =
      static_cast<double>(std::filesystem::file_size(data_dir / "wal.log", ec) - wal0);

  // --- hard stop, digest, timed recovery (service + socket until health) ---
  stack.stop();
  std::uint64_t digest = prvm::datacenter_state_digest(service.datacenter());
  const double vms_per_pm = ratio(static_cast<double>(service.datacenter().vm_count()),
                                  static_cast<double>(service.datacenter().used_count()));
  stack.service.reset();
  if (options.corrupt == "socket.digest") digest ^= 1;
  std::vector<double> recovery_s;
  for (std::size_t r = 0; r < params.recovery_reps; ++r) {
    if (r > 0 && extra_fills + 1 < params.fill_reps) extra_fill();
    const auto t0 = Clock::now();
    Stack restarted = [&] {
      const ScopedSpan span(spans, SpanName::kRecover);
      return start_stack(fleet, tables, data_dir,
                         (options.run_dir / ("r" + std::to_string(r) + ".sock")).string());
    }();
    recovery_s.push_back(seconds_since(t0));
    restarted.stop();
    check(prvm::datacenter_state_digest(restarted.service->datacenter()) == digest,
          "state digest after WAL recovery differs from the digest before stop_now()");
  }
  while (extra_fills + 1 < params.fill_reps) extra_fill();
  report.e2e("fill_pps", median(fill_pps), "placements/s");
  note_reps(report, "fill_pps reps", fill_pps);
  report.e2e("recovery_s", median(recovery_s), "s");
  note_reps(report, "recovery_s reps", recovery_s);
  report.e2e("ok_ratio", 1.0 - ratio(static_cast<double>(report.failed),
                                     static_cast<double>(report.attempted)), "fraction");
  report.e2e("vms_per_pm", vms_per_pm, "VMs/PM");
  report.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  if (!tracer.enabled()) return;

  // --- per-layer (traced run) ---
  report_not_exercised({{"cluster.live_buckets.first", "count"},
                        {"cluster.live_buckets.peak", "count"},
                        {"cluster.live_buckets.last", "count"}, {"cluster.remove_us.mean", "us"},
                        {"placement.place_us.mean", "us"},
                        {"placement.place_us.first_window", "us"},
                        {"placement.place_us.peak_window", "us"},
                        {"placement.fill_place_us.mean", "us"}, {"placement.reject_us.mean", "us"},
                        {"placement.engine_ceiling_pps", "placements/s"}},
                       "the bare-engine replay runs on churn-10k only", report);
  report.layer("placement.score_lookups_per_place", ratio(lookups, calls), "count");
  report.layer("placement.index_probes_per_place", ratio(probes, calls), "count");
  report.layer("placement.rep_cache_hit_ratio", ratio(hits, hits + misses), "fraction");

  const double ladder_ops = g["attempted"];
  report.layer("service.submit_to_ack_us.p50", g[nominal + "worker_rtt_p50_us"], "us");
  report.layer("service.submit_to_ack_us.p99", g[nominal + "worker_rtt_p99_us"], "us");
  const double wait_p50 = nominal_wait.quantile(0.50) / 1e3;
  report.layer("service.queue_wait_us.p50", wait_p50, "us");
  report.layer("service.queue_wait_us.p99", nominal_wait.quantile(0.99) / 1e3, "us");
  report.layer("service.batch_ops.mean", nominal_batch.mean(), "count");
  report.layer("service.compute_us_per_op", nominal_compute.mean() / 1e3, "us");
  report.layer("service.queue_full_ratio", ratio(queue_full, ladder_ops), "fraction");
  report.layer("service.admission_reject_ratio", ratio(rejected, calls), "fraction");
  // The visits add up to --seconds of offered load.
  report.layer("service.engine_share",
               ratio(static_cast<double>(compute.sum) / 1e9, options.seconds), "fraction");

  const double flush_p50 = nominal_flush.quantile(0.50) / 1e3;
  report.layer("wal.flush_us.p50", flush_p50, "us");
  report.layer("wal.flush_us.p99", nominal_flush.quantile(0.99) / 1e3, "us");
  report.layer("wal.flushes_per_1k_ops", ratio(static_cast<double>(flush.count), ladder_ops) * 1e3,
               "count");
  report.layer("wal.bytes_per_op", ratio(wal_bytes, appends), "bytes");
  const auto [read_s, read_records] =
      timed_wal_read(data_dir / "wal.log", options.run_dir / "wal-copy.log");
  report.layer("wal.read_s", read_s, "s");
  report.layer("wal.replay_records_per_s",
               ratio(static_cast<double>(read_records), median(recovery_s)), "records/s");

  std::size_t corpus_ops = 0;
  const std::array<double, 4> codec =
      codec_replay(plan.corpus_path, params.codec_rounds, spans, corpus_ops);
  report.layer("codec.json.decode_ns", codec[0], "ns");
  report.layer("codec.json.encode_ns", codec[1], "ns");
  report.layer("codec.json.bytes_per_op", g["json.bytes_per_op"], "bytes");
  report.layer("codec.bin.decode_ns", codec[2], "ns");
  report.layer("codec.bin.encode_ns", codec[3], "ns");
  report.layer("codec.bin.bytes_per_op", g["bin.bytes_per_op"], "bytes");
  report.param("codec_corpus_ops", static_cast<double>(corpus_ops));
  const double util_rtt = g[nominal + "util_rtt_p50_us"];
  report.layer("socket.util_rtt_us.p50", util_rtt, "us");
  report.layer("gen.late_us.p99", g[nominal + "late_p99_us"], "us");
  report_not_exercised({{"router.place_us.p50", "us"}, {"router.grouped_place_us.p50", "us"},
                        {"router.grouped_place_us.p99", "us"}, {"router.hop_us", "us"},
                        {"router.spillover_ratio", "fraction"},
                        {"router.compensation_ratio", "fraction"},
                        {"router.group_abort_ratio", "fraction"}, {"cells.imbalance", "ratio"}},
                       "single service, no router", report);
  report.layer("tail.lat_p90_us", g[nominal + "p90_us"], "us");
  report.layer("tail.lat_p99_us", g[nominal + "p99_us"], "us");
  report.layer("slo_rate", slo_rate, "ops/s");
  report.layer("failed_ratio", ratio(static_cast<double>(report.failed),
                                     static_cast<double>(report.attempted)), "fraction");

  // Reconciliation: a worker-path op = generator lateness + the transport
  // and codec floor (the util round trip, which skips the worker queue) +
  // queue wait + its batch's compute + the batch's WAL flush. The layer
  // figures cover every nominal visit, so the reference is the median
  // pass's p50, not the best pass's (lat_p50_us).
  const double late_p50 = g[nominal + "late_p50_us"];
  const double batch_us = nominal_batch.mean() * nominal_compute.mean() / 1e3;
  const double layers = late_p50 + util_rtt + wait_p50 + batch_us + flush_p50;
  const double e2e_p50 = g[nominal + "p50_median_pass_us"];
  const double gap_pct = ratio(e2e_p50 - layers, e2e_p50) * 100.0;
  report.layer("reconcile.e2e_us", e2e_p50, "us");
  report.layer("reconcile.layers_us", layers, "us");
  report.layer("reconcile.gap_pct", gap_pct, "%");
  report.note("reconciliation vs the nominal rung's median-pass p50 (socket-mixed-1k):");
  std::snprintf(line, sizeof line, "  generator lateness p50    %10.2f us", late_p50);
  report.note(line);
  std::snprintf(line, sizeof line, "  transport+codec (util)    %10.2f us", util_rtt);
  report.note(line);
  std::snprintf(line, sizeof line, "  queue wait p50            %10.2f us", wait_p50);
  report.note(line);
  std::snprintf(line, sizeof line, "  batch compute             %10.2f us  (%.2f ops x %.2f us)",
                batch_us, nominal_batch.mean(), nominal_compute.mean() / 1e3);
  report.note(line);
  std::snprintf(line, sizeof line, "  WAL flush p50             %10.2f us", flush_p50);
  report.note(line);
  std::snprintf(line, sizeof line, "  sum of layers             %10.2f us", layers);
  report.note(line);
  std::snprintf(line, sizeof line, "  p50, median pass          %10.2f us", e2e_p50);
  report.note(line);
  std::snprintf(line, sizeof line, "  gap %.1f%% %s: %s", gap_pct,
                std::abs(gap_pct) <= 10.0 ? "(within 10%)" : "(beyond 10%)",
                gap_pct >= 0.0
                    ? "worker wake-up, ack future resolution and the socket writer thread "
                      "are not spanned from outside src/"
                    : "the layers overlap: the util round trip already holds the server's "
                      "read, decode and write, which a worker-path op pays once");
  report.note(line);
}

int run_socket_generator(const std::string& plan_path) {
  try {
    return Generator(read_plan(plan_path)).run();
  } catch (const std::exception& error) {
    std::fprintf(stderr, "generator: %s\n", error.what());
    return 2;
  }
}

}  // namespace bench
