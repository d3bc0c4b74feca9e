#include "service/socket_server.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <filesystem>

#include "common/check.hpp"
#include "service/binary_protocol.hpp"

namespace prvm {

struct SocketServer::Connection {
  int fd = -1;
  std::thread reader;
  std::thread writer;
  /// Wire protocol, set by the reader's preamble sniff before the first
  /// response is enqueued; the writer picks its encoder off this.
  std::atomic<bool> binary{false};

  // Bounded in-order pipeline of response futures, reader -> writer.
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::future<Response>> pipeline;
  bool closed = false;  ///< reader finished; writer drains and exits
};

namespace {

/// Vectored write of a whole response burst: sendmsg is writev with
/// MSG_NOSIGNAL, so a dead peer surfaces as an error instead of SIGPIPE.
/// Advances the iovec array across partial writes.
void writev_all(int fd, ::iovec* iov, std::size_t count) {
  while (count > 0) {
    ::msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = count;
    const ::ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n <= 0) return;  // peer went away; reader will notice EOF too
    std::size_t left = static_cast<std::size_t>(n);
    while (count > 0 && left >= iov->iov_len) {
      left -= iov->iov_len;
      ++iov;
      --count;
    }
    if (count > 0 && left > 0) {
      iov->iov_base = static_cast<char*>(iov->iov_base) + left;
      iov->iov_len -= left;
    }
  }
}

std::future<Response> ready_response(Response response) {
  std::promise<Response> promise;
  promise.set_value(std::move(response));
  return promise.get_future();
}

Response protocol_error_response(const ProtocolError& error) {
  Response response;
  response.ok = false;
  response.error = error.code;
  response.message = error.message;
  return response;
}

}  // namespace

SocketServer::SocketServer(RequestSink& service, SocketServerConfig config)
    : service_(service), config_(std::move(config)) {}

SocketServer::~SocketServer() { stop(); }

void SocketServer::start() {
  PRVM_REQUIRE(listen_fd_ < 0, "server already started");
  if (!config_.unix_path.empty()) {
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    PRVM_REQUIRE(listen_fd_ >= 0, "cannot create unix socket");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    PRVM_REQUIRE(config_.unix_path.size() < sizeof(addr.sun_path),
                 "unix socket path too long");
    std::strncpy(addr.sun_path, config_.unix_path.c_str(), sizeof(addr.sun_path) - 1);
    ::unlink(config_.unix_path.c_str());  // stale socket from a previous run
    PRVM_REQUIRE(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0,
                 "cannot bind " + config_.unix_path);
  } else {
    PRVM_REQUIRE(config_.tcp_port >= 0, "no unix path and no TCP port configured");
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    PRVM_REQUIRE(listen_fd_ >= 0, "cannot create TCP socket");
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(config_.tcp_port));
    PRVM_REQUIRE(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0,
                 "cannot bind TCP port " + std::to_string(config_.tcp_port));
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
    port_ = ntohs(bound.sin_port);
  }
  PRVM_REQUIRE(::listen(listen_fd_, config_.backlog) == 0, "listen failed");
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void SocketServer::accept_loop() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // listener closed during stop()
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));  // no-op on UDS

    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      ::close(fd);
      return;
    }
    auto connection = std::make_unique<Connection>();
    Connection* raw = connection.get();
    raw->fd = fd;
    connections_.push_back(std::move(connection));
    raw->reader = std::thread([this, raw] { serve_connection(raw); });
  }
}

void SocketServer::enqueue(Connection* connection, std::future<Response> response) {
  const std::size_t max_pipeline = std::max<std::size_t>(1, config_.max_pipeline);
  std::unique_lock<std::mutex> lock(connection->mu);
  connection->cv.wait(lock, [&] { return connection->pipeline.size() < max_pipeline; });
  connection->pipeline.push_back(std::move(response));
  connection->cv.notify_all();
}

void SocketServer::serve_connection(Connection* connection) {
  connection->writer = std::thread([connection] {
    // Gather a burst of responses and ship it with one vectored sendmsg.
    // Each response encodes into its own reused buffer from a fixed pool;
    // the iovec array hands the whole burst to the kernel at once, so under
    // pipelined load N per-response syscalls (and N allocations) collapse
    // into a single syscall and zero steady-state allocations.
    constexpr std::size_t kMaxBurstBytes = 256 * 1024;
    constexpr std::size_t kMaxBurstResponses = 64;
    std::vector<std::string> bufs(kMaxBurstResponses);
    std::vector<::iovec> iov(kMaxBurstResponses);
    while (true) {
      std::future<Response> next;
      {
        std::unique_lock<std::mutex> lock(connection->mu);
        connection->cv.wait(lock, [connection] {
          return !connection->pipeline.empty() || connection->closed;
        });
        if (connection->pipeline.empty()) return;  // closed and drained
        next = std::move(connection->pipeline.front());
        connection->pipeline.pop_front();
      }
      connection->cv.notify_all();  // reader may be blocked on the cap
      const bool binary = connection->binary.load(std::memory_order_relaxed);
      std::size_t count = 0;
      std::size_t bytes = 0;
      const auto gather = [&](Response response) {
        std::string& buf = bufs[count];
        buf.clear();
        if (binary) {
          encode_binary_response_into(response, buf);
        } else {
          encode_response_into(response, buf);
        }
        bytes += buf.size();
        ++count;
      };
      gather(next.get());
      // Opportunistically coalesce responses that are already resolved; the
      // moment one would block (or the burst is full), send.
      while (count < kMaxBurstResponses && bytes < kMaxBurstBytes) {
        std::future<Response> more;
        {
          std::lock_guard<std::mutex> lock(connection->mu);
          if (connection->pipeline.empty()) break;
          if (connection->pipeline.front().wait_for(std::chrono::seconds(0)) !=
              std::future_status::ready) {
            break;
          }
          more = std::move(connection->pipeline.front());
          connection->pipeline.pop_front();
        }
        connection->cv.notify_all();
        gather(more.get());
      }
      for (std::size_t i = 0; i < count; ++i) {
        iov[i].iov_base = bufs[i].data();
        iov[i].iov_len = bufs[i].size();
      }
      writev_all(connection->fd, iov.data(), count);
    }
  });

  // Sniff the protocol off the connection's first bytes: only a PRVB1
  // client starts with 'P' (JSON-lines requests lead with '{' or
  // whitespace), and only the exact 5-byte preamble selects binary — a
  // mismatch falls back to the JSON path, where it reports as bad_json.
  char buf[64 * 1024];
  std::string prefix;
  bool binary = false;
  bool eof = false;
  while (true) {
    const ::ssize_t n = ::recv(connection->fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      eof = true;
      break;
    }
    prefix.append(buf, static_cast<std::size_t>(n));
    if (prefix[0] != kBinaryPreamble[0]) break;
    if (prefix.size() >= sizeof(kBinaryPreamble)) {
      if (std::memcmp(prefix.data(), kBinaryPreamble, sizeof(kBinaryPreamble)) == 0) {
        binary = true;
        prefix.erase(0, sizeof(kBinaryPreamble));
      }
      break;
    }
  }
  if (!eof) {
    connection->binary.store(binary, std::memory_order_relaxed);
    if (binary) {
      serve_binary(connection, prefix);
    } else {
      serve_json(connection, prefix);
    }
  }

  {
    std::lock_guard<std::mutex> lock(connection->mu);
    connection->closed = true;
  }
  connection->cv.notify_all();
  connection->writer.join();
  ::shutdown(connection->fd, SHUT_RDWR);
}

void SocketServer::serve_json(Connection* connection, std::string_view initial) {
  LineBuffer frames(config_.max_frame);
  char buf[64 * 1024];
  std::string_view chunk = initial;
  while (true) {
    frames.feed(chunk);
    while (const auto frame = frames.next()) {
      if (!frame->oversized && frame->line.empty()) continue;  // ignore blank lines
      std::future<Response> response;
      if (frame->oversized) {
        response = ready_response(protocol_error_response(
            ProtocolError{"oversized_frame", "request exceeds frame size limit"}));
      } else {
        auto parsed = parse_request(frame->line);
        if (auto* error = std::get_if<ProtocolError>(&parsed)) {
          response = ready_response(protocol_error_response(*error));
        } else {
          response = service_.submit(std::get<Request>(std::move(parsed)));
        }
      }
      enqueue(connection, std::move(response));
    }
    const ::ssize_t n = ::recv(connection->fd, buf, sizeof(buf), 0);
    if (n <= 0) return;
    chunk = std::string_view(buf, static_cast<std::size_t>(n));
  }
}

void SocketServer::serve_binary(Connection* connection, std::string_view initial) {
  BinaryFrameBuffer frames(config_.max_frame);
  BinaryStringTable types;
  char buf[64 * 1024];
  std::string_view chunk = initial;
  while (true) {
    frames.feed(chunk);
    while (const auto frame = frames.next()) {
      std::future<Response> response;
      if (frame->status != BinaryFrameBuffer::Status::kOk) {
        response = ready_response(protocol_error_response(binary_frame_error(frame->status)));
      } else if (frame->kind == BinaryFrameKind::kIntern) {
        // One-way: consumes no response slot. A damaged or over-cap intern
        // is dropped; the next request referencing the slot reports
        // bad_field in its own order slot.
        if (const auto intern = parse_intern(frame->payload)) {
          types.install(intern->first, intern->second);
        }
        continue;
      } else if (frame->kind != BinaryFrameKind::kRequest) {
        response = ready_response(protocol_error_response(
            ProtocolError{"bad_frame", "unexpected frame kind from a client"}));
      } else {
        // Decodes straight out of the frame buffer: the payload view is
        // borrowed, only the Request's own fields are materialized.
        auto parsed = parse_binary_request(frame->payload, types);
        if (auto* error = std::get_if<ProtocolError>(&parsed)) {
          response = ready_response(protocol_error_response(*error));
        } else {
          response = service_.submit(std::get<Request>(std::move(parsed)));
        }
      }
      enqueue(connection, std::move(response));
    }
    const ::ssize_t n = ::recv(connection->fd, buf, sizeof(buf), 0);
    if (n <= 0) return;
    chunk = std::string_view(buf, static_cast<std::size_t>(n));
  }
}

void SocketServer::stop() {
  std::vector<std::unique_ptr<Connection>> connections;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    stopping_ = true;
    connections.swap(connections_);
  }
  // shutdown() wakes the blocked accept(); the fd is closed and reset only
  // after the accept thread is joined, so that thread never reads a
  // changing listen_fd_ or accepts on a number the process already reused.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  for (auto& connection : connections) {
    ::shutdown(connection->fd, SHUT_RDWR);  // unblocks the reader's recv
  }
  for (auto& connection : connections) {
    if (connection->reader.joinable()) connection->reader.join();
    ::close(connection->fd);
  }
  if (!config_.unix_path.empty()) ::unlink(config_.unix_path.c_str());
}

}  // namespace prvm
