#include "serve/http.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <system_error>

namespace rfid::serve {

namespace {

std::string_view status_text(int status) noexcept {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 408:
      return "Request Timeout";
    case 431:
      return "Request Header Fields Too Large";
    case 503:
      return "Service Unavailable";
    default:
      return "Internal Server Error";
  }
}

void set_timeout(int fd, int option, unsigned timeout_ms) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout_ms / 1000);
  tv.tv_usec = static_cast<suseconds_t>((timeout_ms % 1000) * 1000);
  ::setsockopt(fd, SOL_SOCKET, option, &tv, sizeof(tv));
}

/// Sends the whole buffer; false on any error (peer gone, timeout,
/// shutdown). MSG_NOSIGNAL keeps a closed peer from raising SIGPIPE.
bool send_all(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t sent = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (sent <= 0) {
      if (sent < 0 && errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(sent));
  }
  return true;
}

enum class ReadHeadResult : std::uint8_t {
  kOk,
  kDisconnected,  ///< peer closed or reset before finishing the head
  kTimeout,       ///< SO_RCVTIMEO expired mid-head (stalled client)
  kTooLarge,      ///< byte or recv-count cap exceeded (slow loris / abuse)
};

/// Reads until the end of the request head ("\r\n\r\n"), bounded by both
/// the byte cap and the recv-call cap. The recv cap is what defeats a
/// slow-loris client that drips one byte per almost-timed-out recv: the
/// worker is pinned for at most max_reads * recv_timeout, independent of
/// how many bytes the byte cap would still allow.
ReadHeadResult read_request_head(int fd, const HttpServer::Config& config,
                                 std::string& head) {
  char buffer[1024];
  std::size_t reads = 0;
  while (head.find("\r\n\r\n") == std::string::npos) {
    if (head.size() >= config.max_request_bytes ||
        reads >= config.max_request_reads)
      return ReadHeadResult::kTooLarge;
    const ssize_t got = ::recv(fd, buffer, sizeof(buffer), 0);
    if (got <= 0) {
      if (got < 0 && errno == EINTR) continue;
      if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
        return ReadHeadResult::kTimeout;
      return ReadHeadResult::kDisconnected;
    }
    ++reads;
    head.append(buffer, static_cast<std::size_t>(got));
  }
  return ReadHeadResult::kOk;
}

/// Parses the request line ("GET /path?query HTTP/1.1"). Returns false on
/// anything malformed; headers beyond the request line are ignored.
bool parse_request(const std::string& head, HttpRequest& request) {
  const std::size_t line_end = head.find("\r\n");
  if (line_end == std::string::npos) return false;
  const std::string_view line(head.data(), line_end);

  const std::size_t method_end = line.find(' ');
  if (method_end == std::string_view::npos) return false;
  const std::size_t target_end = line.find(' ', method_end + 1);
  if (target_end == std::string_view::npos) return false;

  request.method = std::string(line.substr(0, method_end));
  std::string_view target =
      line.substr(method_end + 1, target_end - method_end - 1);
  if (target.empty() || target.front() != '/') return false;

  const std::size_t query_at = target.find('?');
  if (query_at == std::string_view::npos) {
    request.path = std::string(target);
    request.query.clear();
  } else {
    request.path = std::string(target.substr(0, query_at));
    request.query = std::string(target.substr(query_at + 1));
  }
  return true;
}

std::string response_head(int status, std::string_view content_type,
                          std::size_t content_length) {
  std::string head = "HTTP/1.1 ";
  head += std::to_string(status);
  head += ' ';
  head += status_text(status);
  head += "\r\nContent-Type: ";
  head += content_type;
  head += "\r\nContent-Length: ";
  head += std::to_string(content_length);
  head += "\r\nCache-Control: no-cache\r\nConnection: close\r\n\r\n";
  return head;
}

void send_response(int fd, const HttpResponse& response, bool head_only) {
  std::string payload =
      response_head(response.status, response.content_type,
                    response.body.size());
  if (!head_only) payload += response.body;
  send_all(fd, payload);
}

void send_error(int fd, int status, std::string_view message,
                bool head_only) {
  HttpResponse response;
  response.status = status;
  response.body = R"({"error":")";
  response.body += message;
  response.body += "\"}";
  send_response(fd, response, head_only);
}

/// StreamWriter bound to one connection socket. Failure is sticky and the
/// server's stopping flag ends the stream from the handler's side even
/// when the socket itself would still accept bytes.
class SocketStreamWriter final : public StreamWriter {
 public:
  SocketStreamWriter(int fd, const std::atomic<bool>& stopping)
      : fd_(fd), stopping_(stopping) {}

  bool write(std::string_view data) override {
    if (!alive()) return false;
    if (!send_all(fd_, data)) {
      failed_ = true;
      return false;
    }
    return true;
  }

  [[nodiscard]] bool alive() const override {
    return !failed_ && !stopping_.load(std::memory_order_acquire);
  }

 private:
  int fd_;
  const std::atomic<bool>& stopping_;
  bool failed_ = false;
};

}  // namespace

HttpServer::HttpServer() : HttpServer(Config{}) {}

HttpServer::HttpServer(Config config) : config_(std::move(config)) {}

HttpServer::~HttpServer() { stop(); }

void HttpServer::route(std::string path, Handler handler) {
  if (started_.load(std::memory_order_acquire))
    throw std::logic_error("HttpServer: route() after start()");
  handlers_.emplace_back(std::move(path), std::move(handler));
}

void HttpServer::route_stream(std::string path, StreamHandler handler) {
  if (started_.load(std::memory_order_acquire))
    throw std::logic_error("HttpServer: route_stream() after start()");
  stream_handlers_.emplace_back(std::move(path), std::move(handler));
}

void HttpServer::start() {
  if (started_.exchange(true, std::memory_order_acq_rel))
    throw std::logic_error("HttpServer: start() twice");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0)
    throw std::system_error(errno, std::generic_category(), "socket");

  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &address.sin_addr) !=
      1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::invalid_argument("HttpServer: bad bind address " +
                                config_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&address),
             sizeof(address)) != 0 ||
      ::listen(listen_fd_, config_.backlog) != 0) {
    const int saved = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::system_error(saved, std::generic_category(), "bind/listen");
  }

  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0)
    port_ = ntohs(bound.sin_port);

  acceptor_ = std::thread([this] { accept_loop(); });
}

void HttpServer::stop() {
  if (!started_.load(std::memory_order_acquire)) return;
  if (stopping_.exchange(true, std::memory_order_acq_rel)) {
    // A second caller still waits for the acceptor to be joined by the
    // first; joining a joined thread is UB, so only the winner joins.
    return;
  }

  // shutdown() unblocks the acceptor's accept(); close() alone does not
  // reliably do that on Linux. The descriptor is closed and reset only
  // after the join: the acceptor reads listen_fd_ until it exits.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }

  std::vector<std::unique_ptr<Connection>> to_join;
  {
    const MutexLock lock(mutex_);
    to_join.swap(connections_);
  }
  for (auto& connection : to_join) {
    // Unblocks any in-flight recv/send inside the worker.
    ::shutdown(connection->fd, SHUT_RDWR);
  }
  for (auto& connection : to_join) {
    if (connection->worker.joinable()) connection->worker.join();
    ::close(connection->fd);
  }
}

void HttpServer::reap_finished() {
  const MutexLock lock(mutex_);
  std::erase_if(connections_, [](const std::unique_ptr<Connection>& c) {
    if (!c->done.load(std::memory_order_acquire)) return false;
    if (c->worker.joinable()) c->worker.join();
    ::close(c->fd);
    return true;
  });
}

void HttpServer::accept_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    sockaddr_in peer{};
    socklen_t peer_len = sizeof(peer);
    const int fd = ::accept(listen_fd_, reinterpret_cast<sockaddr*>(&peer),
                            &peer_len);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener shut down (stop()) or unrecoverable
    }
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      break;
    }

    set_timeout(fd, SO_RCVTIMEO, config_.recv_timeout_ms);
    set_timeout(fd, SO_SNDTIMEO, config_.send_timeout_ms);

    reap_finished();
    {
      const MutexLock lock(mutex_);
      if (connections_.size() >= config_.max_connections) {
        send_error(fd, 503, "too many connections", false);
        ::close(fd);
        continue;
      }
      auto connection = std::make_unique<Connection>();
      connection->fd = fd;
      Connection* raw = connection.get();
      connections_.push_back(std::move(connection));
      raw->worker = std::thread([this, raw] { serve_connection(*raw); });
    }
  }
}

void HttpServer::serve_connection(Connection& connection) {
  const int fd = connection.fd;
  std::string head;
  HttpRequest request;
  const ReadHeadResult read_result = read_request_head(fd, config_, head);
  if (read_result == ReadHeadResult::kTooLarge) {
    send_error(fd, 431, "request head too large", false);
  } else if (read_result == ReadHeadResult::kTimeout) {
    send_error(fd, 408, "timed out reading request", false);
  } else if (read_result == ReadHeadResult::kDisconnected) {
    // Peer is gone; nothing to send.
  } else if (!parse_request(head, request)) {
    send_error(fd, 400, "malformed request", false);
  } else if (request.method != "GET" && request.method != "HEAD") {
    send_error(fd, 405, "only GET is supported", request.method == "HEAD");
  } else {
    const bool head_only = request.method == "HEAD";
    bool handled = false;
    for (const auto& [path, handler] : stream_handlers_) {
      if (path != request.path) continue;
      handled = true;
      if (head_only) {
        send_all(fd, response_head(200, "text/event-stream", 0));
        break;
      }
      if (send_all(fd,
                   "HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\n"
                   "Cache-Control: no-cache\r\nConnection: close\r\n\r\n")) {
        SocketStreamWriter writer(fd, stopping_);
        handler(request, writer);
      }
      break;
    }
    if (!handled) {
      for (const auto& [path, handler] : handlers_) {
        if (path != request.path) continue;
        handled = true;
        send_response(fd, handler(request), head_only);
        break;
      }
    }
    if (!handled) send_error(fd, 404, "no such route", head_only);
  }
  ::shutdown(fd, SHUT_RDWR);
  // The acceptor (reap_finished) or stop() joins the thread and closes fd.
  connection.done.store(true, std::memory_order_release);
}

}  // namespace rfid::serve
