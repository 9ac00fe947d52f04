#include "http_client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cstddef>
#include <string_view>

#include "bench.hpp"

namespace rfidbench {

namespace {

/// Connected socket to 127.0.0.1:port with a 10 s receive timeout, or -1.
int connect_local(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  timeval timeout{};
  timeout.tv_sec = 10;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                sizeof(address)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_get(int fd, const std::string& path) {
  const std::string request =
      "GET " + path + " HTTP/1.1\r\nHost: rfidbench\r\n\r\n";
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// Status code of an "HTTP/1.1 200 OK" line, or 0.
int parse_status(std::string_view response) {
  const std::size_t space = response.find(' ');
  if (space == std::string_view::npos || space + 4 > response.size()) return 0;
  int status = 0;
  for (std::size_t i = space + 1; i < space + 4; ++i) {
    const char c = response[i];
    if (c < '0' || c > '9') return 0;
    status = status * 10 + (c - '0');
  }
  return status;
}

}  // namespace

HttpReply http_get(std::uint16_t port, const std::string& path) {
  HttpReply reply;
  const Clock::time_point start = Clock::now();
  const int fd = connect_local(port);
  if (fd < 0) return reply;
  reply.connect_s = seconds_between(start, Clock::now());
  if (!send_get(fd, path)) {
    ::close(fd);
    return reply;
  }
  std::string response;
  char buffer[16384];
  for (;;) {
    const ssize_t got = ::recv(fd, buffer, sizeof(buffer), 0);
    if (got <= 0) break;
    response.append(buffer, static_cast<std::size_t>(got));
  }
  ::close(fd);
  reply.status = parse_status(response);
  reply.ok = reply.status != 0;
  const std::size_t body = response.find("\r\n\r\n");
  if (body != std::string::npos) reply.body = response.substr(body + 4);
  return reply;
}

bool read_sse_snapshots(std::uint16_t port, const std::string& path,
                        std::atomic<std::uint64_t>& snapshots) {
  const int fd = connect_local(port);
  if (fd < 0) return false;
  if (!send_get(fd, path)) {
    ::close(fd);
    return false;
  }
  static constexpr std::string_view kFrame = "event: snapshot\n";
  std::string pending;  // unscanned tail that may hold a split frame marker
  bool header_seen = false;
  bool status_ok = false;
  char buffer[65536];
  for (;;) {
    const ssize_t got = ::recv(fd, buffer, sizeof(buffer), 0);
    if (got <= 0) break;
    pending.append(buffer, static_cast<std::size_t>(got));
    if (!header_seen) {
      const std::size_t end = pending.find("\r\n\r\n");
      if (end == std::string::npos) continue;
      header_seen = true;
      status_ok = parse_status(pending) == 200;
      if (!status_ok) break;
      pending.erase(0, end + 4);
    }
    std::size_t at = 0;
    while ((at = pending.find(kFrame, at)) != std::string::npos) {
      snapshots.fetch_add(1, std::memory_order_relaxed);
      at += kFrame.size();
    }
    // Keep only a tail shorter than the marker: it may be a marker's prefix.
    if (pending.size() >= kFrame.size())
      pending.erase(0, pending.size() - (kFrame.size() - 1));
  }
  ::close(fd);
  return status_ok;
}

}  // namespace rfidbench
