// Tests for the live telemetry service: the streaming aggregator's
// backpressure contract (bounded drop-oldest queues that never block the
// publisher) and the HTTP/SSE server end to end over real sockets —
// /healthz, /metrics.json, /events, the embedded dashboard, concurrent
// clients, and graceful shutdown.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/stream.hpp"
#include "serve/http.hpp"
#include "serve/telemetry_service.hpp"

namespace rfid {
namespace {

using obs::StreamingAggregator;
using obs::StreamSubscription;

obs::Metrics metrics_with_rounds(std::uint64_t rounds) {
  obs::Metrics metrics;
  metrics.rounds = rounds;
  metrics.polls = rounds * 3;
  metrics.time_us = static_cast<double>(rounds) * 10.0;
  return metrics;
}

// --- StreamSubscription: the bounded drop-oldest contract -------------------

TEST(Stream, SubscriptionDropsOldestAndCountsIt) {
  StreamingAggregator aggregator(1);
  const auto subscription = aggregator.subscribe(3);
  for (std::uint64_t i = 1; i <= 8; ++i) {
    aggregator.update_reader(0, metrics_with_rounds(i), 0.0);
    (void)aggregator.publish(0.1);
  }
  // Capacity 3: the 5 oldest snapshots were dropped, newest 3 retained.
  EXPECT_EQ(subscription->dropped(), 5u);
  std::vector<std::uint64_t> sequences;
  while (auto item = subscription->poll()) {
    ASSERT_EQ(item->type, StreamSubscription::Item::Type::kSnapshot);
    sequences.push_back(item->snapshot->sequence);
  }
  EXPECT_EQ(sequences, (std::vector<std::uint64_t>{6, 7, 8}));
}

TEST(Stream, StalledSubscriberNeverBlocksThePublisher) {
  StreamingAggregator aggregator(1);
  // A stalled consumer: subscribed, tiny queue, never drains.
  const auto stalled = aggregator.subscribe(1);
  const auto healthy = aggregator.subscribe(64);

  // If push() could block on a full queue this loop would hang (the test
  // timeout would catch it); instead it must stay fast and lossy.
  const auto start = std::chrono::steady_clock::now();
  constexpr std::uint64_t kPublishes = 500;
  for (std::uint64_t i = 1; i <= kPublishes; ++i) {
    aggregator.update_reader(0, metrics_with_rounds(i), 0.0);
    (void)aggregator.publish(0.01);
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(wall_s, 30.0);

  // The stalled queue overflowed (kept 1, dropped the rest)…
  EXPECT_EQ(stalled->dropped(), kPublishes - 1);
  // …while a healthy subscriber still got the newest data.
  std::uint64_t newest = 0;
  while (auto item = healthy->poll())
    if (item->type == StreamSubscription::Item::Type::kSnapshot)
      newest = item->snapshot->sequence;
  EXPECT_EQ(newest, kPublishes);
}

TEST(Stream, ConcurrentConsumerSeesOrderedSnapshotsAndCloseWakesIt) {
  StreamingAggregator aggregator(1);
  const auto subscription = aggregator.subscribe(16);
  std::atomic<bool> done{false};
  std::vector<std::uint64_t> seen;
  std::thread consumer([&] {
    while (true) {
      auto item = subscription->wait(50);
      if (item.has_value()) {
        if (item->type == StreamSubscription::Item::Type::kSnapshot)
          seen.push_back(item->snapshot->sequence);
        continue;
      }
      if (subscription->closed()) break;  // drained + closed = stream over
    }
    done.store(true);
  });

  for (std::uint64_t i = 1; i <= 50; ++i) {
    aggregator.update_reader(0, metrics_with_rounds(i), 0.0);
    (void)aggregator.publish(0.01);
  }
  aggregator.close_all();
  consumer.join();
  EXPECT_TRUE(done.load());
  // Drop-oldest keeps sequences strictly increasing even across gaps, and
  // the newest snapshot always survives (only the oldest is ever evicted).
  ASSERT_FALSE(seen.empty());
  for (std::size_t i = 1; i < seen.size(); ++i)
    EXPECT_LT(seen[i - 1], seen[i]);
  EXPECT_EQ(seen.back(), 50u);
}

TEST(Stream, PublishSynthesizesTypedEventsFromDeltas) {
  StreamingAggregator aggregator(2);
  const auto subscription = aggregator.subscribe(32);

  obs::Metrics reader1 = metrics_with_rounds(5);
  reader1.degradations = 2;
  reader1.undelivered = 3;
  aggregator.update_reader(1, reader1, 0.0);
  (void)aggregator.publish(0.1);
  aggregator.complete_epoch(1, reader1);
  (void)aggregator.publish(0.1);

  unsigned degrades = 0, undelivered = 0, epochs = 0, snapshots = 0;
  while (auto item = subscription->poll()) {
    if (item->type == StreamSubscription::Item::Type::kSnapshot) {
      ++snapshots;
      continue;
    }
    EXPECT_EQ(item->event.reader, 1u);
    switch (item->event.kind) {
      case obs::StreamEvent::Kind::kDegrade:
        ++degrades;
        EXPECT_EQ(item->event.count, 2u);
        break;
      case obs::StreamEvent::Kind::kUndelivered:
        ++undelivered;
        EXPECT_EQ(item->event.count, 3u);
        break;
      case obs::StreamEvent::Kind::kEpoch:
        ++epochs;
        EXPECT_EQ(item->event.count, 1u);
        break;
      case obs::StreamEvent::Kind::kReaderDown:
      case obs::StreamEvent::Kind::kReaderRecovered:
        ADD_FAILURE() << "no health transition happened in this test";
        break;
    }
  }
  EXPECT_EQ(snapshots, 2u);
  EXPECT_EQ(degrades, 1u);  // only the first publish saw a delta
  EXPECT_EQ(undelivered, 1u);
  EXPECT_EQ(epochs, 1u);
}

TEST(Stream, PublishSynthesizesHealthTransitionEvents) {
  StreamingAggregator aggregator(2);
  const auto subscription = aggregator.subscribe(32);

  // The crash and restart counters ride in the reader's folded metrics.
  obs::Metrics live;
  live.reader_crashes = 1;
  aggregator.set_reader_health(1, obs::ReaderHealth::kDown);
  aggregator.update_reader(1, live, 0.0);
  (void)aggregator.publish(0.1);
  aggregator.set_reader_health(1, obs::ReaderHealth::kRecovering);
  (void)aggregator.publish(0.1);  // recovering is not "recovered" yet
  aggregator.set_reader_health(1, obs::ReaderHealth::kHealthy);
  live.reader_restarts = 1;
  aggregator.update_reader(1, live, 0.0);
  (void)aggregator.publish(0.1);

  unsigned downs = 0, recoveries = 0;
  std::shared_ptr<const obs::MetricsSnapshot> last;
  while (auto item = subscription->poll()) {
    if (item->type == StreamSubscription::Item::Type::kSnapshot) {
      last = item->snapshot;
      continue;
    }
    EXPECT_EQ(item->event.reader, 1u);
    if (item->event.kind == obs::StreamEvent::Kind::kReaderDown) ++downs;
    if (item->event.kind == obs::StreamEvent::Kind::kReaderRecovered)
      ++recoveries;
  }
  EXPECT_EQ(downs, 1u);
  EXPECT_EQ(recoveries, 1u);
  ASSERT_NE(last, nullptr);
  EXPECT_EQ(last->readers[1].health, obs::ReaderHealth::kHealthy);
  EXPECT_NE(obs::to_json(*last).find(
                R"("health":"healthy","crashes":1,"restarts":1})"),
            std::string::npos);
}

// --- HTTP end to end over real sockets --------------------------------------

/// Connects to 127.0.0.1:port and returns the socket fd (or -1).
int connect_to(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  timeval tv{};
  tv.tv_sec = 10;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
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

/// One blocking request/response exchange; reads until the peer closes.
std::string http_request(std::uint16_t port, const std::string& raw) {
  const int fd = connect_to(port);
  if (fd < 0) return {};
  (void)::send(fd, raw.data(), raw.size(), MSG_NOSIGNAL);
  std::string response;
  char buffer[2048];
  for (;;) {
    const ssize_t got = ::recv(fd, buffer, sizeof(buffer), 0);
    if (got <= 0) break;
    response.append(buffer, static_cast<std::size_t>(got));
  }
  ::close(fd);
  return response;
}

std::string http_get(std::uint16_t port, const std::string& path) {
  return http_request(port,
                      "GET " + path + " HTTP/1.1\r\nHost: t\r\n\r\n");
}

struct ServiceFixture final {
  StreamingAggregator aggregator{2};
  serve::TelemetryService service{aggregator};
  serve::HttpServer server;

  ServiceFixture() {
    service.install(server);
    server.start();  // port 0 -> ephemeral
  }
  ~ServiceFixture() { server.stop(); }

  void publish(std::uint64_t rounds) {
    aggregator.update_reader(0, metrics_with_rounds(rounds), 1e-4);
    aggregator.update_reader(1, metrics_with_rounds(rounds * 2), 2e-4);
    (void)aggregator.publish(0.25);
  }
};

TEST(Serve, RoutesServeHealthMetricsAndDashboard) {
  ServiceFixture fixture;

  // Before the first publish /metrics.json reports 503, not garbage.
  std::string response = http_get(fixture.server.port(), "/metrics.json");
  EXPECT_NE(response.find("503"), std::string::npos);
  EXPECT_NE(response.find("no snapshot"), std::string::npos);

  fixture.publish(10);
  response = http_get(fixture.server.port(), "/metrics.json");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find(R"("type":"snapshot")"), std::string::npos);
  EXPECT_NE(response.find(R"("rounds":10)"), std::string::npos);

  response = http_get(fixture.server.port(), "/healthz");
  EXPECT_NE(response.find(R"("status":"ok")"), std::string::npos);
  EXPECT_NE(response.find(R"("readers":2)"), std::string::npos);

  response = http_get(fixture.server.port(), "/");
  EXPECT_NE(response.find("text/html"), std::string::npos);
  EXPECT_NE(response.find("<!doctype html>"), std::string::npos);
  EXPECT_NE(response.find("EventSource"), std::string::npos);

  // Unknown route and unsupported method fail loudly and specifically.
  EXPECT_NE(http_get(fixture.server.port(), "/nope").find("404"),
            std::string::npos);
  EXPECT_NE(http_request(fixture.server.port(),
                         "POST /metrics.json HTTP/1.1\r\nHost: t\r\n\r\n")
                .find("405"),
            std::string::npos);
  EXPECT_NE(http_request(fixture.server.port(), "garbage\r\n\r\n")
                .find("400"),
            std::string::npos);
}

TEST(Serve, SseStreamsSnapshotsToAClient) {
  ServiceFixture fixture;
  fixture.publish(1);

  const int fd = connect_to(fixture.server.port());
  ASSERT_GE(fd, 0);
  const std::string request = "GET /events HTTP/1.1\r\nHost: t\r\n\r\n";
  ASSERT_GT(::send(fd, request.data(), request.size(), MSG_NOSIGNAL), 0);

  // Publish from another thread while this client reads the stream.
  std::atomic<bool> stop{false};
  std::thread publisher([&] {
    std::uint64_t rounds = 2;
    while (!stop.load()) {
      fixture.publish(rounds++);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });

  std::string stream;
  char buffer[2048];
  const auto count_snapshots = [&stream] {
    std::size_t count = 0;
    for (std::size_t pos = stream.find("event: snapshot");
         pos != std::string::npos;
         pos = stream.find("event: snapshot", pos + 1))
      ++count;
    return count;
  };
  while (count_snapshots() < 3) {
    const ssize_t got = ::recv(fd, buffer, sizeof(buffer), 0);
    ASSERT_GT(got, 0) << "SSE stream ended early";
    stream.append(buffer, static_cast<std::size_t>(got));
  }
  stop.store(true);
  publisher.join();
  ::close(fd);

  EXPECT_NE(stream.find("text/event-stream"), std::string::npos);
  EXPECT_NE(stream.find("data: {\"type\":\"snapshot\""), std::string::npos);
}

TEST(Serve, FourConcurrentClientsAndAStalledOneAreServed) {
  ServiceFixture fixture;
  fixture.publish(1);

  // A stalled SSE client: connects, sends the request, never reads. The
  // server must keep serving everyone else regardless.
  const int stalled_fd = connect_to(fixture.server.port());
  ASSERT_GE(stalled_fd, 0);
  const std::string sse_request = "GET /events HTTP/1.1\r\nHost: t\r\n\r\n";
  ASSERT_GT(::send(stalled_fd, sse_request.data(), sse_request.size(),
                   MSG_NOSIGNAL),
            0);

  std::atomic<bool> stop{false};
  std::thread publisher([&] {
    std::uint64_t rounds = 2;
    while (!stop.load()) {
      fixture.publish(rounds++);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  std::atomic<unsigned> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&fixture, &failures] {
      for (int i = 0; i < 10; ++i) {
        const std::string response =
            http_get(fixture.server.port(), i % 2 == 0 ? "/metrics.json"
                                                       : "/healthz");
        if (response.find("200 OK") == std::string::npos)
          failures.fetch_add(1);
      }
    });
  }
  for (auto& client : clients) client.join();
  stop.store(true);
  publisher.join();
  EXPECT_EQ(failures.load(), 0u);
  ::close(stalled_fd);
}

TEST(Serve, HealthzReportsPerReaderHealthAndDegradedStatus) {
  ServiceFixture fixture;
  fixture.aggregator.set_reader_health(1, obs::ReaderHealth::kDown);
  fixture.publish(3);

  const std::string response = http_get(fixture.server.port(), "/healthz");
  EXPECT_NE(response.find(R"("status":"degraded")"), std::string::npos);
  EXPECT_NE(response.find(R"("reader_health":["healthy","down"])"),
            std::string::npos);

  fixture.aggregator.set_reader_health(1, obs::ReaderHealth::kHealthy);
  fixture.publish(4);
  EXPECT_NE(http_get(fixture.server.port(), "/healthz")
                .find(R"("status":"ok")"),
            std::string::npos);
}

// --- Hostile-client hardening -----------------------------------------------

/// A server with tight request-head bounds for abuse tests: tiny recv
/// timeout, few reads allowed, small byte cap.
struct HardenedFixture final {
  StreamingAggregator aggregator{1};
  serve::TelemetryService service{aggregator};
  serve::HttpServer server;

  HardenedFixture()
      : server([] {
          serve::HttpServer::Config config;
          config.recv_timeout_ms = 200;
          config.max_request_reads = 4;
          config.max_request_bytes = 512;
          return config;
        }()) {
    service.install(server);
    server.start();
  }
  ~HardenedFixture() { server.stop(); }
};

TEST(Serve, SlowLorisIsCutOffByTheReadCap) {
  HardenedFixture fixture;

  // Drip one byte per send, never finishing the head. The read cap must
  // end this in ~max_request_reads recvs, not after the byte cap fills.
  const auto start = std::chrono::steady_clock::now();
  const int fd = connect_to(fixture.server.port());
  ASSERT_GE(fd, 0);
  std::string response;
  char buffer[512];
  for (int i = 0; i < 64; ++i) {
    if (::send(fd, "G", 1, MSG_NOSIGNAL) <= 0) break;
    const ssize_t got = ::recv(fd, buffer, sizeof(buffer), MSG_DONTWAIT);
    if (got > 0) response.append(buffer, static_cast<std::size_t>(got));
    if (got == 0) break;  // server hung up on us
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  for (;;) {  // drain whatever the server sent before it hung up
    const ssize_t got = ::recv(fd, buffer, sizeof(buffer), 0);
    if (got <= 0) break;
    response.append(buffer, static_cast<std::size_t>(got));
  }
  ::close(fd);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  EXPECT_NE(response.find("431"), std::string::npos) << response;
  // 4 reads x 200 ms timeout bounds the worst case near 0.8 s; the drip
  // keeps each recv fast, so seconds of slack is a loose, unflaky bound.
  EXPECT_LT(wall_s, 5.0);

  // The server is still perfectly healthy for everyone else.
  fixture.aggregator.update_reader(0, metrics_with_rounds(1), 0.0);
  (void)fixture.aggregator.publish(0.1);
  EXPECT_NE(http_get(fixture.server.port(), "/healthz")
                .find("200 OK"),
            std::string::npos);
}

TEST(Serve, OversizedRequestHeadGets431) {
  HardenedFixture fixture;
  // 600 bytes of header noise with no terminator: over the 512-byte cap.
  std::string raw = "GET / HTTP/1.1\r\n";
  raw += "X-Junk: " + std::string(600, 'a') + "\r\n";
  const std::string response = http_request(fixture.server.port(), raw);
  EXPECT_NE(response.find("431"), std::string::npos) << response;
}

TEST(Serve, SilentClientTimesOutWith408AndStopNeverWedges) {
  HardenedFixture fixture;
  // Connect and send nothing: the 200 ms SO_RCVTIMEO must turn this into
  // a 408, and stop() afterwards must not hang on the connection.
  const int fd = connect_to(fixture.server.port());
  ASSERT_GE(fd, 0);
  std::string response;
  char buffer[256];
  for (;;) {
    const ssize_t got = ::recv(fd, buffer, sizeof(buffer), 0);
    if (got <= 0) break;
    response.append(buffer, static_cast<std::size_t>(got));
  }
  ::close(fd);
  EXPECT_NE(response.find("408"), std::string::npos) << response;
  fixture.server.stop();  // bounded: joins the (finished) worker
}

TEST(Serve, StopIsGracefulIdempotentAndEndsLiveStreams) {
  auto fixture = std::make_unique<ServiceFixture>();
  const std::uint16_t port = fixture->server.port();
  fixture->publish(1);

  // A live SSE client at shutdown time: stop() must end the stream (the
  // client sees EOF) instead of leaving the connection dangling.
  const int fd = connect_to(port);
  ASSERT_GE(fd, 0);
  const std::string request = "GET /events HTTP/1.1\r\nHost: t\r\n\r\n";
  ASSERT_GT(::send(fd, request.data(), request.size(), MSG_NOSIGNAL), 0);
  char buffer[512];
  ASSERT_GT(::recv(fd, buffer, sizeof(buffer), 0), 0);  // headers arrived

  fixture->aggregator.close_all();
  fixture->server.stop();
  fixture->server.stop();  // idempotent

  // Drain to EOF: a closed stream, not a hang.
  for (;;) {
    const ssize_t got = ::recv(fd, buffer, sizeof(buffer), 0);
    if (got <= 0) break;
  }
  ::close(fd);

  // The port no longer accepts connections.
  EXPECT_LT(connect_to(port), 0);
  fixture.reset();  // double-stop through the destructor is also safe
}

}  // namespace
}  // namespace rfid
