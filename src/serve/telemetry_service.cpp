#include "serve/telemetry_service.hpp"

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>

#include "serve/dashboard.hpp"

namespace rfid::serve {

namespace {

std::string num(double value) {
  std::ostringstream oss;
  oss.precision(17);
  oss << value;
  return oss.str();
}

}  // namespace

TelemetryService::TelemetryService(obs::StreamingAggregator& aggregator)
    : aggregator_(aggregator), start_(std::chrono::steady_clock::now()) {}

void TelemetryService::install(HttpServer& server) {
  server.route("/", [](const HttpRequest&) {
    HttpResponse response;
    response.content_type = "text/html; charset=utf-8";
    response.body = std::string(dashboard_html());
    return response;
  });
  server.route("/healthz",
               [this](const HttpRequest&) { return healthz(); });
  server.route("/metrics.json",
               [this](const HttpRequest&) { return metrics_json(); });
  server.route_stream("/events", [this](const HttpRequest&,
                                        StreamWriter& writer) {
    events(writer);
  });
}

HttpResponse TelemetryService::healthz() const {
  const auto uptime = std::chrono::steady_clock::now() - start_;
  const double uptime_s =
      std::chrono::duration_cast<std::chrono::duration<double>>(uptime)
          .count();
  // The serving layer is the one place the repo reads wall time: a
  // dashboard or curl-based probe wants a real timestamp to correlate
  // with its own logs, and nothing deterministic consumes this value.
  // rfidlint: allow(wall-clock) — /healthz reports real time to external probes; never feeds the simulation
  const auto wall = std::chrono::system_clock::now().time_since_epoch();
  const auto wall_unix_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(wall).count();

  // Per-reader supervisor verdicts from the latest snapshot: a probe can
  // alert on a down reader without parsing the full /metrics.json. Overall
  // status degrades as soon as any reader is not healthy.
  const auto snapshot = aggregator_.latest();
  std::string health = "[";
  bool all_healthy = true;
  if (snapshot != nullptr) {
    for (std::size_t r = 0; r < snapshot->readers.size(); ++r) {
      const obs::ReaderHealth reader_health = snapshot->readers[r].health;
      if (reader_health != obs::ReaderHealth::kHealthy) all_healthy = false;
      health += (r == 0 ? "\"" : ",\"");
      health += obs::to_string(reader_health);
      health += '"';
    }
  }
  health += ']';

  HttpResponse response;
  response.body = std::string(R"({"status":")") +
                  (all_healthy ? "ok" : "degraded") + R"(","uptime_s":)" +
                  num(uptime_s) + R"(,"wall_unix_ms":)" +
                  std::to_string(wall_unix_ms) + R"(,"readers":)" +
                  std::to_string(aggregator_.reader_count()) +
                  R"(,"reader_health":)" + health + R"(,"snapshots":)" +
                  std::to_string(snapshot ? snapshot->sequence : 0) + "}";
  return response;
}

HttpResponse TelemetryService::metrics_json() const {
  const auto snapshot = aggregator_.latest();
  HttpResponse response;
  if (snapshot == nullptr) {
    response.status = 503;
    response.body = R"({"error":"no snapshot published yet"})";
    return response;
  }
  response.body = obs::to_json(*snapshot);
  return response;
}

void TelemetryService::events(StreamWriter& writer) const {
  constexpr std::size_t kQueueCapacity = 64;     // items buffered per client
  constexpr unsigned kWaitMs = 250;              // queue poll interval
  constexpr unsigned kKeepaliveEveryWaits = 20;  // idle waits per keepalive
  const auto subscription = aggregator_.subscribe(kQueueCapacity);
  std::uint64_t reported_drops = 0;
  unsigned idle_waits = 0;

  // Late joiners get the current state immediately instead of waiting a
  // full publish interval for their first frame.
  if (const auto latest = aggregator_.latest(); latest != nullptr) {
    writer.write("event: snapshot\ndata: " + obs::to_json(*latest) + "\n\n");
  }

  while (writer.alive()) {
    auto item = subscription->wait(kWaitMs);
    if (!item.has_value()) {
      if (subscription->closed()) break;  // daemon shut the stream down
      if (++idle_waits >= kKeepaliveEveryWaits) {
        idle_waits = 0;
        if (!writer.write(": keepalive\n\n")) break;
      }
      continue;
    }
    idle_waits = 0;

    bool ok = true;
    if (item->type == obs::StreamSubscription::Item::Type::kSnapshot) {
      ok = writer.write("event: snapshot\ndata: " +
                        obs::to_json(*item->snapshot) + "\n\n");
    } else {
      ok = writer.write("event: " +
                        std::string(obs::to_string(item->event.kind)) +
                        "\ndata: " + obs::to_json(item->event) + "\n\n");
    }
    if (!ok) break;

    // Tell the client its own queue overflowed (drop-oldest policy): the
    // stream stays live under backpressure but is no longer gap-free.
    if (const std::uint64_t drops = subscription->dropped();
        drops != reported_drops) {
      reported_drops = drops;
      if (!writer.write("event: drops\ndata: {\"dropped\":" +
                        std::to_string(drops) + "}\n\n"))
        break;
    }
  }
  aggregator_.unsubscribe(subscription);
}

}  // namespace rfid::serve
