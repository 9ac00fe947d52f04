// Telemetry routes over the streaming aggregator.
//
// TelemetryService binds an obs::StreamingAggregator to an HttpServer:
//
//   GET /            single-file live dashboard (serve/dashboard.hpp)
//   GET /healthz     liveness + uptime + per-reader supervisor health
//                    ("status" degrades when any reader is not healthy)
//   GET /metrics.json  the latest MetricsSnapshot as one JSON object
//                      (503 until the first publish)
//   GET /events      Server-Sent Events: every published snapshot plus
//                    typed fault/degradation events, one subscription
//                    (bounded drop-oldest queue) per client; a `drops`
//                    event reports queue overflow to the client itself
//
// This file is the wall-clock boundary of the repository: uptime comes
// from the monotonic clock and /healthz's wall_unix_ms from the system
// clock behind a documented rfidlint pragma. Simulation layers below never
// see either (docs/observability.md, "Wall-clock policy").
#pragma once

#include <chrono>

#include "obs/stream.hpp"
#include "serve/http.hpp"

namespace rfid::serve {

class TelemetryService final {
 public:
  explicit TelemetryService(obs::StreamingAggregator& aggregator);

  /// Registers /, /healthz, /metrics.json, and /events on `server`.
  /// Call before server.start().
  void install(HttpServer& server);

 private:
  HttpResponse healthz() const;
  HttpResponse metrics_json() const;
  void events(StreamWriter& writer) const;

  obs::StreamingAggregator& aggregator_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace rfid::serve
