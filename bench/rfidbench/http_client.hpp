// Minimal blocking HTTP/1.1 client for the serve-epochs load: one GET per
// connection (the server answers `Connection: close`), and one long-lived
// Server-Sent Events reader.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace rfidbench {

struct HttpReply final {
  bool ok = false;  ///< connected, sent, and read a status line
  int status = 0;
  std::string body;
  double connect_s = 0.0;  ///< socket() to connected
};

/// GET `path` from 127.0.0.1:`port`, reading until the server closes.
[[nodiscard]] HttpReply http_get(std::uint16_t port, const std::string& path);

/// Reads the SSE stream at `path` until the server closes it, counting
/// `event: snapshot` frames into `snapshots` as they arrive. Returns false
/// when the connection could not be opened or the reply was not a 200.
bool read_sse_snapshots(std::uint16_t port, const std::string& path,
                        std::atomic<std::uint64_t>& snapshots);

}  // namespace rfidbench
