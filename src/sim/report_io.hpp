// JSON serialization of run results.
//
// Dashboards and regression tooling want machine-readable run summaries;
// this hand-rolled emitter (no third-party dependency) writes a RunResult
// as a single JSON object: protocol, population, every metric, channel
// stats, missing IDs, and optionally the per-record payloads. The per-round
// view of a run is its obs::TraceSink event stream (kRoundBegin events).
#pragma once

#include <iosfwd>
#include <string>

#include "sim/session.hpp"

namespace rfid::sim {

struct JsonOptions final {
  bool include_records = false;  ///< per-tag payloads can be large
  int indent = 2;  ///< 0 = compact single line
};

/// Serializes `result` as a JSON object.
void write_json(std::ostream& os, const RunResult& result,
                const JsonOptions& options = {});

/// Convenience: serialize to a string.
[[nodiscard]] std::string to_json(const RunResult& result,
                                  const JsonOptions& options = {});

}  // namespace rfid::sim
