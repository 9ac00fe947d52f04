// Crash-consistent checkpoint/resume for long-running simulations.
//
// The telemetry daemon (tools/simserved) runs inventory epochs for hours; a
// SIGKILL should not cost the accumulated run. A Checkpoint captures, at an
// epoch boundary, everything the epoch loop (core/epochs.hpp) needs to
// continue bit-identically:
//
//   * per-reader progress: completed-epoch count, the bit-exact folded
//     Metrics of those epochs, incident counters, and health — the folds
//     are a pure function of (seed, epoch count), which is the invariant
//     that makes "kill, resume, compare" byte-identical (epochs in flight
//     at the kill are simply replayed from their epoch boundary), so no
//     RNG state is stored: every epoch re-derives its streams;
//   * a caller-computed config fingerprint, so a checkpoint is never
//     resumed against a different protocol/population/fault plan.
//
// Format: a little-endian binary blob — magic, version, CRC-16/CCITT over
// the payload, then the payload — decoded with full bounds checks. The
// payload ends in a reserved u32 that must be 0 (version 1 once counted
// RNG streams there and never wrote any). Torn writes cannot happen:
// write_checkpoint_atomic writes <path>.tmp, fsyncs, and renames over
// <path>, so the file either holds the previous checkpoint or the
// complete new one. Corruption is detected by the CRC and reported
// loudly (decode throws); a missing file just means "fresh start".
//
// Determinism: nothing here reads a clock — the wall timestamp embedded in
// the header is passed in by the caller (the serving layer, the one place
// wall time is allowed). encode_into reuses the caller's buffer, so
// steady-state snapshots allocate nothing once warm.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "obs/health.hpp"
#include "obs/metrics.hpp"

namespace rfid::sim {

inline constexpr std::uint32_t kCheckpointVersion = 1;

/// One reader's durable state at an epoch boundary.
struct ReaderCheckpoint final {
  std::uint64_t epochs = 0;    ///< completed inventory epochs
  std::uint64_t crashes = 0;   ///< incident counters (reporting only; the
  std::uint64_t restarts = 0;  ///<  fold's reader_crashes/reader_restarts)
  obs::ReaderHealth health = obs::ReaderHealth::kHealthy;
  obs::Metrics completed{};  ///< bit-exact fold of the completed epochs
};

struct Checkpoint final {
  /// Caller-computed digest of everything that shapes the run (protocol,
  /// population, seed, fault plan, epoch target). decode() returns it
  /// verbatim; resumers must compare before trusting the state.
  std::uint64_t config_fingerprint = 0;
  std::uint64_t master_seed = 0;
  /// Wall-clock milliseconds at snapshot time, supplied by the caller —
  /// informational only, excluded from determinism comparisons.
  std::uint64_t wall_unix_ms = 0;
  std::uint64_t epoch_target = 0;  ///< per-reader epoch goal of the run
  std::vector<ReaderCheckpoint> readers;
};

/// Chained 64-bit fingerprint step (splitmix64-based): fold each
/// config-shaping value in with h = fingerprint_mix(h, value).
[[nodiscard]] std::uint64_t fingerprint_mix(std::uint64_t h,
                                            std::uint64_t value) noexcept;

/// Serializes into `out` (cleared first). Reusing `out` across snapshots
/// makes the steady state allocation-free once the buffer is warm.
void encode_into(const Checkpoint& checkpoint, std::vector<std::uint8_t>& out);
[[nodiscard]] std::vector<std::uint8_t> encode(const Checkpoint& checkpoint);

/// Parses a blob produced by encode. Throws std::runtime_error on bad
/// magic, unsupported version, CRC mismatch, truncation (a reader count
/// the payload cannot hold included) or a nonzero reserved word — a
/// corrupt checkpoint is refused loudly, never half-restored.
[[nodiscard]] Checkpoint decode(std::span<const std::uint8_t> bytes);

/// Writes `bytes` to <path>.tmp, fsyncs, and renames over <path> (atomic on
/// POSIX). Throws std::runtime_error on any I/O failure.
void write_checkpoint_atomic(const std::string& path,
                             std::span<const std::uint8_t> bytes);

/// Loads and decodes <path>. Returns nullopt when the file does not exist
/// (fresh start); throws like decode() when it exists but is corrupt.
[[nodiscard]] std::optional<Checkpoint> load_checkpoint(
    const std::string& path);

}  // namespace rfid::sim
