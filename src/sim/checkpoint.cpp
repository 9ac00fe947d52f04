#include "sim/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <system_error>

#include "common/crc.hpp"
#include "common/rng.hpp"
#include "obs/phase_timer.hpp"

namespace rfid::sim {

namespace {

constexpr std::array<std::uint8_t, 8> kMagic = {'R', 'F', 'I', 'D',
                                                'C', 'K', 'P', 'T'};

// All integers little-endian on the wire, written byte by byte so the
// format is host-endianness-independent.
void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_f64(std::vector<std::uint8_t>& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

void put_metrics(std::vector<std::uint8_t>& out, const obs::Metrics& m) {
  put_u64(out, m.polls);
  put_u64(out, m.missing);
  put_u64(out, m.corrupted);
  put_u64(out, m.retries);
  put_u64(out, m.undelivered);
  put_u64(out, m.rounds);
  put_u64(out, m.circles);
  put_u64(out, m.slots_total);
  put_u64(out, m.slots_useful);
  put_u64(out, m.slots_wasted);
  put_u64(out, m.vector_bits);
  put_u64(out, m.command_bits);
  put_u64(out, m.tag_bits);
  put_u64(out, m.segments_sent);
  put_u64(out, m.segments_corrupted);
  put_u64(out, m.segments_retransmitted);
  put_u64(out, m.downlink_corrupted);
  put_u64(out, m.degradations);
  put_u64(out, m.reader_crashes);
  put_u64(out, m.reader_stalls);
  put_u64(out, m.reader_restarts);
  put_u64(out, m.handoffs);
  put_u64(out, m.framing_overhead_bits);
  put_f64(out, m.time_us);
  for (std::size_t p = 0; p < obs::kPhaseCount; ++p)
    put_f64(out, m.phases.us[p]);
}

/// Bounds-checked little-endian reader over the payload span.
class Cursor final {
 public:
  explicit Cursor(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  [[nodiscard]] std::uint8_t u8() {
    need(1);
    return bytes_[pos_++];
  }

  [[nodiscard]] std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(bytes_[pos_ + static_cast<std::size_t>(i)])
           << (8 * i);
    pos_ += 4;
    return v;
  }

  [[nodiscard]] std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(bytes_[pos_ + static_cast<std::size_t>(i)])
           << (8 * i);
    pos_ += 8;
    return v;
  }

  [[nodiscard]] double f64() { return std::bit_cast<double>(u64()); }

  [[nodiscard]] bool exhausted() const noexcept {
    return pos_ == bytes_.size();
  }

 private:
  void need(std::size_t n) const {
    if (bytes_.size() - pos_ < n)
      throw std::runtime_error("checkpoint: truncated payload");
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

obs::Metrics read_metrics(Cursor& in) {
  obs::Metrics m;
  m.polls = in.u64();
  m.missing = in.u64();
  m.corrupted = in.u64();
  m.retries = in.u64();
  m.undelivered = in.u64();
  m.rounds = in.u64();
  m.circles = in.u64();
  m.slots_total = in.u64();
  m.slots_useful = in.u64();
  m.slots_wasted = in.u64();
  m.vector_bits = in.u64();
  m.command_bits = in.u64();
  m.tag_bits = in.u64();
  m.segments_sent = in.u64();
  m.segments_corrupted = in.u64();
  m.segments_retransmitted = in.u64();
  m.downlink_corrupted = in.u64();
  m.degradations = in.u64();
  m.reader_crashes = in.u64();
  m.reader_stalls = in.u64();
  m.reader_restarts = in.u64();
  m.handoffs = in.u64();
  m.framing_overhead_bits = in.u64();
  m.time_us = in.f64();
  for (std::size_t p = 0; p < obs::kPhaseCount; ++p) m.phases.us[p] = in.f64();
  return m;
}

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error("checkpoint: " + what + ": " +
                           std::generic_category().message(errno));
}

}  // namespace

std::uint64_t fingerprint_mix(std::uint64_t h, std::uint64_t value) noexcept {
  std::uint64_t state = h ^ value;
  return splitmix64_next(state);
}

// rfidlint: hotpath(checkpoint-warm-encode)
void encode_into(const Checkpoint& checkpoint, std::vector<std::uint8_t>& out) {
  out.clear();
  // Header: magic, version, CRC placeholder, payload size placeholder. The
  // magic goes byte by byte like every other field: gcc 12 at -O3
  // misreports a range insert into the just-cleared buffer as an overflow.
  // rfidlint: allow(hotpath-alloc) — warm encodes reuse `out` capacity; test_checkpoint pins the zero-alloc warm path
  for (const std::uint8_t byte : kMagic) put_u8(out, byte);
  put_u32(out, kCheckpointVersion);
  const std::size_t crc_at = out.size();
  put_u32(out, 0);
  const std::size_t size_at = out.size();
  put_u64(out, 0);
  const std::size_t payload_at = out.size();

  put_u64(out, checkpoint.config_fingerprint);
  put_u64(out, checkpoint.master_seed);
  put_u64(out, checkpoint.wall_unix_ms);
  put_u64(out, checkpoint.epoch_target);
  put_u32(out, static_cast<std::uint32_t>(checkpoint.readers.size()));
  for (const ReaderCheckpoint& reader : checkpoint.readers) {
    put_u64(out, reader.epochs);
    put_u64(out, reader.crashes);
    put_u64(out, reader.restarts);
    put_u8(out, static_cast<std::uint8_t>(reader.health));
    put_metrics(out, reader.completed);
  }
  put_u32(out, 0);  // reserved

  // Backfill CRC and payload size now the payload exists.
  const std::span<const std::uint8_t> payload{out.data() + payload_at,
                                              out.size() - payload_at};
  const std::uint32_t crc = crc16_ccitt(payload);
  for (int i = 0; i < 4; ++i)
    out[crc_at + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(crc >> (8 * i));
  const std::uint64_t payload_size = payload.size();
  for (int i = 0; i < 8; ++i)
    out[size_at + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(payload_size >> (8 * i));
}

std::vector<std::uint8_t> encode(const Checkpoint& checkpoint) {
  std::vector<std::uint8_t> out;
  encode_into(checkpoint, out);
  return out;
}

Checkpoint decode(std::span<const std::uint8_t> bytes) {
  constexpr std::size_t kHeaderSize = 8 + 4 + 4 + 8;
  if (bytes.size() < kHeaderSize)
    throw std::runtime_error("checkpoint: file shorter than header");
  if (!std::equal(kMagic.begin(), kMagic.end(), bytes.begin()))
    throw std::runtime_error("checkpoint: bad magic");
  Cursor header{bytes.subspan(8, 16)};
  const std::uint32_t version = header.u32();
  if (version != kCheckpointVersion)
    throw std::runtime_error("checkpoint: unsupported version " +
                             std::to_string(version));
  const std::uint32_t stored_crc = header.u32();
  const std::uint64_t payload_size = header.u64();
  if (bytes.size() - kHeaderSize != payload_size)
    throw std::runtime_error("checkpoint: payload size mismatch");
  const std::span<const std::uint8_t> payload = bytes.subspan(kHeaderSize);
  if (crc16_ccitt(payload) != stored_crc)
    throw std::runtime_error("checkpoint: CRC mismatch (corrupt file)");

  Cursor in{payload};
  Checkpoint checkpoint;
  checkpoint.config_fingerprint = in.u64();
  checkpoint.master_seed = in.u64();
  checkpoint.wall_unix_ms = in.u64();
  checkpoint.epoch_target = in.u64();
  // Nothing is reserved from the count: a forged count the payload cannot
  // hold ends in the truncation error, not in a huge allocation.
  const std::uint32_t reader_count = in.u32();
  for (std::uint32_t r = 0; r < reader_count; ++r) {
    ReaderCheckpoint reader;
    reader.epochs = in.u64();
    reader.crashes = in.u64();
    reader.restarts = in.u64();
    const std::uint8_t health = in.u8();
    if (health >= obs::kReaderHealthCount)
      throw std::runtime_error("checkpoint: invalid reader health state");
    reader.health = static_cast<obs::ReaderHealth>(health);
    reader.completed = read_metrics(in);
    checkpoint.readers.push_back(std::move(reader));
  }
  if (in.u32() != 0)
    throw std::runtime_error("checkpoint: nonzero reserved word");
  if (!in.exhausted())
    throw std::runtime_error("checkpoint: trailing bytes after payload");
  return checkpoint;
}

void write_checkpoint_atomic(const std::string& path,
                             std::span<const std::uint8_t> bytes) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw_errno("open " + tmp);
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ::ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      throw_errno("write " + tmp);
    }
    written += static_cast<std::size_t>(n);
  }
  // fsync before rename: the rename must never expose a file whose bytes
  // are still in flight, or a crash between them leaves a torn checkpoint
  // under the final name — the exact failure this dance exists to prevent.
  if (::fsync(fd) != 0) {
    ::close(fd);
    throw_errno("fsync " + tmp);
  }
  if (::close(fd) != 0) throw_errno("close " + tmp);
  if (::rename(tmp.c_str(), path.c_str()) != 0)
    throw_errno("rename " + tmp + " -> " + path);
}

std::optional<Checkpoint> load_checkpoint(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file.is_open()) return std::nullopt;  // fresh start
  std::vector<std::uint8_t> bytes{std::istreambuf_iterator<char>(file),
                                  std::istreambuf_iterator<char>()};
  if (file.bad()) throw std::runtime_error("checkpoint: read failed: " + path);
  return decode(bytes);
}

}  // namespace rfid::sim
