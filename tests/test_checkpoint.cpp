// Crash-consistent checkpoint/resume: the binary codec (roundtrip, CRC
// rejection, truncation, forged counts, atomic write), and the end-to-end
// epoch-ledger invariant (core/epochs.hpp) — killing a run at an arbitrary
// point and resuming from the last epoch-boundary checkpoint converges on
// byte-identical final metrics, with and without injected reader crashes.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/crc.hpp"
#include "core/deployment.hpp"
#include "core/epochs.hpp"
#include "obs/stream.hpp"
#include "sim/checkpoint.hpp"

namespace rfid {
namespace {

/// A unique temp path per test; removed on destruction.
struct TempPath final {
  std::string path;
  explicit TempPath(const std::string& stem)
      : path("/tmp/rfid_ckpt_test_" + std::to_string(::getpid()) + "_" +
             stem) {
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
  }
  ~TempPath() {
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
  }
};

sim::Checkpoint sample_checkpoint() {
  sim::Checkpoint checkpoint;
  checkpoint.config_fingerprint = 0xFEEDFACEull;
  checkpoint.master_seed = 42;
  checkpoint.wall_unix_ms = 1754700000000ull;
  checkpoint.epoch_target = 9;
  checkpoint.readers.resize(2);
  checkpoint.readers[0].epochs = 3;
  checkpoint.readers[0].crashes = 1;
  checkpoint.readers[0].restarts = 1;
  checkpoint.readers[0].health = obs::ReaderHealth::kRecovering;
  checkpoint.readers[0].completed.rounds = 77;
  checkpoint.readers[0].completed.time_us = 123.456;
  checkpoint.readers[0].completed.phases.add(obs::Phase::kRecovery, 9.5);
  checkpoint.readers[1].epochs = 4;
  checkpoint.readers[1].completed.polls = 1234;
  return checkpoint;
}

/// Byte offsets of the header's CRC word, the payload, and the payload's
/// reader count (after four u64 fields).
constexpr std::size_t kCrcAt = 12;
constexpr std::size_t kPayloadAt = 24;
constexpr std::size_t kReaderCountAt = kPayloadAt + 32;

/// Writes `value` as a little-endian u32 at `at`, then recomputes the CRC,
/// so the forged blob passes the integrity check and reaches the parser.
void forge_u32(std::vector<std::uint8_t>& bytes, std::size_t at,
               std::uint32_t value) {
  for (std::size_t i = 0; i < 4; ++i)
    bytes[at + i] = static_cast<std::uint8_t>(value >> (8 * i));
  const std::uint32_t crc =
      crc16_ccitt(std::span<const std::uint8_t>(bytes).subspan(kPayloadAt));
  for (std::size_t i = 0; i < 4; ++i)
    bytes[kCrcAt + i] = static_cast<std::uint8_t>(crc >> (8 * i));
}

TEST(CheckpointCodec, EncodeDecodeRoundtrip) {
  const sim::Checkpoint original = sample_checkpoint();
  const std::vector<std::uint8_t> bytes = sim::encode(original);
  const sim::Checkpoint decoded = sim::decode(bytes);

  EXPECT_EQ(decoded.config_fingerprint, original.config_fingerprint);
  EXPECT_EQ(decoded.master_seed, original.master_seed);
  EXPECT_EQ(decoded.wall_unix_ms, original.wall_unix_ms);
  EXPECT_EQ(decoded.epoch_target, original.epoch_target);
  ASSERT_EQ(decoded.readers.size(), 2u);
  EXPECT_EQ(decoded.readers[0].epochs, 3u);
  EXPECT_EQ(decoded.readers[0].crashes, 1u);
  EXPECT_EQ(decoded.readers[0].restarts, 1u);
  EXPECT_EQ(decoded.readers[0].health, obs::ReaderHealth::kRecovering);
  EXPECT_EQ(decoded.readers[0].completed.rounds, 77u);
  EXPECT_EQ(decoded.readers[0].completed.time_us, 123.456);
  EXPECT_EQ(decoded.readers[0].completed.phases.get(obs::Phase::kRecovery),
            9.5);
  EXPECT_EQ(decoded.readers[1].completed.polls, 1234u);

  // Re-encoding the decoded struct reproduces the exact bytes: the codec
  // loses nothing and has one canonical form.
  EXPECT_EQ(sim::encode(decoded), bytes);
}

TEST(CheckpointCodec, EncodeIntoReusesBufferAndMatchesEncode) {
  const sim::Checkpoint checkpoint = sample_checkpoint();
  std::vector<std::uint8_t> buffer;
  sim::encode_into(checkpoint, buffer);
  EXPECT_EQ(buffer, sim::encode(checkpoint));
  // Second fill into the warm buffer: same bytes, no stale suffix.
  sim::encode_into(checkpoint, buffer);
  EXPECT_EQ(buffer, sim::encode(checkpoint));
}

TEST(CheckpointCodec, CorruptionIsRefusedLoudly) {
  std::vector<std::uint8_t> bytes = sim::encode(sample_checkpoint());

  {  // Payload bit flip: CRC catches it.
    std::vector<std::uint8_t> corrupt = bytes;
    corrupt.back() ^= 0x01;
    EXPECT_THROW((void)sim::decode(corrupt), std::runtime_error);
  }
  {  // Bad magic.
    std::vector<std::uint8_t> corrupt = bytes;
    corrupt[0] ^= 0xFF;
    EXPECT_THROW((void)sim::decode(corrupt), std::runtime_error);
  }
  {  // Unsupported version.
    std::vector<std::uint8_t> corrupt = bytes;
    corrupt[8] = 0xEE;
    EXPECT_THROW((void)sim::decode(corrupt), std::runtime_error);
  }
  {  // CRC-valid forged reader count: truncation, not a huge reserve.
    std::vector<std::uint8_t> forged = bytes;
    forge_u32(forged, kReaderCountAt, 0xFFFFFFFFu);
    EXPECT_THROW((void)sim::decode(forged), std::runtime_error);
  }
  {  // CRC-valid nonzero reserved word (the payload's last u32).
    std::vector<std::uint8_t> forged = bytes;
    forge_u32(forged, forged.size() - 4, 0xFFFFFFFFu);
    EXPECT_THROW((void)sim::decode(forged), std::runtime_error);
  }
  // Truncation at every boundary: never a crash, never a half-restore.
  for (std::size_t len = 0; len < bytes.size(); len += 7) {
    const std::vector<std::uint8_t> truncated(
        bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW((void)sim::decode(truncated), std::runtime_error)
        << "truncated to " << len;
  }
}

TEST(CheckpointCodec, AtomicWriteThenLoadRoundtrips) {
  const TempPath temp("atomic");
  const sim::Checkpoint checkpoint = sample_checkpoint();
  sim::write_checkpoint_atomic(temp.path, sim::encode(checkpoint));

  const auto loaded = sim::load_checkpoint(temp.path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->config_fingerprint, checkpoint.config_fingerprint);
  EXPECT_EQ(loaded->readers.size(), 2u);
  // No .tmp file left behind after the rename.
  std::ifstream tmp(temp.path + ".tmp");
  EXPECT_FALSE(tmp.is_open());
}

TEST(CheckpointCodec, MissingFileIsAFreshStartCorruptFileIsNot) {
  const TempPath temp("missing");
  EXPECT_FALSE(sim::load_checkpoint(temp.path).has_value());

  std::ofstream out(temp.path, std::ios::binary);
  out << "definitely not a checkpoint";
  out.close();
  EXPECT_THROW((void)sim::load_checkpoint(temp.path), std::runtime_error);
}

// --- Epoch-ledger kill/resume byte-identity ---------------------------------

/// A ledger over `readers` readers on one channel, draining `tags` tags per
/// epoch with the given per-tick reader crash rate.
core::DeploymentEpochs ledger(std::size_t readers, std::size_t tags,
                              std::uint64_t seed, std::uint64_t epoch_target,
                              double crash_rate = 0.0,
                              std::size_t channels = 1) {
  core::DeploymentConfig config;
  config.readers = readers;
  config.channels = channels;
  config.session.keep_records = false;
  config.reader_faults.crash_per_tick = crash_rate;
  return core::DeploymentEpochs(config, tags, seed, epoch_target);
}

/// Drains epochs to the ledger's target and returns the final metrics
/// JSON. With `kill_after_epochs` nonzero, the run is abandoned once that
/// many epochs completed (its state captured in `checkpoint_out` exactly as
/// simserved's epoch-boundary write would), and the caller resumes a fresh
/// ledger from it.
std::string run_to_target(core::DeploymentEpochs epochs,
                          std::uint64_t kill_after_epochs,
                          sim::Checkpoint* checkpoint_out,
                          const sim::Checkpoint* resume_from) {
  obs::StreamingAggregator aggregator(epochs.next_config().readers);
  if (resume_from != nullptr) epochs.restore(*resume_from, aggregator);
  while (!epochs.target_reached()) {
    const tags::TagPopulation population = epochs.next_population();
    epochs.complete(core::run_deployment(population, epochs.next_config()));
    if (kill_after_epochs != 0 && epochs.epochs() >= kill_after_epochs) {
      // "SIGKILL": capture the durable state and walk away mid-run.
      if (checkpoint_out != nullptr)
        epochs.fill_checkpoint(*checkpoint_out, /*wall_unix_ms=*/0);
      return {};
    }
  }
  std::ostringstream os;
  epochs.write_final_metrics(os);
  return os.str();
}

/// Reader crashes folded into a checkpoint's per-reader metrics.
std::uint64_t folded_crashes(const sim::Checkpoint& checkpoint) {
  std::uint64_t total = 0;
  for (const sim::ReaderCheckpoint& slot : checkpoint.readers)
    total += slot.completed.reader_crashes;
  return total;
}

TEST(CheckpointResume, KillAndResumeIsByteIdentical) {
  const auto fresh = ledger(3, 64, 20260809, 3);
  const std::string uninterrupted = run_to_target(fresh, 0, nullptr, nullptr);
  ASSERT_FALSE(uninterrupted.empty());

  // Kill after 2 of 3 epochs, then resume a fresh process-equivalent from
  // the checkpoint.
  sim::Checkpoint checkpoint;
  ASSERT_TRUE(run_to_target(fresh, 2, &checkpoint, nullptr).empty());
  ASSERT_EQ(checkpoint.readers.size(), 3u);
  EXPECT_EQ(checkpoint.readers[0].epochs, 2u);
  const std::string resumed = run_to_target(fresh, 0, nullptr, &checkpoint);

  EXPECT_EQ(resumed, uninterrupted);
}

TEST(CheckpointResume, CrashRateFiresAndChangesTheFolds) {
  // Reader crashes are part of an epoch: the supervisor restarts the
  // reader, its tags are handed off, and the folds record both. A crash
  // rate must therefore change the folds, or crash injection never fired.
  sim::Checkpoint clean;
  sim::Checkpoint crashy;
  (void)run_to_target(ledger(3, 64, 7, 4), 4, &clean, nullptr);
  (void)run_to_target(ledger(3, 64, 7, 4, 0.03), 4, &crashy, nullptr);
  EXPECT_EQ(folded_crashes(clean), 0u);
  EXPECT_GT(folded_crashes(crashy), 0u);
  EXPECT_NE(run_to_target(ledger(3, 64, 7, 4, 0.03), 0, nullptr, nullptr),
            run_to_target(ledger(3, 64, 7, 4), 0, nullptr, nullptr));
}

TEST(CheckpointResume, KillAndResumeWithCrashesIsByteIdentical) {
  const auto fresh = ledger(3, 64, 99, 4, 0.03);
  const std::string uninterrupted = run_to_target(fresh, 0, nullptr, nullptr);
  sim::Checkpoint checkpoint;
  ASSERT_TRUE(run_to_target(fresh, 2, &checkpoint, nullptr).empty());
  EXPECT_GT(folded_crashes(checkpoint), 0u);  // crashes before the kill
  const std::string resumed = run_to_target(fresh, 0, nullptr, &checkpoint);
  EXPECT_EQ(resumed, uninterrupted);
}

TEST(CheckpointResume, MismatchedConfigIsRefused) {
  sim::Checkpoint checkpoint;
  ledger(2, 32, 5, 1).fill_checkpoint(checkpoint, 0);

  // What shapes an epoch is fingerprinted: seed, channel count and crash
  // rate each refuse the checkpoint.
  obs::StreamingAggregator aggregator(2);
  auto other_seed = ledger(2, 32, 6, 1);
  EXPECT_THROW(other_seed.restore(checkpoint, aggregator), std::runtime_error);
  auto other_channels = ledger(2, 32, 5, 1, 0.0, 2);
  EXPECT_THROW(other_channels.restore(checkpoint, aggregator),
               std::runtime_error);
  auto other_crash_rate = ledger(2, 32, 5, 1, 0.01);
  EXPECT_THROW(other_crash_rate.restore(checkpoint, aggregator),
               std::runtime_error);

  // Same config but a different epoch target is fine: the fingerprint
  // covers what shapes the folds, not the stopping condition.
  auto extended = ledger(2, 32, 5, 3);
  EXPECT_NO_THROW(extended.restore(checkpoint, aggregator));
}

TEST(CheckpointResume, SlotsDisagreeingOnEpochsAreRefused) {
  sim::Checkpoint checkpoint;
  (void)run_to_target(ledger(2, 32, 4, 2), 1, &checkpoint, nullptr);
  ASSERT_EQ(checkpoint.readers.size(), 2u);
  checkpoint.readers[1].epochs = 2;

  obs::StreamingAggregator aggregator(2);
  auto epochs = ledger(2, 32, 4, 2);
  EXPECT_THROW(epochs.restore(checkpoint, aggregator), std::runtime_error);
  EXPECT_EQ(epochs.epochs(), 0u);  // a refused restore changes nothing
  EXPECT_EQ(aggregator.publish(0.1)->totals.rounds, 0u);
}

TEST(CheckpointResume, RestorePushesStateIntoTheAggregator) {
  sim::Checkpoint checkpoint;
  ASSERT_TRUE(
      run_to_target(ledger(2, 32, 3, 3), 2, &checkpoint, nullptr).empty());

  obs::StreamingAggregator aggregator(2);
  auto epochs = ledger(2, 32, 3, 3);
  epochs.restore(checkpoint, aggregator);
  EXPECT_EQ(epochs.epochs(), 2u);
  const auto snapshot = aggregator.publish(0.1);
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->readers[0].epochs, 2u);
  EXPECT_EQ(snapshot->readers[1].epochs, 2u);
  EXPECT_GT(snapshot->totals.rounds, 0u);
  EXPECT_EQ(snapshot->totals.rounds,
            checkpoint.readers[0].completed.rounds +
                checkpoint.readers[1].completed.rounds);
}

}  // namespace
}  // namespace rfid
