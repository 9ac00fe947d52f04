// Golden characterization tests for the polling family.
//
// Each case pins the complete externally observable outcome of one seeded
// run — every Metrics counter, the exact time_us and per-phase doubles
// (hexfloat, so the comparison is bit-exact), the collected-record count and
// the ordered missing/undelivered id lists — for fixed seeds across
// {HPP, EHPP, TPP, ADAPT} x {clean channel, BER + framing + recovery}.
// The clean channel runs twice: with per-poll records (the per-poll
// dispatch) and without them (the engine's batched clean-round fast path,
// wherever the round's dispatch allows it). EventStreamGolden.* pins the
// full JSONL event stream of the downlink's framed and unframed BER paths.
//
// These goldens were generated BEFORE the Downlink/AirLoop/
// RecoveryCoordinator/RoundEngine decomposition and must never be edited to
// make a refactor pass: a mismatch means the refactor changed the seeded
// behaviour, which is the one thing it must not do. To regenerate after an
// *intentional* behaviour change, run with RFID_GOLDEN_REGEN=1 — the test
// then prints each case's actual block in copy-pasteable form instead of
// asserting.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

#include "common/rng.hpp"
#include "obs/trace.hpp"
#include "parallel/trial_runner.hpp"
#include "protocols/enhanced_hash_polling.hpp"
#include "protocols/registry.hpp"
#include "sim/session.hpp"
#include "tags/population.hpp"

namespace rfid {
namespace {

tags::TagPopulation golden_population() {
  Xoshiro256ss rng(77);
  return tags::TagPopulation::uniform_random(300, rng);
}

sim::SessionConfig clean_config() {
  sim::SessionConfig config;
  config.seed = 9001;
  return config;
}

/// The clean scenario without per-poll records: the session takes the
/// engine's clean-round fast path wherever the dispatch allows it, so these
/// cases pin the batched accounting against the per-poll one above.
sim::SessionConfig clean_record_free_config() {
  sim::SessionConfig config = clean_config();
  config.keep_records = false;
  return config;
}

/// Framed fault scenario: burst reply loss + downlink BER through the CRC
/// framing ladder + recovery, with churn so the undelivered set is
/// non-empty (every 30th tag departs at round 1; one of them returns).
sim::SessionConfig faulted_config(const tags::TagPopulation& population) {
  sim::SessionConfig config;
  config.seed = 9002;
  config.info_bits = 8;
  config.fault.link = fault::LinkModel::kGilbertElliott;
  config.fault.downlink_ber = 3e-4;
  for (std::size_t i = 0; i < population.size(); i += 30) {
    config.fault.churn.push_back(
        {1, population[i].id(), fault::ChurnEvent::Kind::kDepart});
  }
  config.fault.churn.push_back(
      {4, population[0].id(), fault::ChurnEvent::Kind::kArrive});
  config.framing.enabled = true;
  config.recovery.enabled = true;
  config.recovery.retry_budget = 6;
  config.recovery.mop_up_passes = 2;
  return config;
}

/// Unframed BER scenario: raw downlink corruption with recovery but no
/// framing, exercising the kDownlinkCorrupted timeout and TPP's
/// register-desync / poll_unanswered path.
sim::SessionConfig unframed_ber_config() {
  sim::SessionConfig config;
  config.seed = 9003;
  config.fault.downlink_ber = 2e-3;
  config.recovery.enabled = true;
  config.recovery.retry_budget = 20;
  config.recovery.mop_up_passes = 2;
  return config;
}

/// Every Metrics counter but the fleet supervisor's, the clock and its
/// phase split. Integers in decimal, doubles in hexfloat (lossless).
std::string describe_metrics(const sim::Metrics& m) {
  std::ostringstream os;
  os << "polls=" << m.polls << " missing=" << m.missing
     << " corrupted=" << m.corrupted << " retries=" << m.retries
     << " undelivered=" << m.undelivered << "\n";
  os << "rounds=" << m.rounds << " circles=" << m.circles
     << " slots_total=" << m.slots_total << " slots_useful=" << m.slots_useful
     << " slots_wasted=" << m.slots_wasted << "\n";
  os << "vector_bits=" << m.vector_bits << " command_bits=" << m.command_bits
     << " tag_bits=" << m.tag_bits << "\n";
  os << "segments_sent=" << m.segments_sent
     << " segments_corrupted=" << m.segments_corrupted
     << " segments_retransmitted=" << m.segments_retransmitted
     << " downlink_corrupted=" << m.downlink_corrupted
     << " degradations=" << m.degradations
     << " framing_overhead_bits=" << m.framing_overhead_bits << "\n";
  os << std::hexfloat;
  os << "time_us=" << m.time_us << "\n";
  os << "phases=";
  for (std::size_t p = 0; p < obs::kPhaseCount; ++p)
    os << (p == 0 ? "" : ",") << m.phases.get(static_cast<obs::Phase>(p));
  os << "\n";
  return os.str();
}

/// Canonical textual fingerprint of a run: its metrics as above, then the
/// collected-record count and the id lists in declaration order.
std::string describe(const sim::RunResult& result) {
  std::ostringstream os;
  os << "protocol=" << result.protocol
     << " population=" << result.population << "\n";
  os << describe_metrics(result.metrics);
  os << "records=" << result.records.size() << "\n";
  os << "missing_ids=";
  for (std::size_t i = 0; i < result.missing_ids.size(); ++i)
    os << (i == 0 ? "" : ",") << result.missing_ids[i].to_hex();
  os << "\n";
  os << "undelivered_ids=";
  for (std::size_t i = 0; i < result.undelivered_ids.size(); ++i)
    os << (i == 0 ? "" : ",") << result.undelivered_ids[i].to_hex();
  os << "\n";
  os << "fault_layer=" << (result.fault_layer ? 1 : 0) << "\n";
  return os.str();
}

enum class Scenario { kClean, kCleanRecordFree, kFaulted, kUnframedBer };

struct GoldenCase final {
  const char* name;
  protocols::ProtocolKind kind;
  Scenario scenario;
  const char* expected;
};

sim::SessionConfig config_for(Scenario scenario,
                              const tags::TagPopulation& population) {
  switch (scenario) {
    case Scenario::kClean: return clean_config();
    case Scenario::kCleanRecordFree: return clean_record_free_config();
    case Scenario::kFaulted: return faulted_config(population);
    case Scenario::kUnframedBer: return unframed_ber_config();
  }
  return clean_config();
}

void run_case(const GoldenCase& test_case) {
  const tags::TagPopulation population = golden_population();
  const sim::SessionConfig config =
      config_for(test_case.scenario, population);
  const auto protocol = protocols::make_protocol(test_case.kind);
  const std::string actual = describe(protocol->run(population, config));
  if (std::getenv("RFID_GOLDEN_REGEN") != nullptr) {
    std::cout << "=== GOLDEN " << test_case.name << " ===\n"
              << actual << "=== END " << test_case.name << " ===\n";
    GTEST_SKIP() << "regeneration mode: printed actual block, not asserting";
  }
  EXPECT_EQ(actual, test_case.expected) << test_case.name;
}

// --- Pinned goldens (pre-refactor main; DO NOT EDIT to make tests pass) ----

constexpr GoldenCase kHppClean{
    "hpp_clean", protocols::ProtocolKind::kHpp, Scenario::kClean,
    "protocol=HPP population=300\n"
    "polls=300 missing=0 corrupted=0 retries=0 undelivered=0\n"
    "rounds=10 circles=0 slots_total=300 slots_useful=300 slots_wasted=0\n"
    "vector_bits=2448 command_bits=320 tag_bits=300\n"
    "segments_sent=0 segments_corrupted=0 segments_retransmitted=0 downlink_corrupted=0 degradations=0 framing_overhead_bits=0\n"
    "time_us=0x1.88c6cccccccc2p+17\n"
    "phases=0x1.0ad4cccccccbcp+17,0x1.767ffffffffffp+13,0x1.5f9p+15,0x1.d4cp+12,0x0p+0,0x0p+0\n"
    "records=300\n"
    "missing_ids=\n"
    "undelivered_ids=\n"
    "fault_layer=0\n"};

constexpr GoldenCase kEhppClean{
    "ehpp_clean", protocols::ProtocolKind::kEhpp, Scenario::kClean,
    "protocol=EHPP population=300\n"
    "polls=300 missing=0 corrupted=0 retries=0 undelivered=0\n"
    "rounds=14 circles=1 slots_total=300 slots_useful=300 slots_wasted=0\n"
    "vector_bits=2613 command_bits=0 tag_bits=300\n"
    "segments_sent=0 segments_corrupted=0 segments_retransmitted=0 downlink_corrupted=0 degradations=0 framing_overhead_bits=0\n"
    "time_us=0x1.7d706ccccccdap+17\n"
    "phases=0x1.16e66ccccccc3p+17,0x0p+0,0x1.5f9p+15,0x1.d4cp+12,0x0p+0,0x0p+0\n"
    "records=300\n"
    "missing_ids=\n"
    "undelivered_ids=\n"
    "fault_layer=0\n"};

constexpr GoldenCase kTppClean{
    "tpp_clean", protocols::ProtocolKind::kTpp, Scenario::kClean,
    "protocol=TPP population=300\n"
    "polls=300 missing=0 corrupted=0 retries=0 undelivered=0\n"
    "rounds=9 circles=0 slots_total=300 slots_useful=300 slots_wasted=0\n"
    "vector_bits=923 command_bits=288 tag_bits=300\n"
    "segments_sent=0 segments_corrupted=0 segments_retransmitted=0 downlink_corrupted=0 degradations=0 framing_overhead_bits=0\n"
    "time_us=0x1.16e3f99999995p+17\n"
    "phases=0x1.3692599999995p+16,0x1.510ccccccccccp+13,0x1.5f9p+15,0x1.d4cp+12,0x0p+0,0x0p+0\n"
    "records=300\n"
    "missing_ids=\n"
    "undelivered_ids=\n"
    "fault_layer=0\n"};

constexpr GoldenCase kAdaptClean{
    "adapt_clean", protocols::ProtocolKind::kAdaptive, Scenario::kClean,
    "protocol=ADAPT population=300\n"
    "polls=300 missing=0 corrupted=0 retries=0 undelivered=0\n"
    "rounds=9 circles=0 slots_total=300 slots_useful=300 slots_wasted=0\n"
    "vector_bits=923 command_bits=288 tag_bits=300\n"
    "segments_sent=0 segments_corrupted=0 segments_retransmitted=0 downlink_corrupted=0 degradations=0 framing_overhead_bits=0\n"
    "time_us=0x1.16e3f99999995p+17\n"
    "phases=0x1.3692599999995p+16,0x1.510ccccccccccp+13,0x1.5f9p+15,0x1.d4cp+12,0x0p+0,0x0p+0\n"
    "records=300\n"
    "missing_ids=\n"
    "undelivered_ids=\n"
    "fault_layer=0\n"};

constexpr GoldenCase kHppFaulted{
    "hpp_faulted", protocols::ProtocolKind::kHpp, Scenario::kFaulted,
    "protocol=HPP population=300\n"
    "polls=291 missing=87 corrupted=38 retries=96 undelivered=9\n"
    "rounds=9 circles=0 slots_total=416 slots_useful=291 slots_wasted=125\n"
    "vector_bits=3219 command_bits=8835 tag_bits=2328\n"
    "segments_sent=422 segments_corrupted=3 segments_retransmitted=3 downlink_corrupted=0 degradations=0 framing_overhead_bits=8547\n"
    "time_us=0x1.39bd633333321p+19\n"
    "phases=0x1.05db80000001ap+17,0x1.f4e4cccccccccp+17,0x1.2d2cp+15,0x1.919p+15,0x1.915d999999991p+14,0x1.0a5a8cccccccbp+17\n"
    "records=291\n"
    "missing_ids=\n"
    "undelivered_ids=edfddff7fe5482d2ba2f18ed,fbfc472c0aa857486f546d15,e7a6aabee3c9ec4d5998ccd6,99cfb7ddd11923a1cd34ff5b,28393ab3228360bbcb91e0ea,b239b5a833d473061ee7e29d,fb582809a2650f24b261e72f,06493709716f34eb8824dbe1,4bc0f22be7642745f8753609\n"
    "fault_layer=1\n"};

constexpr GoldenCase kEhppFaulted{
    "ehpp_faulted", protocols::ProtocolKind::kEhpp, Scenario::kFaulted,
    "protocol=EHPP population=300\n"
    "polls=291 missing=84 corrupted=19 retries=75 undelivered=9\n"
    "rounds=17 circles=1 slots_total=394 slots_useful=291 slots_wasted=103\n"
    "vector_bits=3245 command_bits=8260 tag_bits=2328\n"
    "segments_sent=409 segments_corrupted=3 segments_retransmitted=3 downlink_corrupted=0 degradations=0 framing_overhead_bits=8260\n"
    "time_us=0x1.2a9fee6666675p+19\n"
    "phases=0x1.1d56399999988p+17,0x1.ee75p+17,0x1.3ecp+15,0x1.a9p+15,0x1.178a666666662p+14,0x1.83a666666667p+16\n"
    "records=291\n"
    "missing_ids=\n"
    "undelivered_ids=b239b5a833d473061ee7e29d,99cfb7ddd11923a1cd34ff5b,fbfc472c0aa857486f546d15,e7a6aabee3c9ec4d5998ccd6,28393ab3228360bbcb91e0ea,06493709716f34eb8824dbe1,4bc0f22be7642745f8753609,edfddff7fe5482d2ba2f18ed,fb582809a2650f24b261e72f\n"
    "fault_layer=1\n"};

constexpr GoldenCase kTppFaulted{
    "tpp_faulted", protocols::ProtocolKind::kTpp, Scenario::kFaulted,
    "protocol=TPP population=300\n"
    "polls=291 missing=84 corrupted=25 retries=81 undelivered=9\n"
    "rounds=13 circles=0 slots_total=400 slots_useful=291 slots_wasted=109\n"
    "vector_bits=1522 command_bits=3108 tag_bits=2328\n"
    "segments_sent=132 segments_corrupted=1 segments_retransmitted=1 downlink_corrupted=0 degradations=0 framing_overhead_bits=2692\n"
    "time_us=0x1.5c5a5ffffffdfp+18\n"
    "phases=0x1.35b1a66666682p+16,0x1.afd8666666668p+15,0x1.3d94p+15,0x1.a77p+15,0x1.1f59999999994p+14,0x1.a973400000007p+16\n"
    "records=291\n"
    "missing_ids=\n"
    "undelivered_ids=06493709716f34eb8824dbe1,fbfc472c0aa857486f546d15,28393ab3228360bbcb91e0ea,4bc0f22be7642745f8753609,99cfb7ddd11923a1cd34ff5b,e7a6aabee3c9ec4d5998ccd6,edfddff7fe5482d2ba2f18ed,fb582809a2650f24b261e72f,b239b5a833d473061ee7e29d\n"
    "fault_layer=1\n"};

constexpr GoldenCase kAdaptFaulted{
    "adapt_faulted", protocols::ProtocolKind::kAdaptive, Scenario::kFaulted,
    "protocol=ADAPT population=300\n"
    "polls=291 missing=84 corrupted=25 retries=81 undelivered=9\n"
    "rounds=13 circles=0 slots_total=400 slots_useful=291 slots_wasted=109\n"
    "vector_bits=1522 command_bits=3108 tag_bits=2328\n"
    "segments_sent=132 segments_corrupted=1 segments_retransmitted=1 downlink_corrupted=0 degradations=0 framing_overhead_bits=2692\n"
    "time_us=0x1.5c5a5ffffffdfp+18\n"
    "phases=0x1.35b1a66666682p+16,0x1.afd8666666668p+15,0x1.3d94p+15,0x1.a77p+15,0x1.1f59999999994p+14,0x1.a973400000007p+16\n"
    "records=291\n"
    "missing_ids=\n"
    "undelivered_ids=06493709716f34eb8824dbe1,fbfc472c0aa857486f546d15,28393ab3228360bbcb91e0ea,4bc0f22be7642745f8753609,99cfb7ddd11923a1cd34ff5b,e7a6aabee3c9ec4d5998ccd6,edfddff7fe5482d2ba2f18ed,fb582809a2650f24b261e72f,b239b5a833d473061ee7e29d\n"
    "fault_layer=1\n"};

constexpr GoldenCase kHppUnframedBer{
    "hpp_unframed_ber", protocols::ProtocolKind::kHpp, Scenario::kUnframedBer,
    "protocol=HPP population=300\n"
    "polls=300 missing=0 corrupted=0 retries=3 undelivered=0\n"
    "rounds=9 circles=0 slots_total=303 slots_useful=300 slots_wasted=3\n"
    "vector_bits=2472 command_bits=288 tag_bits=300\n"
    "segments_sent=0 segments_corrupted=0 segments_retransmitted=0 downlink_corrupted=3 degradations=0 framing_overhead_bits=0\n"
    "time_us=0x1.89f2b33333328p+17\n"
    "phases=0x1.07e7cccccccbdp+17,0x1.510ccccccccccp+13,0x1.5c0cp+15,0x1.d01p+12,0x1.d446666666667p+10,0x1.e706666666667p+10\n"
    "records=300\n"
    "missing_ids=\n"
    "undelivered_ids=\n"
    "fault_layer=1\n"};

constexpr GoldenCase kEhppUnframedBer{
    "ehpp_unframed_ber", protocols::ProtocolKind::kEhpp,
    Scenario::kUnframedBer, "protocol=EHPP population=300\n"
    "polls=300 missing=0 corrupted=0 retries=2 undelivered=0\n"
    "rounds=15 circles=1 slots_total=302 slots_useful=300 slots_wasted=2\n"
    "vector_bits=2664 command_bits=0 tag_bits=300\n"
    "segments_sent=0 segments_corrupted=0 segments_retransmitted=0 downlink_corrupted=2 degradations=0 framing_overhead_bits=0\n"
    "time_us=0x1.825733333333dp+17\n"
    "phases=0x1.17d9d9999998dp+17,0x0p+0,0x1.5d38p+15,0x1.d1ap+12,0x1.2256666666667p+10,0x1.2ed6666666667p+10\n"
    "records=300\n"
    "missing_ids=\n"
    "undelivered_ids=\n"
    "fault_layer=1\n"};

constexpr GoldenCase kTppUnframedBer{
    "tpp_unframed_ber", protocols::ProtocolKind::kTpp, Scenario::kUnframedBer,
    "protocol=TPP population=300\n"
    "polls=300 missing=0 corrupted=0 retries=0 undelivered=0\n"
    "rounds=10 circles=0 slots_total=300 slots_useful=300 slots_wasted=0\n"
    "vector_bits=876 command_bits=320 tag_bits=300\n"
    "segments_sent=0 segments_corrupted=0 segments_retransmitted=0 downlink_corrupted=0 degradations=0 framing_overhead_bits=0\n"
    "time_us=0x1.15cb199999995p+17\n"
    "phases=0x1.2fb233333332ep+16,0x1.767ffffffffffp+13,0x1.5f9p+15,0x1.d4cp+12,0x0p+0,0x0p+0\n"
    "records=300\n"
    "missing_ids=\n"
    "undelivered_ids=\n"
    "fault_layer=1\n"};

constexpr GoldenCase kAdaptUnframedBer{
    "adapt_unframed_ber", protocols::ProtocolKind::kAdaptive,
    Scenario::kUnframedBer, "protocol=ADAPT population=300\n"
    "polls=300 missing=0 corrupted=0 retries=0 undelivered=0\n"
    "rounds=10 circles=0 slots_total=300 slots_useful=300 slots_wasted=0\n"
    "vector_bits=876 command_bits=320 tag_bits=300\n"
    "segments_sent=0 segments_corrupted=0 segments_retransmitted=0 downlink_corrupted=0 degradations=0 framing_overhead_bits=0\n"
    "time_us=0x1.15cb199999995p+17\n"
    "phases=0x1.2fb233333332ep+16,0x1.767ffffffffffp+13,0x1.5f9p+15,0x1.d4cp+12,0x0p+0,0x0p+0\n"
    "records=300\n"
    "missing_ids=\n"
    "undelivered_ids=\n"
    "fault_layer=1\n"};

// --- Record-free clean goldens (generated before TPP joined the clean-round
// fast path; DO NOT EDIT to make tests pass) ---------------------------------

constexpr GoldenCase kHppCleanRecordFree{
    "hpp_clean_record_free", protocols::ProtocolKind::kHpp,
    Scenario::kCleanRecordFree,
    "protocol=HPP population=300\n"
    "polls=300 missing=0 corrupted=0 retries=0 undelivered=0\n"
    "rounds=10 circles=0 slots_total=300 slots_useful=300 slots_wasted=0\n"
    "vector_bits=2448 command_bits=320 tag_bits=300\n"
    "segments_sent=0 segments_corrupted=0 segments_retransmitted=0 downlink_corrupted=0 degradations=0 framing_overhead_bits=0\n"
    "time_us=0x1.88c6cccccccc2p+17\n"
    "phases=0x1.0ad4cccccccbcp+17,0x1.767ffffffffffp+13,0x1.5f9p+15,0x1.d4cp+12,0x0p+0,0x0p+0\n"
    "records=0\n"
    "missing_ids=\n"
    "undelivered_ids=\n"
    "fault_layer=0\n"};

constexpr GoldenCase kEhppCleanRecordFree{
    "ehpp_clean_record_free", protocols::ProtocolKind::kEhpp,
    Scenario::kCleanRecordFree,
    "protocol=EHPP population=300\n"
    "polls=300 missing=0 corrupted=0 retries=0 undelivered=0\n"
    "rounds=14 circles=1 slots_total=300 slots_useful=300 slots_wasted=0\n"
    "vector_bits=2613 command_bits=0 tag_bits=300\n"
    "segments_sent=0 segments_corrupted=0 segments_retransmitted=0 downlink_corrupted=0 degradations=0 framing_overhead_bits=0\n"
    "time_us=0x1.7d706ccccccdap+17\n"
    "phases=0x1.16e66ccccccc3p+17,0x0p+0,0x1.5f9p+15,0x1.d4cp+12,0x0p+0,0x0p+0\n"
    "records=0\n"
    "missing_ids=\n"
    "undelivered_ids=\n"
    "fault_layer=0\n"};

constexpr GoldenCase kTppCleanRecordFree{
    "tpp_clean_record_free", protocols::ProtocolKind::kTpp,
    Scenario::kCleanRecordFree,
    "protocol=TPP population=300\n"
    "polls=300 missing=0 corrupted=0 retries=0 undelivered=0\n"
    "rounds=9 circles=0 slots_total=300 slots_useful=300 slots_wasted=0\n"
    "vector_bits=923 command_bits=288 tag_bits=300\n"
    "segments_sent=0 segments_corrupted=0 segments_retransmitted=0 downlink_corrupted=0 degradations=0 framing_overhead_bits=0\n"
    "time_us=0x1.16e3f99999995p+17\n"
    "phases=0x1.3692599999995p+16,0x1.510ccccccccccp+13,0x1.5f9p+15,0x1.d4cp+12,0x0p+0,0x0p+0\n"
    "records=0\n"
    "missing_ids=\n"
    "undelivered_ids=\n"
    "fault_layer=0\n"};

constexpr GoldenCase kAdaptCleanRecordFree{
    "adapt_clean_record_free", protocols::ProtocolKind::kAdaptive,
    Scenario::kCleanRecordFree,
    "protocol=ADAPT population=300\n"
    "polls=300 missing=0 corrupted=0 retries=0 undelivered=0\n"
    "rounds=9 circles=0 slots_total=300 slots_useful=300 slots_wasted=0\n"
    "vector_bits=923 command_bits=288 tag_bits=300\n"
    "segments_sent=0 segments_corrupted=0 segments_retransmitted=0 downlink_corrupted=0 degradations=0 framing_overhead_bits=0\n"
    "time_us=0x1.16e3f99999995p+17\n"
    "phases=0x1.3692599999995p+16,0x1.510ccccccccccp+13,0x1.5f9p+15,0x1.d4cp+12,0x0p+0,0x0p+0\n"
    "records=0\n"
    "missing_ids=\n"
    "undelivered_ids=\n"
    "fault_layer=0\n"};

// --- EHPP trial series in the sparse-member regime ---------------------------

/// Every Metrics field of a series' totals, then each trial's outcome.
std::string describe_series(const parallel::TrialSeries& series) {
  const sim::Metrics& m = series.totals;
  std::ostringstream os;
  os << describe_metrics(m);
  os << "reader_crashes=" << m.reader_crashes
     << " reader_stalls=" << m.reader_stalls
     << " reader_restarts=" << m.reader_restarts
     << " handoffs=" << m.handoffs << "\n";
  os << std::hexfloat;
  for (std::size_t t = 0; t < series.outcomes.size(); ++t) {
    const parallel::TrialOutcome& o = series.outcomes[t];
    os << "trial " << t << ": w=" << o.avg_vector_bits
       << " time_s=" << o.exec_time_s << " rounds=" << o.rounds
       << " waste=" << o.waste_fraction << " polls=" << o.polls << "\n";
  }
  return os.str();
}

constexpr const char* kEhppSparseSeries =
    "polls=60000 missing=0 corrupted=0 retries=0 undelivered=0\n"
    "rounds=2291 circles=270 slots_total=60000 slots_useful=60000 slots_wasted=0\n"
    "vector_bits=540025 command_bits=0 tag_bits=60000\n"
    "segments_sent=0 segments_corrupted=0 segments_retransmitted=0 downlink_corrupted=0 degradations=0 framing_overhead_bits=0\n"
    "time_us=0x1.2efa601fffdcp+25\n"
    "phases=0x1.bdbd2040006e3p+24,0x0p+0,0x1.12a88p+23,0x1.6e36p+20,0x0p+0,0x0p+0\n"
    "reader_crashes=0 reader_stalls=0 reader_restarts=0 handoffs=0\n"
    "trial 0: w=0x1.2091457ed6e75p+3 time_s=0x1.3e01bbf7924cp+4 rounds=0x1.21p+10 waste=0x0p+0 polls=0x1.d4cp+14\n"
    "trial 1: w=0x1.1f758e219652cp+3 time_s=0x1.3d625b4c56cc5p+4 rounds=0x1.1bcp+10 waste=0x0p+0 polls=0x1.d4cp+14\n";

TEST(GoldenRuns, EhppSparseTrialSeries) {
  // At n = 30,000 a circle admits about n* / n_remaining of the unread tags,
  // so most 8-tag groups of the vector split hold no member: the regime of
  // the paper's n = 1e4 and 1e5 EHPP trial series. One-bit payloads, as in
  // Table I.
  parallel::TrialPlan plan;
  plan.trials = 2;
  plan.master_seed = 30'000;
  plan.session.info_bits = 1;
  const std::string actual = describe_series(parallel::run_trials(
      protocols::Ehpp(), parallel::uniform_population(30'000), plan));
  if (std::getenv("RFID_GOLDEN_REGEN") != nullptr) {
    std::cout << "=== GOLDEN ehpp_sparse_series ===\n"
              << actual << "=== END ehpp_sparse_series ===\n";
    GTEST_SKIP() << "regeneration mode: printed actual block, not asserting";
  }
  EXPECT_EQ(actual, kEhppSparseSeries);
}

// --- Event-stream digests ---------------------------------------------------
//
// The goldens above pin Metrics totals, which cannot see an event that moved
// or a charge split differently across events. These pin the whole JSONL
// event stream (obs::JsonlSink) of the downlink's busiest paths: the framed
// retransmission ladder under recovery, and the unframed BER draws that
// desynchronize TPP's shared register.

/// Framed downlink at BER 0.002 with recovery: segments, retransmissions,
/// NACK windows and recovery scopes all reach the stream.
sim::SessionConfig framed_ber_stream_config() {
  sim::SessionConfig config;
  config.seed = 9004;
  config.fault.downlink_ber = 0.002;
  config.framing.enabled = true;
  config.recovery.enabled = true;
  return config;
}

/// Unframed BER high enough that TPP's tree segments are hit: corrupted
/// polls, the stranded rest of each such round, and their mop-up.
sim::SessionConfig unframed_ber_stream_config() {
  sim::SessionConfig config;
  config.seed = 9005;
  config.fault.downlink_ber = 0.02;
  config.recovery.enabled = true;
  config.recovery.retry_budget = 20;
  config.recovery.mop_up_passes = 2;
  return config;
}

/// A run's Metrics, and its JSONL stream as line count (the meta line and
/// one per event), byte count and 64-bit FNV-1a.
struct StreamDigest final {
  sim::Metrics metrics{};
  std::string text;
};

StreamDigest digest_stream(protocols::ProtocolKind kind,
                           sim::SessionConfig config) {
  const tags::TagPopulation population = golden_population();
  std::ostringstream stream;
  obs::JsonlSink sink(stream);
  config.tracer = &sink;
  const sim::RunResult result =
      protocols::make_protocol(kind)->run(population, config);
  const std::string jsonl = stream.str();
  std::uint64_t h = 0xcbf29ce484222325ULL;
  std::size_t events = 0;
  for (const char c : jsonl) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
    events += c == '\n' ? 1 : 0;
  }
  std::ostringstream os;
  os << result.protocol << " events=" << events << " bytes=" << jsonl.size()
     << " fnv=" << std::hex << h;
  return StreamDigest{result.metrics, os.str()};
}

void expect_stream(const char* name, const StreamDigest& actual,
                   const char* expected) {
  if (std::getenv("RFID_GOLDEN_REGEN") != nullptr) {
    std::cout << "=== STREAM " << name << " ===\n"
              << actual.text << "\n=== END " << name << " ===\n";
    GTEST_SKIP() << "regeneration mode: printed actual digest, not asserting";
  }
  EXPECT_EQ(actual.text, expected) << name;
}

TEST(EventStreamGolden, FramedBerHpp) {
  const StreamDigest d = digest_stream(protocols::ProtocolKind::kHpp,
                                       framed_ber_stream_config());
  EXPECT_GT(d.metrics.segments_retransmitted, 0u);
  expect_stream("framed_ber_hpp", d,
                "HPP events=947 bytes=196782 fnv=f72bda1ce4cb3007");
}

TEST(EventStreamGolden, FramedBerEhpp) {
  const StreamDigest d = digest_stream(protocols::ProtocolKind::kEhpp,
                                       framed_ber_stream_config());
  EXPECT_GT(d.metrics.segments_retransmitted, 0u);
  expect_stream("framed_ber_ehpp", d,
                "EHPP events=960 bytes=199550 fnv=c5318a0dd015c891");
}

TEST(EventStreamGolden, FramedBerTpp) {
  const StreamDigest d = digest_stream(protocols::ProtocolKind::kTpp,
                                       framed_ber_stream_config());
  EXPECT_GT(d.metrics.segments_retransmitted, 0u);
  expect_stream("framed_ber_tpp", d,
                "TPP events=670 bytes=133688 fnv=90aeaf4856d784fe");
}

TEST(EventStreamGolden, FramedBerAdapt) {
  const StreamDigest d = digest_stream(protocols::ProtocolKind::kAdaptive,
                                       framed_ber_stream_config());
  EXPECT_GT(d.metrics.segments_retransmitted, 0u);
  expect_stream("framed_ber_adapt", d,
                "ADAPT events=670 bytes=133688 fnv=90aeaf4856d784fe");
}

TEST(EventStreamGolden, UnframedBerTppDesync) {
  const StreamDigest d = digest_stream(protocols::ProtocolKind::kTpp,
                                       unframed_ber_stream_config());
  // A corrupted segment strands the rest of its round: the stream must
  // carry both the corrupted polls and the unanswered ones after them.
  EXPECT_GT(d.metrics.downlink_corrupted, 0u);
  EXPECT_GT(d.metrics.slots_wasted, d.metrics.downlink_corrupted);
  expect_stream("unframed_ber_tpp", d,
                "TPP events=1113 bytes=225144 fnv=929435029967a2d1");
}

TEST(GoldenRuns, HppClean) { run_case(kHppClean); }
TEST(GoldenRuns, EhppClean) { run_case(kEhppClean); }
TEST(GoldenRuns, TppClean) { run_case(kTppClean); }
TEST(GoldenRuns, AdaptClean) { run_case(kAdaptClean); }
TEST(GoldenRuns, HppFaulted) { run_case(kHppFaulted); }
TEST(GoldenRuns, EhppFaulted) { run_case(kEhppFaulted); }
TEST(GoldenRuns, TppFaulted) { run_case(kTppFaulted); }
TEST(GoldenRuns, AdaptFaulted) { run_case(kAdaptFaulted); }
TEST(GoldenRuns, HppUnframedBer) { run_case(kHppUnframedBer); }
TEST(GoldenRuns, EhppUnframedBer) { run_case(kEhppUnframedBer); }
TEST(GoldenRuns, TppUnframedBer) { run_case(kTppUnframedBer); }
TEST(GoldenRuns, AdaptUnframedBer) { run_case(kAdaptUnframedBer); }
TEST(GoldenRuns, HppCleanRecordFree) { run_case(kHppCleanRecordFree); }
TEST(GoldenRuns, EhppCleanRecordFree) { run_case(kEhppCleanRecordFree); }
TEST(GoldenRuns, TppCleanRecordFree) { run_case(kTppCleanRecordFree); }
TEST(GoldenRuns, AdaptCleanRecordFree) { run_case(kAdaptCleanRecordFree); }

}  // namespace
}  // namespace rfid
