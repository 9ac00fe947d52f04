// Exact equality of two runs' Metrics, field by field, for tests that pit
// a fast path against a slow one or against tests/reference_model.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>

#include "obs/metrics.hpp"

namespace rfid {

// Every field below is compared; a field added to Metrics must join them.
static_assert(sizeof(obs::Metrics) ==
                  23 * sizeof(std::uint64_t) + sizeof(double) +
                      sizeof(obs::PhaseBreakdown),
              "compare the new Metrics field in expect_same_metrics");

/// Every counter, the clock and every phase. The doubles are compared
/// bit-exact, not approximately: a batched path must replay the per-poll
/// floating-point accumulation in the same order.
inline void expect_same_metrics(const obs::Metrics& a, const obs::Metrics& b) {
  EXPECT_EQ(a.polls, b.polls);
  EXPECT_EQ(a.missing, b.missing);
  EXPECT_EQ(a.corrupted, b.corrupted);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.undelivered, b.undelivered);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.circles, b.circles);
  EXPECT_EQ(a.slots_total, b.slots_total);
  EXPECT_EQ(a.slots_useful, b.slots_useful);
  EXPECT_EQ(a.slots_wasted, b.slots_wasted);
  EXPECT_EQ(a.vector_bits, b.vector_bits);
  EXPECT_EQ(a.command_bits, b.command_bits);
  EXPECT_EQ(a.tag_bits, b.tag_bits);
  EXPECT_EQ(a.segments_sent, b.segments_sent);
  EXPECT_EQ(a.segments_corrupted, b.segments_corrupted);
  EXPECT_EQ(a.segments_retransmitted, b.segments_retransmitted);
  EXPECT_EQ(a.downlink_corrupted, b.downlink_corrupted);
  EXPECT_EQ(a.degradations, b.degradations);
  EXPECT_EQ(a.reader_crashes, b.reader_crashes);
  EXPECT_EQ(a.reader_stalls, b.reader_stalls);
  EXPECT_EQ(a.reader_restarts, b.reader_restarts);
  EXPECT_EQ(a.handoffs, b.handoffs);
  EXPECT_EQ(a.framing_overhead_bits, b.framing_overhead_bits);
  EXPECT_EQ(a.time_us, b.time_us);
  for (std::size_t p = 0; p < obs::kPhaseCount; ++p)
    EXPECT_EQ(a.phases.us[p], b.phases.us[p]) << "phase " << p;
}

}  // namespace rfid
