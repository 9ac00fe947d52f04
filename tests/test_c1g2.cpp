// Unit tests for the C1G2 timing model: the numbers here are the paper's
// Section V-A constants, so regressions would silently skew every table.
#include <gtest/gtest.h>

#include "analysis/timing_model.hpp"
#include "phy/c1g2.hpp"

namespace rfid::phy {
namespace {

TEST(C1G2Timing, DefaultsMatchPaperSettings) {
  const C1G2Timing t;
  EXPECT_DOUBLE_EQ(t.t1_us, 100.0);
  EXPECT_DOUBLE_EQ(t.t2_us, 50.0);
  EXPECT_DOUBLE_EQ(t.reader_us_per_bit, 37.45);
  EXPECT_DOUBLE_EQ(t.tag_us_per_bit, 25.0);
  EXPECT_EQ(t.query_rep_bits, 4u);
}

// Reader -> tag is PIE: a data-0 lasts one Tari, a data-1 `data1_taris`
// Taris, so a balanced bit mix averages their mean.
double pie_avg_us_per_bit(double tari_us, double data1_taris = 2.0) {
  return tari_us * (1.0 + data1_taris) / 2.0;
}

// Tag -> reader is FM0: one bit per backscatter-link-frequency cycle.
double fm0_us_per_bit(double blf_khz) { return 1000.0 / blf_khz; }

TEST(LinkRates, PaperForwardRateFromPie) {
  // Tari 25 us with 2-Tari data-1: 37.5 us/bit ~ 26.7 kbps, the paper's
  // reader rate (it quotes the reciprocal rounded to 37.45).
  EXPECT_DOUBLE_EQ(pie_avg_us_per_bit(25.0), 37.5);
  EXPECT_NEAR(1000.0 / pie_avg_us_per_bit(25.0), 26.7, 0.1);
  // Fastest standard setting: Tari 6.25 us, 1.5-Tari data-1 -> 128 kbps.
  EXPECT_NEAR(1000.0 / pie_avg_us_per_bit(6.25, 1.5), 128.0, 0.5);
}

TEST(LinkRates, PaperReturnRateFromFm0) {
  // BLF 40 kHz FM0: 25 us/bit = 40 kbps, the paper's tag rate. FM0 spans
  // 40..640 kbps across the standard's BLF range.
  EXPECT_DOUBLE_EQ(fm0_us_per_bit(40.0), 25.0);
  EXPECT_DOUBLE_EQ(fm0_us_per_bit(640.0), 1.5625);
}

TEST(LinkRates, LinkTimingRecoversPaperSetting) {
  // The paper's defaults are the rates of Tari 25 us PIE and BLF 40 kHz FM0.
  const C1G2Timing paper;
  EXPECT_NEAR(paper.reader_us_per_bit, pie_avg_us_per_bit(25.0), 0.1);
  EXPECT_NEAR(1000.0 / paper.reader_us_per_bit, 26.7, 0.01);
  EXPECT_DOUBLE_EQ(paper.tag_us_per_bit, fm0_us_per_bit(40.0));
  // A model built from the link settings yields the paper's per-poll cost
  // within rounding.
  C1G2Timing derived;
  derived.reader_us_per_bit = pie_avg_us_per_bit(25.0);
  derived.tag_us_per_bit = fm0_us_per_bit(40.0);
  EXPECT_NEAR(derived.poll_us(3, 1), paper.poll_us(3, 1), 1.0);
}

TEST(C1G2Timing, PollFormulaMatchesPaper) {
  // 37.45 * (4 + w) + T1 + 25 l + T2 for w = 3, l = 1.
  const C1G2Timing t;
  EXPECT_NEAR(t.poll_us(3, 1), 37.45 * 7 + 100 + 25 + 50, 1e-9);
}

TEST(C1G2Timing, ZeroVectorPollIsLowerBoundUnit) {
  const C1G2Timing t;
  EXPECT_NEAR(t.poll_us(0, 1), 324.8, 1e-9);  // (299.8 + 25 l), l = 1
  EXPECT_NEAR(t.poll_us(0, 16), 299.8 + 400, 1e-9);
  EXPECT_NEAR(t.poll_us(0, 32), 299.8 + 800, 1e-9);
}

TEST(C1G2Timing, BarePollDropsQueryRep) {
  const C1G2Timing t;
  EXPECT_NEAR(t.poll_bare_us(96, 1), 37.45 * 96 + 175, 1e-9);
  // Table I's CPP row: 3770.2 us per tag at l = 1.
  EXPECT_NEAR(t.poll_bare_us(96, 1) * 1e4 * 1e-6, 37.70, 0.01);
}

TEST(C1G2Timing, LowerBoundMatchesPaperTableI) {
  const C1G2Timing t;
  // Table I LowerBound row at n = 10^4, l = 1: 3.248 s.
  EXPECT_NEAR(t.lower_bound_us(10000, 1) * 1e-6, 3.248, 0.001);
}

TEST(C1G2Timing, IdleSlotShorterThanPoll) {
  const C1G2Timing t;
  EXPECT_LT(t.idle_slot_us(), t.poll_us(0, 1));
  EXPECT_NEAR(t.idle_slot_us(), 4 * 37.45 + 150, 1e-9);
}

TEST(C1G2Timing, CollisionSlotCostsReplyAirtime) {
  const C1G2Timing t;
  EXPECT_DOUBLE_EQ(t.collision_slot_us(16), t.poll_us(0, 16));
}

TEST(C1G2Timing, ReaderAndTagRatesScaleLinearly) {
  const C1G2Timing t;
  EXPECT_DOUBLE_EQ(t.reader_tx_us(100), 3745.0);
  EXPECT_DOUBLE_EQ(t.tag_tx_us(40), 1000.0);
  EXPECT_DOUBLE_EQ(t.reader_tx_us(0), 0.0);
}

TEST(TimingModel, ProjectedTimeMatchesPaperExamples) {
  // Paper Section V-C: TPP with w ~= 3.06 at n = 10^4, l = 1 gives ~4.39 s.
  EXPECT_NEAR(analysis::projected_time_s(10000, 3.06, 1), 4.39, 0.02);
  // HPP with w ~= 13 at the same point gives ~8.12 s.
  EXPECT_NEAR(analysis::projected_time_s(10000, 12.95, 1), 8.12, 0.05);
}

TEST(TimingModel, BareProjectionMatchesCpp) {
  EXPECT_NEAR(analysis::projected_time_s(10000, 96, 1, {}, false), 37.70,
              0.01);
}

TEST(TimingModel, LowerBoundHelper) {
  EXPECT_NEAR(analysis::lower_bound_time_s(10000, 1), 3.248, 0.001);
  EXPECT_NEAR(analysis::lower_bound_time_s(10000, 32), 10.998, 0.001);
}

TEST(C1G2Timing, ExecutionTimeLinearInVectorLength) {
  // Fig. 1 of the paper: execution time is proportional to w.
  const C1G2Timing t;
  const double t0 = t.poll_us(0, 1);
  const double t50 = t.poll_us(50, 1);
  const double t100 = t.poll_us(100, 1);
  EXPECT_NEAR(t100 - t50, t50 - t0, 1e-9);
  EXPECT_NEAR(t50 - t0, 50 * 37.45, 1e-9);
}

}  // namespace
}  // namespace rfid::phy
