// Tests for the thread pool and the Monte-Carlo trial runner.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>

#include "parallel/thread_pool.hpp"
#include "parallel/trial_runner.hpp"
#include "protocols/tree_polling.hpp"

namespace rfid::parallel {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) pool.submit([&counter] { ++counter; });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, TasksSubmittedFromTasks) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int i = 0; i < 10; ++i) {
    pool.submit([&] {
      ++counter;
      pool.submit([&counter] { ++counter; });
    });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 20);
}

TEST(ThreadPool, DefaultsToHardwareConcurrency) {
  ThreadPool pool;
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(ThreadPool, DestructorJoinsCleanly) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 20; ++i) pool.submit([&counter] { ++counter; });
    pool.wait_idle();
  }
  EXPECT_EQ(counter.load(), 20);
}

TEST(TrialRunner, SerialProducesRequestedTrials) {
  protocols::Tpp tpp;
  TrialPlan plan;
  plan.trials = 8;
  const auto series = run_trials(tpp, uniform_population(200), plan);
  EXPECT_EQ(series.outcomes.size(), 8u);
  for (const TrialOutcome& outcome : series.outcomes) {
    EXPECT_EQ(outcome.polls, 200.0);
    EXPECT_GT(outcome.exec_time_s, 0.0);
  }
}

TEST(TrialRunner, ParallelMatchesSerialExactly) {
  // The determinism contract: per-trial outcomes and the trial-order
  // Metrics::merge fold are bit-identical whether trials run on the
  // caller's thread or across a pool.
  protocols::Tpp tpp;
  TrialPlan plan;
  plan.trials = 12;
  plan.master_seed = 99;
  const auto serial = run_trials(tpp, uniform_population(300), plan);
  ThreadPool pool(4);
  const auto parallel = run_trials(tpp, uniform_population(300), plan, &pool);
  ASSERT_EQ(serial.outcomes.size(), parallel.outcomes.size());
  for (std::size_t t = 0; t < serial.outcomes.size(); ++t) {
    EXPECT_DOUBLE_EQ(serial.outcomes[t].exec_time_s,
                     parallel.outcomes[t].exec_time_s);
    EXPECT_DOUBLE_EQ(serial.outcomes[t].avg_vector_bits,
                     parallel.outcomes[t].avg_vector_bits);
  }
  EXPECT_EQ(serial.totals.polls, 12u * 300u);
  EXPECT_EQ(serial.totals.polls, parallel.totals.polls);
  EXPECT_EQ(serial.totals.vector_bits, parallel.totals.vector_bits);
  EXPECT_EQ(serial.totals.time_us, parallel.totals.time_us);  // bitwise
}

TEST(TrialRunner, DifferentMasterSeedsDifferentSeries) {
  protocols::Tpp tpp;
  TrialPlan a, b;
  a.trials = b.trials = 3;
  a.master_seed = 1;
  b.master_seed = 2;
  const auto sa = run_trials(tpp, uniform_population(300), a);
  const auto sb = run_trials(tpp, uniform_population(300), b);
  EXPECT_NE(sa.outcomes[0].exec_time_s, sb.outcomes[0].exec_time_s);
}

TEST(TrialRunner, StatsAggregateOutcomes) {
  protocols::Tpp tpp;
  TrialPlan plan;
  plan.trials = 6;
  const auto series = run_trials(tpp, uniform_population(500), plan);
  const auto w = series.vector_bits();
  EXPECT_EQ(w.count(), 6u);
  EXPECT_GT(w.mean(), 2.0);
  EXPECT_LT(w.mean(), 4.0);
  EXPECT_GE(w.max(), w.mean());
  EXPECT_LE(w.min(), w.mean());
}

TEST(TrialRunner, ExceptionsPropagateFromPool) {
  struct Exploding final : protocols::PollingProtocol {
    [[nodiscard]] std::string_view name() const noexcept override {
      return "boom";
    }
    [[nodiscard]] sim::RunResult run(const tags::TagPopulation&,
                                     const sim::SessionConfig&) const override {
      throw std::runtime_error("boom");
    }
  };
  Exploding proto;
  TrialPlan plan;
  plan.trials = 4;
  ThreadPool pool(2);
  EXPECT_THROW((void)run_trials(proto, uniform_population(10), plan, &pool),
               std::runtime_error);
  EXPECT_THROW((void)run_trials(proto, uniform_population(10), plan),
               std::runtime_error);
}

}  // namespace
}  // namespace rfid::parallel
