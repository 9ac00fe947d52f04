// Fault-injection and recovery tests.
//
// Four contracts, in order: the Gilbert–Elliott chain reproduces its
// closed-form stationary loss; churn schedules replay deterministically
// (same seed, any pool size); a recovery policy either collects every
// present tag or reports the exact undelivered set; and a zero-fault
// configuration is byte-identical to a run that never heard of the fault
// layer.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "core/polling.hpp"
#include "fault/injector.hpp"
#include "fault/recovery.hpp"
#include "obs/phase_timer.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "parallel/trial_runner.hpp"
#include "sim/report_io.hpp"

namespace rfid {
namespace {

using core::ProtocolKind;
using fault::ChurnEvent;
using fault::FaultConfig;
using fault::GilbertElliottParams;
using fault::LinkModel;

tags::TagPopulation make_population(std::size_t n, std::uint64_t seed) {
  Xoshiro256ss rng(seed);
  return tags::TagPopulation::uniform_random(n, rng);
}

// --- Fault models -----------------------------------------------------------

TEST(GilbertElliott, ClosedFormsMatchDefinition) {
  GilbertElliottParams ge;
  ge.p_good_to_bad = 0.1;
  ge.p_bad_to_good = 0.3;
  ge.loss_good = 0.02;
  ge.loss_bad = 0.8;
  const double pi_bad = 0.1 / (0.1 + 0.3);
  EXPECT_DOUBLE_EQ(ge.stationary_bad(), pi_bad);
  EXPECT_DOUBLE_EQ(ge.stationary_loss(),
                   (1.0 - pi_bad) * 0.02 + pi_bad * 0.8);
  GilbertElliottParams frozen;
  frozen.p_good_to_bad = 0.0;
  frozen.p_bad_to_good = 0.0;
  EXPECT_DOUBLE_EQ(frozen.stationary_bad(), 0.0);
}

TEST(GilbertElliott, EmpiricalLossMatchesStationaryClosedForm) {
  FaultConfig config;
  config.link = LinkModel::kGilbertElliott;
  config.gilbert_elliott.p_good_to_bad = 0.05;
  config.gilbert_elliott.p_bad_to_good = 0.40;
  config.gilbert_elliott.loss_good = 0.05;
  config.gilbert_elliott.loss_bad = 0.75;
  fault::FaultInjector injector(config, /*seed=*/1234);

  // Pearson's test assumes independent samples, but consecutive decode
  // attempts of a burst chain are correlated (by (1 - p_gb - p_bg) per
  // step). Thin the chain: count every 16th attempt, by which point the
  // correlation has decayed to ~0.55^16 ≈ 1e-4.
  constexpr std::size_t kDraws = 400000;
  constexpr std::size_t kThin = 16;
  std::size_t counted = 0;
  std::size_t lost = 0;
  for (std::size_t i = 0; i < kDraws; ++i) {
    const bool garbled = injector.corrupt_reply();
    if (i % kThin != 0) continue;
    ++counted;
    if (garbled) ++lost;
  }

  // Chi-square of the {delivered, lost} counts against the closed-form
  // stationary loss; dof = 1, 99% critical value 6.635. The draw is
  // seeded, so this is a deterministic regression check, not a flaky
  // statistical one.
  const double p = config.gilbert_elliott.stationary_loss();
  const std::array<std::size_t, 2> observed{counted - lost, lost};
  const std::array<double, 2> expected{1.0 - p, p};
  EXPECT_LT(chi_square_expected(observed, expected), 6.635)
      << "empirical loss " << double(lost) / double(counted)
      << " vs closed form " << p;
}

TEST(GilbertElliott, LossArrivesInBursts) {
  // Burstiness signature: with sticky states, the number of 01/10
  // alternations in the loss sequence is far below the i.i.d. expectation
  // 2 p (1-p) per adjacent pair.
  FaultConfig config;
  config.link = LinkModel::kGilbertElliott;
  config.gilbert_elliott.p_good_to_bad = 0.02;
  config.gilbert_elliott.p_bad_to_good = 0.10;
  config.gilbert_elliott.loss_good = 0.0;
  config.gilbert_elliott.loss_bad = 1.0;
  fault::FaultInjector injector(config, /*seed=*/77);

  constexpr std::size_t kDraws = 100000;
  std::size_t alternations = 0;
  std::size_t lost = 0;
  bool prev = false;
  for (std::size_t i = 0; i < kDraws; ++i) {
    const bool now = injector.corrupt_reply();
    if (now) ++lost;
    if (i > 0 && now != prev) ++alternations;
    prev = now;
  }
  const double p = double(lost) / kDraws;
  const double iid_expected = 2.0 * p * (1.0 - p) * (kDraws - 1);
  EXPECT_LT(double(alternations), 0.5 * iid_expected);
}

TEST(Churn, FirstArrivalStartsAbsentAndEventsApplyInRoundOrder) {
  const auto pop = make_population(4, 1);
  FaultConfig config;
  // Listed out of order on purpose: the injector sorts by round (stable).
  config.churn.push_back({4, pop[0].id(), ChurnEvent::Kind::kArrive});
  config.churn.push_back({2, pop[0].id(), ChurnEvent::Kind::kDepart});
  config.churn.push_back({3, pop[1].id(), ChurnEvent::Kind::kArrive});
  fault::FaultInjector injector(config, /*seed=*/1);

  // pop[0]'s first event (round 2) is a departure: starts present.
  // pop[1]'s first event (round 3) is an arrival: starts absent.
  EXPECT_TRUE(injector.present(pop[0].id()));
  EXPECT_FALSE(injector.present(pop[1].id()));
  EXPECT_TRUE(injector.present(pop[2].id()));

  injector.advance_to_round(2);
  EXPECT_FALSE(injector.present(pop[0].id()));
  injector.advance_to_round(3);
  EXPECT_TRUE(injector.present(pop[1].id()));
  injector.advance_to_round(4);
  EXPECT_TRUE(injector.present(pop[0].id()));
}

TEST(Recovery, TrackerEnforcesBudget) {
  fault::RecoveryConfig config;
  config.enabled = true;
  config.retry_budget = 2;
  fault::RecoveryCoordinator tracker(config);
  const TagId id = make_population(1, 9)[0].id();
  EXPECT_TRUE(tracker.take_attempt(id));
  EXPECT_TRUE(tracker.take_attempt(id));
  EXPECT_FALSE(tracker.take_attempt(id));
  EXPECT_TRUE(tracker.exhausted(id));
  EXPECT_EQ(tracker.attempts(id), 2u);
}

TEST(Recovery, NestedScopesViolateContract) {
  // Phase charging assumes at most one recovery scope is open: a nested
  // scope would re-enter recovery_phase_begin() and let the inner dtor
  // silently end the outer phase, mischarging airtime. The coordinator
  // rejects the second scope up front.
  const auto pop = make_population(4, 5);
  sim::SessionConfig session_config;
  session_config.recovery.enabled = true;
  sim::Session session(pop, session_config);
  fault::RecoveryCoordinator coordinator(session_config.recovery);
  fault::RecoveryCoordinator::Scope outer(coordinator, session);
  EXPECT_THROW(fault::RecoveryCoordinator::Scope(coordinator, session),
               ContractViolation);
}

TEST(Recovery, MopUpPassesMustBePositiveWhenEnabled) {
  const auto pop = make_population(8, 2);
  sim::SessionConfig config;
  config.recovery.enabled = true;
  config.recovery.mop_up_passes = 0;
  EXPECT_THROW(sim::Session(pop, config), ContractViolation);
}

// --- Determinism ------------------------------------------------------------

/// A run's result and its full JSONL event stream (obs::JsonlSink).
struct TracedRun final {
  sim::RunResult result;
  std::string events;
};

TracedRun run_traced(const protocols::PollingProtocol& protocol,
                     const tags::TagPopulation& pop,
                     sim::SessionConfig config) {
  std::ostringstream events;
  obs::JsonlSink sink(events);
  config.tracer = &sink;
  sim::RunResult result = protocol.run(pop, config);
  return TracedRun{std::move(result), events.str()};
}

TEST(FaultDeterminism, ChurnScheduleReplaysByteIdentically) {
  const auto pop = make_population(400, 3);
  sim::SessionConfig config;
  config.seed = 11;
  config.recovery.enabled = true;
  config.recovery.retry_budget = 6;
  config.fault.link = LinkModel::kGilbertElliott;
  for (std::size_t i = 0; i < pop.size(); i += 17) {
    config.fault.churn.push_back({2, pop[i].id(), ChurnEvent::Kind::kDepart});
    config.fault.churn.push_back({5, pop[i].id(), ChurnEvent::Kind::kArrive});
  }
  const auto protocol = protocols::make_protocol(ProtocolKind::kHpp);
  const TracedRun a = run_traced(*protocol, pop, config);
  const TracedRun b = run_traced(*protocol, pop, config);
  EXPECT_EQ(sim::to_json(a.result, {true, 2}),
            sim::to_json(b.result, {true, 2}));
  EXPECT_EQ(a.events, b.events);
  EXPECT_GT(a.result.metrics.rounds, 1u);
  EXPECT_TRUE(a.result.fault_layer);
}

TEST(FaultDeterminism, SerialAndPooledTrialsAgreeUnderFaults) {
  parallel::TrialPlan plan;
  plan.trials = 12;
  plan.master_seed = 21;
  plan.session.fault.link = LinkModel::kGilbertElliott;
  plan.session.recovery.enabled = true;
  plan.session.recovery.retry_budget = 10;
  const auto protocol = protocols::make_protocol(ProtocolKind::kTpp);
  const auto factory = parallel::uniform_population(300);

  const auto serial = parallel::run_trials(*protocol, factory, plan, nullptr);
  parallel::ThreadPool pool(4);
  const auto pooled = parallel::run_trials(*protocol, factory, plan, &pool);

  EXPECT_EQ(serial.totals.polls, pooled.totals.polls);
  EXPECT_EQ(serial.totals.corrupted, pooled.totals.corrupted);
  EXPECT_EQ(serial.totals.retries, pooled.totals.retries);
  EXPECT_EQ(serial.totals.undelivered, pooled.totals.undelivered);
  EXPECT_DOUBLE_EQ(serial.totals.time_us, pooled.totals.time_us);
  ASSERT_EQ(serial.outcomes.size(), pooled.outcomes.size());
  for (std::size_t i = 0; i < serial.outcomes.size(); ++i)
    EXPECT_DOUBLE_EQ(serial.outcomes[i].exec_time_s,
                     pooled.outcomes[i].exec_time_s);
}

// --- Recovery semantics -----------------------------------------------------

struct RecoveryCase final {
  ProtocolKind kind;
};

class RecoverySweep : public ::testing::TestWithParam<RecoveryCase> {};

TEST_P(RecoverySweep, CompleteCollectionUnderBurstLossWithRecovery) {
  const auto pop = make_population(600, 5);
  sim::SessionConfig config;
  config.seed = 31;
  config.fault.link = LinkModel::kGilbertElliott;
  config.recovery.enabled = true;
  config.recovery.retry_budget = 50;
  const auto result =
      protocols::make_protocol(GetParam().kind)->run(pop, config);
  // Loss < 1 and a generous budget: every tag must eventually be read.
  const auto verify = sim::verify_complete_collection(pop, result);
  EXPECT_TRUE(verify.ok) << verify.message;
  EXPECT_EQ(result.records.size(), pop.size());
  EXPECT_TRUE(result.undelivered_ids.empty());
  EXPECT_GT(result.metrics.corrupted, 0u);
  // Mop-up re-polls happened and their airtime landed in the recovery
  // phase; the phase split still partitions the clock exactly.
  EXPECT_GT(result.metrics.retries, 0u);
  EXPECT_GT(result.metrics.phases.get(obs::Phase::kRecovery), 0.0);
  double phase_sum = 0.0;
  for (std::size_t p = 0; p < obs::kPhaseCount; ++p)
    phase_sum += result.metrics.phases.get(static_cast<obs::Phase>(p));
  EXPECT_NEAR(phase_sum, result.metrics.time_us,
              1e-9 * result.metrics.time_us);
}

TEST_P(RecoverySweep, BudgetExhaustionReportsExactUndeliveredSet) {
  const auto pop = make_population(500, 6);
  sim::SessionConfig config;
  config.seed = 41;
  config.recovery.enabled = true;
  config.recovery.retry_budget = 4;
  // Every 25th tag departs before the first round and never returns: its
  // budget must run out and it must be reported undelivered — exactly once,
  // and nothing else may be.
  std::vector<TagId> departed;
  for (std::size_t i = 0; i < pop.size(); i += 25) {
    departed.push_back(pop[i].id());
    config.fault.churn.push_back({1, pop[i].id(), ChurnEvent::Kind::kDepart});
  }
  const auto result =
      protocols::make_protocol(GetParam().kind)->run(pop, config);

  const auto verify = sim::verify_complete_collection(pop, result);
  EXPECT_TRUE(verify.ok) << verify.message;
  EXPECT_EQ(result.records.size(), pop.size() - departed.size());
  EXPECT_EQ(result.metrics.undelivered, departed.size());
  auto undelivered = result.undelivered_ids;
  std::sort(undelivered.begin(), undelivered.end());
  std::sort(departed.begin(), departed.end());
  EXPECT_EQ(undelivered, departed);
  // Each abandoned tag consumed its whole budget, no more.
  EXPECT_TRUE(result.missing_ids.empty());
}

INSTANTIATE_TEST_SUITE_P(Protocols, RecoverySweep,
                         ::testing::Values(RecoveryCase{ProtocolKind::kHpp},
                                           RecoveryCase{ProtocolKind::kEhpp},
                                           RecoveryCase{ProtocolKind::kTpp}),
                         [](const auto& param_info) {
                           return std::string(
                               protocols::to_string(param_info.param.kind));
                         });

TEST(Recovery, ChurnedBackTagIsCollectedNotUndelivered) {
  const auto pop = make_population(300, 7);
  sim::SessionConfig config;
  config.seed = 51;
  config.recovery.enabled = true;
  config.recovery.retry_budget = 200;
  // One tag leaves before round 1 and returns at round 3: with a budget
  // that survives the gap, it must end up collected like everyone else.
  config.fault.churn.push_back({1, pop[0].id(), ChurnEvent::Kind::kDepart});
  config.fault.churn.push_back({3, pop[0].id(), ChurnEvent::Kind::kArrive});
  const auto result =
      protocols::make_protocol(ProtocolKind::kHpp)->run(pop, config);
  const auto verify = sim::verify_complete_collection(pop, result);
  EXPECT_TRUE(verify.ok) << verify.message;
  EXPECT_EQ(result.records.size(), pop.size());
  EXPECT_TRUE(result.undelivered_ids.empty());
  EXPECT_GT(result.metrics.retries, 0u);
}

TEST(Recovery, BernoulliLinkModelAlsoRecovers) {
  const auto pop = make_population(400, 8);
  sim::SessionConfig config;
  config.seed = 61;
  config.fault.link = LinkModel::kBernoulli;
  config.fault.bernoulli_loss = 0.3;
  config.recovery.enabled = true;
  config.recovery.retry_budget = 60;
  const auto result =
      protocols::make_protocol(ProtocolKind::kEhpp)->run(pop, config);
  const auto verify = sim::verify_complete_collection(pop, result);
  EXPECT_TRUE(verify.ok) << verify.message;
  EXPECT_EQ(result.records.size(), pop.size());
}

// --- Zero-fault byte-identity ----------------------------------------------

TEST(ZeroFault, ExplicitlyDisabledPlanIsByteIdenticalToDefault) {
  const auto pop = make_population(500, 9);
  sim::SessionConfig vanilla;
  vanilla.seed = 71;
  sim::SessionConfig spelled_out = vanilla;
  spelled_out.fault = FaultConfig{};       // kNone link, empty churn
  spelled_out.recovery = fault::RecoveryConfig{};  // disabled
  for (const ProtocolKind kind :
       {ProtocolKind::kHpp, ProtocolKind::kEhpp, ProtocolKind::kTpp}) {
    const auto protocol = protocols::make_protocol(kind);
    const TracedRun a = run_traced(*protocol, pop, vanilla);
    const TracedRun b = run_traced(*protocol, pop, spelled_out);
    EXPECT_EQ(sim::to_json(a.result, {true, 2}),
              sim::to_json(b.result, {true, 2}))
        << protocols::to_string(kind);
    EXPECT_EQ(a.events, b.events) << protocols::to_string(kind);
    EXPECT_FALSE(a.result.fault_layer);
  }
}

TEST(ZeroFault, ReportOmitsFaultFieldsEntirely) {
  const auto pop = make_population(200, 10);
  sim::SessionConfig config;
  config.seed = 81;
  const auto result =
      protocols::make_protocol(ProtocolKind::kTpp)->run(pop, config);
  const std::string json = sim::to_json(result, {false, 2});
  // The fault-layer keys must not leak into clean-channel reports: their
  // absence is what keeps pre-fault-layer consumers byte-compatible.
  EXPECT_EQ(json.find("retries"), std::string::npos);
  EXPECT_EQ(json.find("undelivered"), std::string::npos);
  EXPECT_EQ(json.find("recovery"), std::string::npos);
}

TEST(ZeroFault, FaultyRunReportsFaultFields) {
  const auto pop = make_population(200, 11);
  sim::SessionConfig config;
  config.seed = 91;
  config.fault.link = LinkModel::kGilbertElliott;
  config.recovery.enabled = true;
  const auto result =
      protocols::make_protocol(ProtocolKind::kTpp)->run(pop, config);
  const std::string json = sim::to_json(result);
  EXPECT_NE(json.find("\"retries\""), std::string::npos);
  EXPECT_NE(json.find("\"undelivered\""), std::string::npos);
  EXPECT_NE(json.find("\"recovery\""), std::string::npos);
  EXPECT_NE(json.find("\"undelivered_ids\""), std::string::npos);
}

}  // namespace
}  // namespace rfid
