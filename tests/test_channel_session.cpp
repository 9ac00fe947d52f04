// Unit tests for the air channel and the session accounting primitives.
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "air/channel.hpp"
#include "common/error.hpp"
#include "sim/session.hpp"
#include "sim/verify.hpp"

namespace rfid {
namespace {

using sim::Session;
using sim::SessionConfig;
using tags::Tag;
using tags::TagPopulation;

TagPopulation two_tags() {
  std::vector<Tag> tags;
  tags.emplace_back(TagId::from_hex("000000000000000000000001"));
  tags.emplace_back(TagId::from_hex("000000000000000000000002"));
  return TagPopulation(std::move(tags));
}

TEST(Channel, ClassifiesOutcomes) {
  air::Channel channel;
  const auto pop = two_tags();
  const Tag* one = &pop[0];
  const std::array<const Tag*, 2> both{&pop[0], &pop[1]};

  EXPECT_EQ(channel.arbitrate({}).outcome, air::SlotOutcome::kEmpty);
  const auto single = channel.arbitrate({&one, 1});
  EXPECT_EQ(single.outcome, air::SlotOutcome::kSingleton);
  EXPECT_EQ(single.responder, one);
  EXPECT_EQ(channel.arbitrate(both).outcome, air::SlotOutcome::kCollision);

  EXPECT_EQ(channel.stats().empty_slots, 1u);
  EXPECT_EQ(channel.stats().singleton_slots, 1u);
  EXPECT_EQ(channel.stats().collision_slots, 1u);
  EXPECT_EQ(channel.stats().total(), 3u);
}

TEST(Session, PollAccountsBitsAndTime) {
  const auto pop = two_tags();
  SessionConfig config;
  config.info_bits = 1;
  Session session(pop, config);
  const Tag* responder = &pop[0];
  const Tag* polled = session.air().poll({&responder, 1}, &pop[0], 10);
  ASSERT_NE(polled, nullptr);
  EXPECT_EQ(polled, &pop[0]);
  EXPECT_EQ(session.metrics().polls, 1u);
  EXPECT_EQ(session.metrics().vector_bits, 10u);
  EXPECT_EQ(session.metrics().tag_bits, 1u);
  EXPECT_NEAR(session.metrics().time_us, 37.45 * 14 + 175, 1e-9);
}

TEST(Session, PollBareSkipsQueryRep) {
  const auto pop = two_tags();
  Session session(pop, SessionConfig{});
  const Tag* responder = &pop[0];
  (void)session.air().poll_bare({&responder, 1}, &pop[0], 96);
  EXPECT_NEAR(session.metrics().time_us, 37.45 * 96 + 175, 1e-9);
}

TEST(Session, PollEmptyWithoutAbsenceThrows) {
  const auto pop = two_tags();
  Session session(pop, SessionConfig{});
  EXPECT_THROW((void)session.air().poll({}, &pop[0], 4), ProtocolError);
}

TEST(Session, PollCollisionThrows) {
  const auto pop = two_tags();
  Session session(pop, SessionConfig{});
  const std::array<const Tag*, 2> both{&pop[0], &pop[1]};
  EXPECT_THROW((void)session.air().poll(both, &pop[0], 4), ProtocolError);
}

TEST(Session, WrongResponderThrows) {
  const auto pop = two_tags();
  Session session(pop, SessionConfig{});
  const Tag* responder = &pop[1];
  EXPECT_THROW((void)session.air().poll({&responder, 1}, &pop[0], 4),
               ProtocolError);
}

TEST(Session, AbsentExpectedTagBecomesMissing) {
  const auto pop = two_tags();
  std::unordered_set<TagId, TagIdHash> present{pop[1].id()};
  SessionConfig config;
  config.present = &present;
  Session session(pop, config);
  const Tag* polled = session.air().poll({}, &pop[0], 4);
  EXPECT_EQ(polled, nullptr);
  EXPECT_EQ(session.metrics().missing, 1u);
  EXPECT_EQ(session.metrics().polls, 0u);
  const auto result = session.finish("x");
  ASSERT_EQ(result.missing_ids.size(), 1u);
  EXPECT_EQ(result.missing_ids[0], pop[0].id());
}

TEST(Session, PresentFilterNullMeansAllPresent) {
  const auto pop = two_tags();
  Session session(pop, SessionConfig{});
  EXPECT_TRUE(session.is_present(pop[0].id()));
  EXPECT_TRUE(session.is_present(pop[1].id()));
}

TEST(Session, CommandBitsSeparateFromVectorBits) {
  const auto pop = two_tags();
  Session session(pop, SessionConfig{});
  session.air().broadcast_command_bits(32);
  session.air().broadcast_vector_bits(128);
  EXPECT_EQ(session.metrics().command_bits, 32u);
  EXPECT_EQ(session.metrics().vector_bits, 128u);
  EXPECT_NEAR(session.metrics().time_us, 160 * 37.45, 1e-9);
}

TEST(Session, ExpectEmptySlotThrowsOnResponder) {
  const auto pop = two_tags();
  Session session(pop, SessionConfig{});
  const Tag* responder = &pop[0];
  EXPECT_THROW(session.air().expect_empty_slot({&responder, 1}), ProtocolError);
}

TEST(Session, ExpectEmptySlotAccountsWaste) {
  const auto pop = two_tags();
  Session session(pop, SessionConfig{});
  session.air().expect_empty_slot({});
  EXPECT_EQ(session.metrics().slots_wasted, 1u);
  EXPECT_NEAR(session.metrics().time_us, 4 * 37.45 + 150, 1e-9);
}

TEST(Session, FrameSlotAlohaHandlesAllOutcomes) {
  const auto pop = two_tags();
  SessionConfig config;
  config.info_bits = 4;
  Session session(pop, config);
  const Tag* one = &pop[0];
  const std::array<const Tag*, 2> both{&pop[0], &pop[1]};

  EXPECT_EQ(session.air().frame_slot_aloha({}).outcome, air::SlotOutcome::kEmpty);
  EXPECT_EQ(session.air().frame_slot_aloha({&one, 1}).outcome,
            air::SlotOutcome::kSingleton);
  EXPECT_EQ(session.air().frame_slot_aloha(both).outcome,
            air::SlotOutcome::kCollision);
  EXPECT_EQ(session.metrics().slots_total, 3u);
  EXPECT_EQ(session.metrics().slots_wasted, 2u);
  EXPECT_EQ(session.metrics().slots_useful, 1u);
  EXPECT_EQ(session.metrics().polls, 1u);
}

TEST(Session, RoundBudgetEnforced) {
  const auto pop = two_tags();
  SessionConfig config;
  config.max_rounds = 3;
  Session session(pop, config);
  for (int i = 0; i < 3; ++i) session.begin_round();
  EXPECT_NO_THROW(session.check_round_budget());
  session.begin_round();
  EXPECT_THROW(session.check_round_budget(), ProtocolError);
}

TEST(Session, FinishCarriesRecords) {
  const auto pop = two_tags();
  SessionConfig config;
  config.info_bits = 8;
  Session session(pop, config);
  for (const Tag& tag : pop) {
    const Tag* responder = &tag;
    (void)session.air().poll({&responder, 1}, &tag, 2);
  }
  const auto result = session.finish("demo");
  EXPECT_EQ(result.protocol, "demo");
  EXPECT_EQ(result.population, 2u);
  ASSERT_EQ(result.records.size(), 2u);
  EXPECT_EQ(result.records[0].payload.size(), 8u);
  const auto verify = sim::verify_complete_collection(pop, result);
  EXPECT_TRUE(verify.ok) << verify.message;
}

TEST(Session, KeepRecordsFalseSkipsStorage) {
  const auto pop = two_tags();
  SessionConfig config;
  config.keep_records = false;
  Session session(pop, config);
  const Tag* responder = &pop[0];
  (void)session.air().poll({&responder, 1}, &pop[0], 2);
  EXPECT_TRUE(session.finish("x").records.empty());
}

TEST(Verify, DetectsMissingRecord) {
  const auto pop = two_tags();
  Session session(pop, SessionConfig{});
  const Tag* responder = &pop[0];
  (void)session.air().poll({&responder, 1}, &pop[0], 2);
  const auto result = session.finish("x");
  const auto verify = sim::verify_complete_collection(pop, result);
  EXPECT_FALSE(verify.ok);
}

TEST(Verify, DetectsDuplicateInterrogation) {
  const auto pop = two_tags();
  Session session(pop, SessionConfig{});
  const Tag* responder = &pop[0];
  (void)session.air().poll({&responder, 1}, &pop[0], 2);
  (void)session.air().poll({&responder, 1}, &pop[0], 2);
  const auto result = session.finish("x");
  const auto verify = sim::verify_complete_collection(pop, result);
  EXPECT_FALSE(verify.ok);
  EXPECT_NE(verify.message.find("twice"), std::string::npos);
}

TEST(Verify, DetectsPayloadCorruption) {
  const auto pop = two_tags();
  Session session(pop, SessionConfig{});
  for (const Tag& tag : pop) {
    const Tag* responder = &tag;
    (void)session.air().poll({&responder, 1}, &tag, 2);
  }
  auto result = session.finish("x");
  result.records[0].payload = BitVec("0");
  // Flip the payload bit so it cannot match the derived value.
  if (pop.reply_payload(0, 1) == result.records[0].payload)
    result.records[0].payload = BitVec("1");
  // Re-find the record for tag 0 (records are in poll order).
  const auto verify = sim::verify_complete_collection(pop, result);
  EXPECT_FALSE(verify.ok);
}

TEST(Verify, DetectsUnknownTag) {
  const auto pop = two_tags();
  Session session(pop, SessionConfig{});
  for (const Tag& tag : pop) {
    const Tag* responder = &tag;
    (void)session.air().poll({&responder, 1}, &tag, 2);
  }
  auto result = session.finish("x");
  result.records[1].id = TagId::from_hex("00000000000000000000beef");
  const auto verify = sim::verify_complete_collection(pop, result);
  EXPECT_FALSE(verify.ok);
  EXPECT_NE(verify.message.find("unknown tag"), std::string::npos)
      << verify.message;
}

TEST(Verify, ListsAccountForEachTagOnce) {
  // The pass core::Deployment::finish runs over its merged lists: a tag
  // reported missing and one given up on account for both, with no
  // records; the same tag on both lists does not.
  const auto pop = two_tags();
  const std::vector<TagId> first{pop[0].id()};
  const std::vector<TagId> second{pop[1].id()};
  EXPECT_TRUE(sim::verify_accounted_once(pop, {}, first, second).ok);
  const auto verify = sim::verify_accounted_once(pop, {}, first, first);
  EXPECT_FALSE(verify.ok);
  EXPECT_NE(verify.message.find("twice"), std::string::npos)
      << verify.message;
}

}  // namespace
}  // namespace rfid
