#include "protocols/enhanced_hash_polling.hpp"

#include <algorithm>
#include <bit>

#include "analysis/ehpp_model.hpp"
#include "common/error.hpp"
#include "fault/recovery.hpp"
#include "protocols/hash_polling.hpp"

namespace rfid::protocols {

Ehpp::Ehpp() : Ehpp(Config()) {}

Ehpp::Ehpp(Config config)
    : config_(config),
      subset_size_(config.subset_size != 0
                       ? config.subset_size
                       : analysis::ehpp_optimal_subset_size(
                             static_cast<double>(config.circle_command_bits),
                             static_cast<double>(config.round_init_bits))) {}

bool run_ehpp_circle(sim::Session& session, RoundEngine& engine,
                     tags::TagSoA& active, const Ehpp::Config& config,
                     std::size_t subset_target) {
  HppRoundPolicy round_policy(HppRoundConfig{config.round_init_bits,
                                             /*count_init_in_w=*/true});
  if (active.size() <= subset_target) {
    // Small remainders skip the circle machinery: plain HPP (this is why
    // EHPP matches HPP exactly at n = 100 in the paper's tables).
    engine.run_rounds(active, round_policy);
    return true;
  }

  // Circle command <f, F, r>: counted into w per the paper's accounting.
  // The parameters travel as a concrete 128-bit frame; tags act on the
  // decoded values.
  session.begin_circle();
  if (session.framing_enabled()) {
    // The long circle frame spans several CRC segments; all of them must
    // survive or no tag knows the membership rule and the circle is off.
    if (!session.air().broadcast_framed(config.circle_command_bits,
                                        /*count_in_w=*/true))
      return false;
  } else {
    session.air().broadcast_vector_bits(config.circle_command_bits);
  }
  RFID_EXPECTS(config.selection_modulus < (1u << 30));
  // The split tests H(r, id) mod F < f as (H & (F - 1)) < f.
  RFID_EXPECTS(std::has_single_bit(config.selection_modulus));
  const phy::CircleCommand frame{
      static_cast<std::uint32_t>(config.selection_modulus * subset_target /
                                 active.size()),  // f = F * n* / n_rem
      static_cast<std::uint32_t>(config.selection_modulus),
      session.protocol_rng()() & 0xFFFFFFFFFFFFull};
  const auto decoded = phy::CircleCommand::decode(frame.encode());
  RFID_ENSURES(decoded && decoded->threshold == frame.threshold &&
               decoded->modulus == frame.modulus &&
               decoded->seed == frame.seed);

  // Tag side: each awake tag decides membership from the decoded values.
  // One pass over the ID words appends the members, in order, to the
  // engine's subset scratch and compacts the rest of `active` in place, in
  // order. Twice the expected subset size covers any circle's binomial
  // draw, so the scratch grows in the first circle only.
  tags::TagSoA& joined = engine.subset_scratch();
  joined.clear();
  joined.reserve(std::min(active.size(), 2 * subset_target));
  active.split_circle(decoded->seed, decoded->modulus, decoded->threshold,
                      joined, engine.hash_backend());

  // Query the subset to exhaustion; unselected tags wait for later
  // circles. An unlucky empty subset just costs the circle command.
  engine.run_rounds(joined, round_policy);
  return true;
}

sim::RunResult Ehpp::run(const tags::TagPopulation& population,
                         const sim::SessionConfig& config) const {
  sim::Session session(population, config);
  RFID_ENSURES(subset_size_ >= 1);

  tags::TagSoA active = make_devices(session);
  // One coordinator (and hence one engine) spans every circle: a tag's
  // retry budget is a per-run quantity no matter which subset it happens
  // to land in.
  fault::RecoveryCoordinator recovery(config.recovery);
  RoundEngine engine(session, recovery);

  // Circle-level init ladder, independent of the per-round ladder inside
  // engine.run_rounds: an undeliverable circle command and an undeliverable
  // round command are separate failure chains.
  fault::RecoveryCoordinator::InitLadder ladder(config.recovery.retry_budget);
  while (!active.empty()) {
    session.check_round_budget();
    if (run_ehpp_circle(session, engine, active, config_, subset_size_)) {
      ladder.note_success();
      continue;
    }
    // Framed circle command exhausted its budget. Retry a bounded number of
    // circles (each already paid the full retransmission ladder), then give
    // up on everything still unread — loudly, never silently.
    if (ladder.note_failure()) engine.abandon_active(active);
  }
  return session.finish(std::string(name()));
}

}  // namespace rfid::protocols
