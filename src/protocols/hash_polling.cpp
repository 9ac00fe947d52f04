#include "protocols/hash_polling.hpp"

#include "common/error.hpp"
#include "common/math_util.hpp"

namespace rfid::protocols {

RoundInit HppRoundPolicy::begin_round(sim::Session& session,
                                      std::size_t active_count) {
  const unsigned h = ceil_log2(active_count);
  // The round command travels as a concrete 32-bit QueryRound frame; tags
  // act on the *decoded* parameters, so reader and tags can only agree
  // through the air interface.
  const phy::QueryRoundCommand init{
      h, static_cast<std::uint32_t>(session.protocol_rng()() & 0x3FFFFu)};
  init.encode_into(frame_);
  const auto decoded = phy::QueryRoundCommand::decode(frame_);
  RFID_ENSURES(decoded && decoded->index_length == h &&
               decoded->seed == init.seed);
  if (session.framing_enabled()) {
    // The round command rides the framed downlink; if it cannot be
    // delivered within the retransmission budget no tag knows <h, r> and
    // the round never runs.
    if (!session.air().broadcast_framed(config_.round_init_bits,
                                        config_.count_init_in_w))
      return RoundInit{false, h, decoded->seed};
  } else if (config_.count_init_in_w) {
    session.air().broadcast_vector_bits(config_.round_init_bits);
  } else {
    session.air().broadcast_command_bits(config_.round_init_bits);
  }
  return RoundInit{true, h, decoded->seed};
}

sim::RunResult Hpp::run(const tags::TagPopulation& population,
                        const sim::SessionConfig& config) const {
  sim::Session session(population, config);
  tags::TagSoA active = make_devices(session);
  fault::RecoveryCoordinator recovery(config.recovery);
  RoundEngine engine(session, recovery);
  HppRoundPolicy policy(config_);
  engine.run_rounds(active, policy);
  return session.finish(std::string(name()));
}

}  // namespace rfid::protocols
