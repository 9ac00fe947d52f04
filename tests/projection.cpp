#include "projection.hpp"

#include <cmath>

#include "analysis/ehpp_model.hpp"
#include "analysis/hpp_model.hpp"
#include "analysis/timing_model.hpp"
#include "analysis/tpp_model.hpp"
#include "common/tag_id.hpp"
#include "phy/commands.hpp"

namespace rfid::core {
using namespace rfid::analysis;

std::optional<double> projected_protocol_time_s(
    protocols::ProtocolKind kind, std::size_t n, std::size_t l_bits,
    const phy::C1G2Timing& timing) {
  using protocols::ProtocolKind;
  switch (kind) {
    case ProtocolKind::kCpp:
      return projected_time_s(n, double(kTagIdBits), l_bits, timing,
                              /*query_rep_prefix=*/false);
    case ProtocolKind::kCodedPolling: {
      // 48 vector bits/tag plus 16 validator bits/tag, bare framing.
      return projected_time_s(n, 48.0 + 16.0, l_bits, timing, false);
    }
    case ProtocolKind::kHpp: {
      // Round inits are outside w but on the air; amortize them in.
      const HppPrediction p = hpp_predict(n);
      const double init_per_tag =
          n == 0 ? 0.0
                 : p.expected_rounds * double(phy::QueryRoundCommand::kBits) /
                       double(n);
      return projected_time_s(n, p.avg_vector_bits + init_per_tag, l_bits,
                              timing);
    }
    case ProtocolKind::kEhpp: {
      const double w = ehpp_predict_w(
          n, double(phy::CircleCommand::kBits),
          double(phy::QueryRoundCommand::kBits));
      return projected_time_s(n, w, l_bits, timing);
    }
    case ProtocolKind::kTpp: {
      const double w = tpp_predict_w(n);
      // Rounds shrink survivors by e^{-lambda} in [0.25, 0.5]; bound the
      // init overhead with the geometric estimate at the band midpoint.
      const double rounds =
          n == 0 ? 0.0 : std::log(double(n) + 1.0) / std::log(1.0 / 0.6);
      const double init_per_tag =
          n == 0 ? 0.0
                 : rounds * double(phy::QueryRoundCommand::kBits) / double(n);
      return projected_time_s(n, w + init_per_tag, l_bits, timing);
    }
    default:
      return std::nullopt;
  }
}

}  // namespace rfid::core
