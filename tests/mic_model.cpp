#include "mic_model.hpp"

#include <cmath>

namespace rfid::analysis {

namespace {

struct LayeredFixedPoint final {
  double unmarked_fraction;    ///< of the frame
  double unassigned_fraction;  ///< of the tags
};

LayeredFixedPoint iterate(unsigned num_hashes, double frame_factor) {
  if (num_hashes == 0 || frame_factor <= 0.0) return {1.0, 1.0};
  // Normalize to one frame slot: tags per slot = 1 / factor.
  double unassigned = 1.0 / frame_factor;  // tags (in slot units)
  double unmarked = 1.0;                   // slots
  for (unsigned j = 0; j < num_hashes; ++j) {
    if (unmarked <= 0.0 || unassigned <= 0.0) break;
    // Each unassigned tag hashes uniformly over the whole frame; only the
    // fraction landing on unmarked slots can be assigned this layer.
    const double rho = unassigned / 1.0;  // per *frame* slot
    // A given unmarked slot receives Poisson(rho) candidates.
    const double p_single = rho * std::exp(-rho);
    const double assigned = unmarked * p_single;
    unmarked -= assigned;
    unassigned -= assigned;
  }
  return {unmarked, unassigned * frame_factor};
}

}  // namespace

double mic_expected_waste(unsigned num_hashes, double frame_factor) noexcept {
  return iterate(num_hashes, frame_factor).unmarked_fraction;
}

double mic_expected_resolved(unsigned num_hashes,
                             double frame_factor) noexcept {
  return 1.0 - iterate(num_hashes, frame_factor).unassigned_fraction;
}

}  // namespace rfid::analysis
