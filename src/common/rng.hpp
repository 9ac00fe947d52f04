// Deterministic pseudo-random number generation.
//
// The whole simulator is seed-deterministic: a session seeded with the same
// 64-bit value produces bit-identical metrics, which the replay tests and the
// parallel trial runner rely on. We implement splitmix64 (for seeding and
// hashing) and xoshiro256** (for bulk stream generation) rather than using
// std::mt19937 so that results are stable across standard library versions.
#pragma once

#include <array>
#include <cstdint>
#include <limits>

namespace rfid {

/// splitmix64 step: advances `state` and returns the next 64-bit output.
/// Public because it doubles as the seed expander for Xoshiro256ss.
[[nodiscard]] std::uint64_t splitmix64_next(std::uint64_t& state) noexcept;

/// xoshiro256** by Blackman & Vigna: fast, high-quality, tiny state.
/// Satisfies std::uniform_random_bit_generator.
class Xoshiro256ss final {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four state words by expanding `seed` through splitmix64, which
  /// guarantees a non-zero state for every seed (including 0).
  explicit Xoshiro256ss(std::uint64_t seed = 0) noexcept { reseed(seed); }

  void reseed(std::uint64_t seed) noexcept;

  [[nodiscard]] result_type operator()() noexcept;

  /// Uniform integer in [0, bound). bound == 0 is a precondition violation.
  /// Uses Lemire's multiply-shift rejection method (unbiased).
  [[nodiscard]] std::uint64_t below(std::uint64_t bound) noexcept;

  /// Uniform double in [0, 1) with 53 bits of randomness.
  [[nodiscard]] double uniform01() noexcept;

  /// Returns true with probability p (clamped to [0,1]).
  [[nodiscard]] bool bernoulli(double p) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  /// Jump function: advances the stream by 2^128 steps. Used to derive
  /// statistically independent streams for parallel trials.
  void jump() noexcept;

 private:
  std::array<std::uint64_t, 4> s_{};
};

/// Derives a child seed from (master, index); used to give every Monte-Carlo
/// trial its own independent deterministic stream.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t master,
                                        std::uint64_t index) noexcept;

}  // namespace rfid
