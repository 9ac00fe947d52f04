#include "layers.hpp"

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/simd.hpp"
#include "fault/recovery.hpp"
#include "protocols/enhanced_hash_polling.hpp"
#include "protocols/hash_polling.hpp"
#include "protocols/tree_polling.hpp"

namespace rfidbench {

namespace {

using rfid::protocols::ProtocolKind;

/// Forwards to the protocol's own policy and records each round's shape.
class RecordingPolicy final : public rfid::protocols::RoundPolicy {
 public:
  RecordingPolicy(rfid::protocols::RoundPolicy& inner,
                  std::vector<RoundShape>& shapes)
      : inner_(inner), shapes_(shapes) {}

  rfid::protocols::RoundInit begin_round(rfid::sim::Session& session,
                                         std::size_t active_count) override {
    const rfid::protocols::RoundInit init =
        inner_.begin_round(session, active_count);
    if (init.delivered)
      shapes_.push_back({active_count, init.index_length, init.seed});
    return init;
  }
  void dispatch(rfid::protocols::RoundEngine& engine,
                rfid::tags::TagSoA& active) override {
    inner_.dispatch(engine, active);
  }
  [[nodiscard]] bool batchable_dispatch() const noexcept override {
    return inner_.batchable_dispatch();
  }

 private:
  rfid::protocols::RoundPolicy& inner_;
  std::vector<RoundShape>& shapes_;
};

}  // namespace

rfid::tags::TagSoA all_devices(const rfid::tags::TagPopulation& population) {
  rfid::tags::TagSoA devices;
  devices.reserve(population.size());
  for (const rfid::tags::Tag& tag : population) devices.push_back(&tag);
  return devices;
}

SessionReplay replay_session(ProtocolKind kind,
                             const rfid::tags::TagPopulation& population,
                             const rfid::sim::SessionConfig& config,
                             rfid::tags::TagSoA active,
                             std::vector<RoundShape>& shapes) {
  SessionReplay replay;
  const Clock::time_point start = Clock::now();
  rfid::sim::Session session(population, config);
  rfid::fault::RecoveryCoordinator recovery(config.recovery);
  rfid::protocols::RoundEngine engine(session, recovery);
  const Clock::time_point built = Clock::now();

  if (kind == ProtocolKind::kEhpp) {
    const rfid::protocols::Ehpp::Config ehpp{};
    const std::size_t subset_target =
        rfid::protocols::Ehpp(ehpp).effective_subset_size();
    while (!active.empty()) {
      session.check_round_budget();
      if (!rfid::protocols::run_ehpp_circle(session, engine, active, ehpp,
                                            subset_target))
        throw std::runtime_error("EHPP replay: circle command undelivered");
    }
  } else {
    rfid::protocols::HppRoundPolicy hpp(rfid::protocols::HppRoundConfig{});
    rfid::protocols::TppRoundPolicy tpp(rfid::protocols::Tpp::Config{});
    rfid::protocols::RoundPolicy& inner =
        kind == ProtocolKind::kHpp
            ? static_cast<rfid::protocols::RoundPolicy&>(hpp)
            : static_cast<rfid::protocols::RoundPolicy&>(tpp);
    RecordingPolicy policy(inner, shapes);
    while (!active.empty())
      if (!engine.run_round(active, policy))
        throw std::runtime_error("replay: round init undelivered");
  }
  const Clock::time_point ran = Clock::now();
  replay.metrics = session.finish(std::string(rfid::protocols::to_string(kind)))
                       .metrics;
  replay.build_s = seconds_between(start, built);
  replay.rounds_s = seconds_between(built, ran);
  return replay;
}

KernelCosts replay_kernels(const std::vector<RoundShape>& shapes,
                           const rfid::tags::TagSoA& devices,
                           Checks& checks) {
  namespace simd = rfid::simd;
  const simd::Backend best = simd::best_backend();
  const std::size_t capacity = devices.size();
  std::vector<std::uint32_t> slot(capacity);
  std::vector<std::uint32_t> scalar_slot(capacity);
  std::vector<std::uint32_t> counts;
  std::vector<std::uint64_t> col_a(capacity);
  std::vector<std::uint64_t> col_b(capacity);
  std::vector<std::uint64_t> col_c(capacity);

  Samples hash;
  Samples hash_scalar;
  Samples count;
  Samples compact;
  std::size_t tags = 0;
  std::size_t buckets = 0;
  bool backends_agree = true;
  std::size_t singletons = 0;
  for (int pass = 0; pass < 3; ++pass) {
    double hash_s = 0.0;
    double hash_scalar_s = 0.0;
    double count_s = 0.0;
    double compact_s = 0.0;
    tags = 0;
    buckets = 0;
    singletons = 0;
    for (const RoundShape& shape : shapes) {
      const std::size_t n = shape.size;
      if (n == 0 || n > capacity) continue;
      Clock::time_point t0 = Clock::now();
      simd::hash_indices(shape.seed, devices.id_hi_data(),
                         devices.id_lo_data(), slot.data(), n,
                         shape.index_length, best);
      Clock::time_point t1 = Clock::now();
      simd::hash_indices(shape.seed, devices.id_hi_data(),
                         devices.id_lo_data(), scalar_slot.data(), n,
                         shape.index_length, simd::Backend::kScalar);
      Clock::time_point t2 = Clock::now();
      hash_s += seconds_between(t0, t1);
      hash_scalar_s += seconds_between(t1, t2);
      backends_agree =
          backends_agree && std::equal(slot.data(), slot.data() + n,
                                       scalar_slot.data());

      const std::size_t f = std::size_t{1} << shape.index_length;
      counts.assign(f, 0);
      for (std::size_t i = 0; i < n; ++i) ++counts[slot[i]];
      t0 = Clock::now();
      singletons += simd::count_singletons(counts.data(), f, best);
      t1 = Clock::now();
      count_s += seconds_between(t0, t1);

      std::copy_n(devices.id_hi_data(), n, col_a.begin());
      std::copy_n(devices.id_lo_data(), n, col_b.begin());
      std::copy_n(devices.id_hi_data(), n, col_c.begin());
      t0 = Clock::now();
      const std::size_t kept = simd::compact_nonsingletons(
          counts.data(), slot.data(), col_a.data(), col_b.data(),
          col_c.data(), n, best);
      t1 = Clock::now();
      compact_s += seconds_between(t0, t1);
      singletons -= n - kept;  // compaction erases exactly the singletons

      tags += n;
      buckets += f;
    }
    hash.add(hash_s);
    hash_scalar.add(hash_scalar_s);
    count.add(count_s);
    compact.add(compact_s);
  }
  checks.expect(
      backends_agree,
      "hash_indices: best backend and scalar picked different indices");
  checks.expect(singletons == 0,
                "compact_nonsingletons: erased count != count_singletons");

  KernelCosts costs;
  if (tags == 0) return costs;
  const double per_tag = 1e9 / static_cast<double>(tags);
  costs.hash_ns_per_tag = hash.median() * per_tag;
  costs.hash_scalar_ns_per_tag = hash_scalar.median() * per_tag;
  costs.count_ns_per_bucket =
      count.median() * 1e9 / static_cast<double>(buckets);
  costs.compact_ns_per_tag = compact.median() * per_tag;
  return costs;
}

}  // namespace rfidbench
