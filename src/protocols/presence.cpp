#include "protocols/presence.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/math_util.hpp"

namespace rfid::protocols {

namespace {

struct PresenceDevice final {
  const tags::Tag* tag = nullptr;
  bool present = true;
  std::uint32_t slot = 0;
};

std::vector<PresenceDevice> make_presence_devices(const sim::Session& session) {
  std::vector<PresenceDevice> devices;
  devices.reserve(session.population().size());
  for (const tags::Tag& tag : session.population())
    devices.push_back(PresenceDevice{&tag, session.is_present(tag.id()), 0});
  return devices;
}

std::size_t frame_size(double factor, std::size_t n) {
  return static_cast<std::size_t>(std::max<long long>(
      1, std::llround(factor * static_cast<double>(n))));
}

}  // namespace

std::size_t TrustedReaderDetection::planned_frames() const {
  // One frame exposes a lone missing tag iff no other expected tag shares
  // its slot: p1 ~= e^{-1/factor} for f = factor * n. Geometric repetition
  // reaches the target confidence after ln(1-alpha)/ln(1-p1) frames.
  const double p1 = std::exp(-1.0 / config_.frame_factor);
  const double alpha = std::clamp(config_.confidence, 0.0, 1.0 - 1e-12);
  if (alpha <= 0.0) return 1;
  const double frames = std::ceil(std::log1p(-alpha) / std::log1p(-p1));
  return std::clamp<std::size_t>(static_cast<std::size_t>(frames), 1,
                                 config_.max_frames);
}

TrustedReaderDetection::Report TrustedReaderDetection::detect(
    const tags::TagPopulation& expected,
    const sim::SessionConfig& session_config) const {
  RFID_EXPECTS(config_.frame_factor > 0.0);
  sim::Session session(expected, session_config);
  Report report;
  if (expected.empty()) {
    report.result = session.finish("TRP");
    return report;
  }

  std::vector<PresenceDevice> devices = make_presence_devices(session);
  const std::size_t f = frame_size(config_.frame_factor, devices.size());
  const std::size_t frames = planned_frames();

  std::vector<std::uint32_t> expected_count(f);
  std::vector<std::vector<const tags::Tag*>> responders(f);
  for (std::size_t frame = 0; frame < frames && !report.missing_detected;
       ++frame) {
    session.begin_round();
    const std::uint64_t seed = session.protocol_rng()();
    session.air().broadcast_command_bits(config_.frame_command_bits);

    std::fill(expected_count.begin(), expected_count.end(), 0u);
    for (auto& r : responders) r.clear();
    for (PresenceDevice& device : devices) {
      device.slot =
          static_cast<std::uint32_t>(tag_hash(seed, device.tag->id()) % f);
      ++expected_count[device.slot];  // reader's precomputed bitmap
      if (device.present) responders[device.slot].push_back(device.tag);
    }

    for (std::size_t s = 0; s < f; ++s) {
      const bool busy = session.air().presence_slot(responders[s]);
      if (expected_count[s] > 0 && !busy) {
        // Precomputed busy, observed silent: someone is gone.
        report.missing_detected = true;
        break;
      }
      RFID_ENSURES(!(expected_count[s] == 0 && busy));
    }
    ++report.frames_run;
  }
  report.result = session.finish("TRP");
  return report;
}

PollingAssistedIdentification::Report
PollingAssistedIdentification::identify(
    const tags::TagPopulation& expected,
    const sim::SessionConfig& session_config) const {
  RFID_EXPECTS(config_.frame_factor > 0.0);
  sim::Session session(expected, session_config);
  Report report;

  std::vector<PresenceDevice> devices = make_presence_devices(session);
  if (!devices.empty()) {
    // One bitmap frame.
    session.begin_round();
    const std::size_t f = frame_size(config_.frame_factor, devices.size());
    const std::uint64_t seed = session.protocol_rng()();
    session.air().broadcast_command_bits(config_.frame_command_bits);

    std::vector<std::uint32_t> counts(f, 0);
    std::vector<std::size_t> occupant(f, 0);
    std::vector<std::vector<const tags::Tag*>> responders(f);
    for (std::size_t i = 0; i < devices.size(); ++i) {
      PresenceDevice& device = devices[i];
      device.slot =
          static_cast<std::uint32_t>(tag_hash(seed, device.tag->id()) % f);
      ++counts[device.slot];
      occupant[device.slot] = i;
      if (device.present) responders[device.slot].push_back(device.tag);
    }

    std::vector<char> resolved(devices.size(), 0);
    for (std::size_t s = 0; s < f; ++s) {
      const bool busy = session.air().presence_slot(responders[s]);
      if (counts[s] != 1) continue;
      const std::size_t i = occupant[s];
      if (!busy) report.missing.push_back(devices[i].tag->id());
      resolved[i] = 1;
    }

    // Polling assist: every tag from an expected-collision slot is polled
    // conventionally (full 96-bit ID — the inefficiency the paper fixes).
    for (std::size_t i = 0; i < devices.size(); ++i) {
      if (resolved[i]) continue;
      const tags::Tag* responder = devices[i].tag;
      const bool present = devices[i].present;
      const tags::Tag* read = nullptr;
      do {  // garbled replies are re-polled, absent tags time out once
        read = session.air().poll_bare({&responder, present ? 1u : 0u},
                                 devices[i].tag, kTagIdBits);
      } while (read == nullptr && present);
      if (read == nullptr) report.missing.push_back(devices[i].tag->id());
    }
  }
  std::sort(report.missing.begin(), report.missing.end());
  report.result = session.finish("PollingAssist");
  return report;
}

BitmapMissingIdentification::Report BitmapMissingIdentification::identify(
    const tags::TagPopulation& expected,
    const sim::SessionConfig& session_config) const {
  RFID_EXPECTS(config_.frame_factor > 0.0);
  sim::Session session(expected, session_config);
  Report report;

  std::vector<PresenceDevice> active = make_presence_devices(session);
  std::vector<std::uint32_t> counts;
  std::vector<std::size_t> occupant;
  std::vector<std::vector<const tags::Tag*>> responders;
  while (!active.empty()) {
    session.begin_round();
    session.check_round_budget();

    const std::size_t f = active.size() > 1
                              ? frame_size(config_.frame_factor, active.size())
                              : 1;
    const std::uint64_t seed = session.protocol_rng()();
    session.air().broadcast_command_bits(config_.frame_command_bits);

    counts.assign(f, 0);
    occupant.assign(f, 0);
    responders.assign(f, {});
    for (std::size_t i = 0; i < active.size(); ++i) {
      PresenceDevice& device = active[i];
      device.slot =
          static_cast<std::uint32_t>(tag_hash(seed, device.tag->id()) % f);
      ++counts[device.slot];
      occupant[device.slot] = i;
      if (device.present) responders[device.slot].push_back(device.tag);
    }

    std::vector<char> done(active.size(), 0);
    for (std::size_t s = 0; s < f; ++s) {
      const bool busy = session.air().presence_slot(responders[s]);
      if (counts[s] != 1) continue;  // empty or unattributable collision
      // Expected singleton: one presence bit verifies one specific tag.
      const std::size_t i = occupant[s];
      if (busy)
        report.verified.push_back(active[i].tag->id());
      else
        report.missing.push_back(active[i].tag->id());
      done[i] = 1;
    }

    std::size_t write = 0;
    for (std::size_t i = 0; i < active.size(); ++i) {
      if (done[i]) continue;
      if (write != i) active[write] = active[i];
      ++write;
    }
    active.resize(write);
  }
  std::sort(report.missing.begin(), report.missing.end());
  report.result = session.finish("BitmapID");
  return report;
}

}  // namespace rfid::protocols
