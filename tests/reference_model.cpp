#include "reference_model.hpp"

#include <map>
#include <numbers>
#include <vector>

#include "common/hash.hpp"
#include "common/rng.hpp"

namespace rfid::reference {

namespace {

// C1G2 timing, PAPER.md §V-A.
constexpr double kReaderUsPerBit = 37.45;  // 26.7 kbps reader -> tag
constexpr double kTagUsPerBit = 25.0;      // 40 kbps tag -> reader
constexpr double kT1Us = 100.0;            // reader -> tag turn-around
constexpr double kT2Us = 50.0;             // tag -> reader turn-around
constexpr std::size_t kQueryRepBits = 4;   // opens every poll
// The <h, r> round command, a QueryRound frame; outside the vector w.
constexpr std::size_t kRoundInitBits = 32;

void add(obs::Metrics& m, obs::Phase phase, double us) {
  m.phases.add(phase, us);
}

/// HPP (Section III): the smallest h with 2^h >= n.
unsigned hpp_index_length(std::size_t n) {
  unsigned h = 0;
  while ((std::size_t{1} << h) < n) ++h;
  return h;
}

/// TPP (Eq. 15): the h whose load factor n / 2^h lies in [ln 2, 2 ln 2);
/// a lone tag is read with h = 0.
unsigned tpp_index_length(std::size_t n) {
  if (n <= 1) return 0;
  unsigned h = 0;
  while (static_cast<double>(n) / static_cast<double>(std::size_t{1} << h) >=
         2.0 * std::numbers::ln2)
    ++h;
  return h;
}

/// Bits the differential tree broadcasts to complete leaf `index` after
/// leaf `previous`: h minus the length of their common prefix, found by
/// comparing the h-bit indices one bit at a time from the top.
unsigned tree_segment_bits(std::uint32_t previous, std::uint32_t index,
                           unsigned h) {
  unsigned common = 0;
  while (common < h) {
    const unsigned bit = h - 1 - common;
    if (((previous >> bit) & 1u) != ((index >> bit) & 1u)) break;
    ++common;
  }
  return h - common;
}

}  // namespace

obs::Metrics run_clean(Protocol protocol, std::span<const TagId> ids,
                       std::uint64_t seed, std::size_t info_bits) {
  obs::Metrics m;
  Xoshiro256ss rng(seed);
  std::vector<TagId> unread(ids.begin(), ids.end());
  while (!unread.empty()) {
    ++m.rounds;
    const std::size_t n = unread.size();
    unsigned h = 0;
    std::uint64_t round_seed = 0;
    if (protocol == Protocol::kHpp) {
      h = hpp_index_length(n);
      round_seed = rng() & 0x3FFFFu;  // the QueryRound frame's 18-bit seed
    } else {
      h = tpp_index_length(n);
      round_seed = rng();
    }

    const double init_us =
        kReaderUsPerBit * static_cast<double>(kRoundInitBits);
    m.command_bits += kRoundInitBits;
    m.time_us += init_us;
    add(m, obs::Phase::kCommand, init_us);

    // Every unread tag picks its index; the reader keeps those picked once.
    std::vector<std::uint32_t> picked(n);
    std::map<std::uint32_t, std::size_t> picks;
    for (std::size_t i = 0; i < n; ++i) {
      picked[i] = tag_index_pow2(round_seed, unread[i], h);
      ++picks[picked[i]];
    }

    // Poll the singletons in ascending index order.
    bool first = true;
    std::uint32_t previous = 0;
    for (const auto& [index, count] : picks) {
      if (count != 1) continue;
      const unsigned bits = protocol == Protocol::kHpp || first
                                ? h
                                : tree_segment_bits(previous, index, h);
      first = false;
      previous = index;

      const double reader_us =
          kReaderUsPerBit * static_cast<double>(kQueryRepBits + bits);
      const double tag_us = kTagUsPerBit * static_cast<double>(info_bits);
      m.vector_bits += bits;
      m.time_us += reader_us + kT1Us + tag_us + kT2Us;
      add(m, obs::Phase::kReaderVector, reader_us);
      add(m, obs::Phase::kTurnaround, kT1Us + kT2Us);
      add(m, obs::Phase::kTagReply, tag_us);
      m.tag_bits += info_bits;
      ++m.polls;
      ++m.slots_total;
      ++m.slots_useful;
    }

    // A read tag goes to sleep; the rest wait for the next round.
    std::vector<TagId> next;
    for (std::size_t i = 0; i < n; ++i)
      if (picks[picked[i]] != 1) next.push_back(unread[i]);
    unread.swap(next);
  }
  return m;
}

}  // namespace rfid::reference
