#include "tags/soa.hpp"

#include <algorithm>
#include <array>

#include "common/error.hpp"

namespace rfid::tags {

void TagSoA::reserve(std::size_t n) {
  tag_.reserve(n);
  id_hi_.reserve(n);
  id_lo_.reserve(n);
  slot_.reserve(n);
  if (horizons_) horizon_.reserve(n);
}

void TagSoA::clear() noexcept {
  tag_.clear();
  id_hi_.clear();
  id_lo_.clear();
  slot_.clear();
  horizon_.clear();
}

void TagSoA::carry_horizons() {
  horizons_ = true;
  horizon_.assign(size(), 0);
}

namespace {

/// How many elements ahead gather() prefetches a tag.
constexpr std::size_t kGatherPrefetch = 16;

}  // namespace

void TagSoA::push_back(const Tag* tag, std::uint32_t horizon) {
  const TagId& id = tag->id();
  tag_.push_back(reinterpret_cast<std::uintptr_t>(tag));
  id_hi_.push_back((static_cast<std::uint64_t>(id.words[0]) << 32) |
                   id.words[1]);
  id_lo_.push_back(static_cast<std::uint64_t>(id.words[2]));
  slot_.push_back(0);
  if (horizons_) horizon_.push_back(horizon);
}

void TagSoA::resize(std::size_t n) {
  tag_.resize(n);
  id_hi_.resize(n);
  id_lo_.resize(n);
  slot_.resize(n);
  if (horizons_) horizon_.resize(n);
}

void TagSoA::gather(std::span<const Tag> population) {
  const std::size_t n = size();
  for (std::size_t i = 0; i < n; ++i) {
    // The positions climb, but far apart: fetch ahead.
    if (i + kGatherPrefetch < n)
      __builtin_prefetch(&population[slot_[i + kGatherPrefetch]]);
    const Tag& tag = population[slot_[i]];
    const TagId& id = tag.id();
    tag_[i] = reinterpret_cast<std::uintptr_t>(&tag);
    id_hi_[i] = (static_cast<std::uint64_t>(id.words[0]) << 32) | id.words[1];
    id_lo_[i] = static_cast<std::uint64_t>(id.words[2]);
    slot_[i] = 0;
  }
}

void TagSoA::compact(const std::vector<char>& done) {
  // Branchless stable compaction: always copy element i to the write
  // cursor, advance the cursor only for survivors. Whether a tag survives
  // a round is close to a coin flip, so a conditional copy would eat a
  // branch mispredict per element; the unconditional form is pure
  // store-port throughput. Copying i -> write with write <= i is safe
  // (self-copy at worst), and the relative order of survivors is kept.
  // Slots are scratch (see header) and are not moved.
  std::size_t write = 0;
  const std::size_t n = size();
  std::uint32_t* const horizon = horizons_ ? horizon_.data() : nullptr;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t keep = done[i] == 0 ? 1u : 0u;
    tag_[write] = tag_[i];
    id_hi_[write] = id_hi_[i];
    id_lo_[write] = id_lo_[i];
    if (horizon != nullptr) horizon[write] = horizon[i];
    write += keep;
  }
  resize(write);
}

void TagSoA::erase(const std::uint32_t* positions, std::size_t count,
                   simd::Backend backend) {
  resize(simd::erase_positions(columns(0),
                               horizons_ ? horizon_.data() : nullptr, size(),
                               positions, count, backend));
}

void TagSoA::compact_singletons(const std::vector<std::uint32_t>& counts,
                                simd::Backend backend) {
  // Survival is "my bucket was not a singleton", read straight off the
  // round's histogram. Reading slot_[i] is safe even though slots are not
  // moved: the read index only ever runs ahead of the write cursor, so
  // every slot read is the one this round's hash wrote.
  const std::size_t write = simd::compact_nonsingletons(
      counts.data(), slot_.data(), tag_.data(), id_hi_.data(), id_lo_.data(),
      size(), backend, horizons_ ? horizon_.data() : nullptr);
  resize(write);
}

void TagSoA::split_circle(std::uint64_t seed, std::uint64_t modulus,
                          std::uint64_t threshold, TagSoA& members,
                          simd::Backend backend) {
  // The kernel needs room for every member of the range it splits. Staging
  // one chunk's members on the stack bounds that room by the chunk, not by
  // n; members are the rare side, so appending them costs little.
  // Non-members compact in place: the write cursor never passes the read
  // cursor.
  RFID_EXPECTS(!horizons_);
  std::array<std::uint64_t, kSplitChunk> tag{};
  std::array<std::uint64_t, kSplitChunk> hi{};
  std::array<std::uint64_t, kSplitChunk> lo{};
  const simd::IdColumns staged{tag.data(), hi.data(), lo.data()};
  const std::size_t n = size();
  std::size_t kept = 0;
  for (std::size_t read = 0; read < n; read += kSplitChunk) {
    const std::size_t len = std::min(kSplitChunk, n - read);
    const std::size_t joined = simd::split_members(seed, modulus, threshold,
                                                   columns(read), columns(kept),
                                                   staged, len, backend);
    members.tag_.insert(members.tag_.end(), tag.data(), tag.data() + joined);
    members.id_hi_.insert(members.id_hi_.end(), hi.data(), hi.data() + joined);
    members.id_lo_.insert(members.id_lo_.end(), lo.data(), lo.data() + joined);
    kept += len - joined;
  }
  members.slot_.resize(members.tag_.size(), 0);
  resize(kept);
}

}  // namespace rfid::tags
