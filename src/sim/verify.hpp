// End-of-session verification.
//
// The fast-polling problem (paper Section II-C) is to collect m-bit
// information from *each* tag exactly once. This checker asserts that a run
// achieved it: every tag interrogated once, no stranger tags, and every
// collected payload bit-identical to what the tag stores.
#pragma once

#include <span>
#include <string>

#include "sim/session.hpp"

namespace rfid::sim {

struct VerifyReport final {
  bool ok = true;
  std::string message;  ///< first discrepancy found, empty when ok
};

/// The delivered-or-listed pass: `records`, `missing` and `undelivered`
/// together name every tag of `population` exactly once (no stranger tag,
/// no tag twice, none left out), and every record's payload is
/// bit-identical to what its tag stores. core::Deployment::finish runs it
/// over a record-keeping deployment's merged lists.
[[nodiscard]] VerifyReport verify_accounted_once(
    const tags::TagPopulation& population,
    std::span<const CollectedRecord> records, std::span<const TagId> missing,
    std::span<const TagId> undelivered);

/// Checks a finished run against the population it was drawn from:
/// verify_accounted_once over its records, missing and undelivered lists.
[[nodiscard]] VerifyReport verify_complete_collection(
    const tags::TagPopulation& population, const RunResult& result);

}  // namespace rfid::sim
