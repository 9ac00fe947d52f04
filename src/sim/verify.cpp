#include "sim/verify.hpp"

#include <cstdint>
#include <vector>

#include "tags/id_index.hpp"

namespace rfid::sim {

VerifyReport verify_accounted_once(const tags::TagPopulation& population,
                                   std::span<const CollectedRecord> records,
                                   std::span<const TagId> missing,
                                   std::span<const TagId> undelivered) {
  VerifyReport report;
  const auto fail = [&report](std::string msg) {
    report.ok = false;
    report.message = std::move(msg);
    return report;
  };

  // Every population tag must be accounted for exactly once: collected,
  // reported missing (absent from the field), or explicitly given up on by
  // the recovery policy (undelivered). A clean-channel run degenerates to
  // the original contract — records only, one per tag.
  const std::size_t accounted =
      records.size() + missing.size() + undelivered.size();
  if (accounted != population.size()) {
    return fail("accounted for " + std::to_string(accounted) + " tags (" +
                std::to_string(records.size()) + " collected, " +
                std::to_string(missing.size()) + " missing, " +
                std::to_string(undelivered.size()) +
                " undelivered) out of " + std::to_string(population.size()));
  }

  // ID -> population position, plus one "accounted for" flag per position.
  const std::span<const tags::Tag> tags = population.tags();
  tags::IdIndex by_id(tags.size());
  for (std::size_t i = 0; i < tags.size(); ++i) by_id.insert(tags, i);
  std::vector<std::uint8_t> seen(tags.size(), 0);
  const auto account_once = [&](const TagId& id, const char* what) {
    const std::size_t pos = by_id.find(tags, id);
    if (pos == tags::IdIndex::kAbsent)
      return what + (" of unknown tag " + id.to_hex());
    if (seen[pos]++ != 0)
      return what + (" of tag " + id.to_hex() + " accounted for twice");
    return std::string();
  };

  for (const CollectedRecord& record : records) {
    if (auto msg = account_once(record.id, "collection"); !msg.empty())
      return fail(std::move(msg));
    const BitVec expected = population.reply_payload(
        by_id.find(tags, record.id), record.payload.size());
    if (!(expected == record.payload))
      return fail("payload mismatch for tag " + record.id.to_hex());
  }
  for (const TagId& id : missing)
    if (auto msg = account_once(id, "missing report"); !msg.empty())
      return fail(std::move(msg));
  for (const TagId& id : undelivered)
    if (auto msg = account_once(id, "undelivered report"); !msg.empty())
      return fail(std::move(msg));
  return report;
}

VerifyReport verify_complete_collection(const tags::TagPopulation& population,
                                        const RunResult& result) {
  return verify_accounted_once(population, result.records, result.missing_ids,
                               result.undelivered_ids);
}

}  // namespace rfid::sim
