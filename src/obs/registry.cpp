#include "obs/registry.hpp"

#include <ostream>
#include <sstream>

namespace rfid::obs {

namespace {

std::string num(double value) {
  std::ostringstream oss;
  oss.precision(12);
  oss << value;
  return oss.str();
}

std::string indent_of(int indent, int depth) {
  // Built in place: gcc 12 at -O3 misreports `"\n" + std::string(...)` as
  // an overlapping memcpy (-Wrestrict).
  if (indent <= 0) return std::string();
  std::string out(1 + static_cast<std::size_t>(indent * depth), ' ');
  out[0] = '\n';
  return out;
}

}  // namespace

std::uint64_t MetricsRegistry::counter_value(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const Histogram& layout) {
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  return histograms_.emplace(name, layout).first->second;
}

const Histogram* MetricsRegistry::find_histogram(
    const std::string& name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  for (const auto& [name, value] : other.counters_) counters_[name] += value;
  for (const auto& [name, histogram] : other.histograms_) {
    const auto it = histograms_.find(name);
    if (it == histograms_.end())
      histograms_.emplace(name, histogram);
    else
      it->second.merge(histogram);
  }
}

void MetricsRegistry::write_json(std::ostream& os, int indent) const {
  // std::map keys iterate sorted, so output is deterministic.
  os << '{';
  os << indent_of(indent, 1) << "\"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters_) {
    if (!first) os << ',';
    first = false;
    os << indent_of(indent, 2) << '"' << name << "\": " << value;
  }
  os << indent_of(indent, 1) << "},";
  os << indent_of(indent, 1) << "\"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) os << ',';
    first = false;
    os << indent_of(indent, 2) << '"' << name << "\": {";
    os << indent_of(indent, 3) << "\"count\": " << h.count() << ',';
    os << indent_of(indent, 3) << "\"sum\": " << num(h.sum()) << ',';
    os << indent_of(indent, 3) << "\"mean\": " << num(h.mean()) << ',';
    os << indent_of(indent, 3) << "\"min\": " << num(h.min()) << ',';
    os << indent_of(indent, 3) << "\"max\": " << num(h.max()) << ',';
    os << indent_of(indent, 3) << "\"p50\": " << num(h.quantile(0.5)) << ',';
    os << indent_of(indent, 3) << "\"p99\": " << num(h.quantile(0.99)) << ',';
    os << indent_of(indent, 3) << "\"edges\": [";
    for (std::size_t i = 0; i < h.edges().size(); ++i)
      os << (i == 0 ? "" : ", ") << num(h.edges()[i]);
    os << "],";
    os << indent_of(indent, 3) << "\"counts\": [";
    for (std::size_t i = 0; i < h.counts().size(); ++i)
      os << (i == 0 ? "" : ", ") << h.counts()[i];
    os << ']';
    os << indent_of(indent, 2) << '}';
  }
  os << indent_of(indent, 1) << '}';
  os << indent_of(indent, 0) << '}';
  if (indent > 0) os << '\n';
}

Histogram vector_bits_layout() {
  // Polling vectors run 0..96 bits (CPP's full EPC is the ceiling); 1-bit
  // buckets keep the Fig. 3/5/9 distributions exact.
  return Histogram::linear(0.0, 128.0, 128);
}

Histogram slot_airtime_layout() {
  // Interaction airtimes live between ~200 us (bare empty slot) and a few
  // ms (96-bit vector + long payload); geometric buckets track the tail.
  return Histogram::exponential(100.0, 1.2, 32);
}

Histogram polls_per_round_layout() {
  return Histogram::exponential(1.0, 2.0, 24);
}

RegistrySink::RegistrySink(MetricsRegistry& registry) : registry_(&registry) {
  // Materialize the standard layouts up front so empty trials still merge
  // cleanly with populated ones.
  (void)registry_->histogram("vector_bits_per_poll", vector_bits_layout());
  (void)registry_->histogram("slot_airtime_us", slot_airtime_layout());
  (void)registry_->histogram("polls_per_round", polls_per_round_layout());
}

void RegistrySink::close_round() {
  if (!round_open_) return;
  registry_->histogram("polls_per_round")
      .record(static_cast<double>(polls_in_round_));
  polls_in_round_ = 0;
}

void RegistrySink::on_event(const Event& event) {
  ++registry_->counter("events." + std::string(to_string(event.kind)));
  switch (event.kind) {
    case EventKind::kPoll:
      registry_->histogram("vector_bits_per_poll")
          .record(static_cast<double>(event.vector_bits));
      break;
    case EventKind::kRoundBegin:
      close_round();
      round_open_ = true;
      break;
    case EventKind::kReply:
      ++polls_in_round_;
      registry_->histogram("slot_airtime_us").record(event.duration_us);
      break;
    case EventKind::kTimeout:
    case EventKind::kCorrupted:
    case EventKind::kSlotEmpty:
    case EventKind::kSlotCollision:
      registry_->histogram("slot_airtime_us").record(event.duration_us);
      break;
    case EventKind::kReaderBroadcast:
    case EventKind::kCircleBegin:
    case EventKind::kSegmentCorrupted:
    case EventKind::kDegrade:
      break;
  }
}

void RegistrySink::on_finish() {
  close_round();
  round_open_ = false;
}

}  // namespace rfid::obs
