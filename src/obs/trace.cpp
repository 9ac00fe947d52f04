#include "obs/trace.hpp"

#include <array>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace rfid::obs {

namespace {

constexpr std::array<std::string_view, kEventKindCount> kKindNames{
    "reader_broadcast", "poll",        "reply",
    "timeout",          "corrupted",   "slot_empty",
    "slot_collision",   "round_begin", "circle_begin",
    "segment_corrupted", "degrade",
};

/// Round-trippable double formatting for the JSONL stream.
std::string num(double value) {
  std::ostringstream oss;
  oss.precision(17);
  oss << value;
  return oss.str();
}

}  // namespace

std::string_view to_string(EventKind kind) noexcept {
  return kKindNames[static_cast<std::size_t>(kind)];
}

bool parse_event_kind(std::string_view name, EventKind& out) noexcept {
  for (std::size_t i = 0; i < kKindNames.size(); ++i) {
    if (kKindNames[i] == name) {
      out = static_cast<EventKind>(i);
      return true;
    }
  }
  return false;
}

void replay_phases(const Event& event, PhaseBreakdown& phases) noexcept {
  const double duration = event.duration_us;
  if (event.recovery) {
    phases.add(Phase::kRecovery, duration);
    return;
  }
  switch (event.kind) {
    case EventKind::kReaderBroadcast: {
      // A share of 1 or 0 is exact, so an all-vector or all-command frame
      // keeps its whole duration in one phase.
      const auto bits =
          static_cast<double>(event.vector_bits + event.command_bits);
      const double vector_us =
          bits > 0.0
              ? duration * (static_cast<double>(event.vector_bits) / bits)
              : 0.0;
      phases.add(Phase::kReaderVector, vector_us);
      phases.add(Phase::kCommand, duration - vector_us);
      break;
    }
    case EventKind::kReply:
      phases.add(Phase::kReaderVector, event.reader_us);
      phases.add(Phase::kTagReply, event.tag_us);
      phases.add(Phase::kTurnaround,
                 duration - event.reader_us - event.tag_us);
      break;
    case EventKind::kTimeout:
    case EventKind::kCorrupted:
    case EventKind::kSlotEmpty:
    case EventKind::kSlotCollision:
      phases.add(Phase::kWastedSlot, duration);
      break;
    case EventKind::kSegmentCorrupted:
      phases.add(Phase::kRecovery, duration);
      break;
    case EventKind::kPoll:  // airtime rides on the outcome event
    case EventKind::kRoundBegin:
    case EventKind::kCircleBegin:
    case EventKind::kDegrade:
      break;
  }
}

// --- RingBufferSink ---------------------------------------------------------

RingBufferSink::RingBufferSink(std::size_t capacity)
    : buffer_(capacity == 0 ? 1 : capacity) {}

void RingBufferSink::on_event(const Event& event) {
  buffer_[head_] = event;
  head_ = (head_ + 1) % buffer_.size();
  if (size_ < buffer_.size()) ++size_;
  ++seen_;
  sum_vector_bits_ += event.vector_bits;
  sum_command_bits_ += event.command_bits;
  sum_tag_bits_ += event.tag_bits;
  sum_us_ += event.duration_us;
}

std::vector<Event> RingBufferSink::snapshot() const {
  std::vector<Event> out;
  out.reserve(size_);
  // Oldest element sits at head_ once the buffer has wrapped, at 0 before.
  const std::size_t start = size_ == buffer_.size() ? head_ : 0;
  for (std::size_t i = 0; i < size_; ++i)
    out.push_back(buffer_[(start + i) % buffer_.size()]);
  return out;
}

// --- JsonlSink --------------------------------------------------------------

JsonlSink::JsonlSink(std::ostream& os) : os_(&os) { write_meta(); }

JsonlSink::JsonlSink(const std::string& path) : file_(path), os_(&file_) {
  if (!file_.is_open())
    throw std::runtime_error("JsonlSink: cannot open " + path);
  write_meta();
}

void JsonlSink::write_meta() {
  *os_ << R"({"type":"meta","schema":"rfid-trace","version":2})" << '\n';
}

void JsonlSink::on_event(const Event& event) {
  *os_ << R"({"type":"event","event":")" << to_string(event.kind)
       << R"(","round":)" << event.round << R"(,"circle":)" << event.circle
       << R"(,"vector_bits":)" << event.vector_bits << R"(,"command_bits":)"
       << event.command_bits << R"(,"tag_bits":)" << event.tag_bits
       << R"(,"time_us":)" << num(event.time_us) << R"(,"duration_us":)"
       << num(event.duration_us) << R"(,"reader_us":)" << num(event.reader_us)
       << R"(,"tag_us":)" << num(event.tag_us) << R"(,"detail":)"
       << event.detail;
  // Written only when set, so zero-fault traces keep their bytes.
  if (event.recovery) *os_ << R"(,"recovery":1)";
  *os_ << "}\n";
}

void JsonlSink::on_finish() { os_->flush(); }

}  // namespace rfid::obs
