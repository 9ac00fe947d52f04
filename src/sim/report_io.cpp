#include "sim/report_io.hpp"

#include <ostream>
#include <sstream>

namespace rfid::sim {

namespace {

/// Minimal JSON writer: tracks nesting and comma state; enough for the
/// fixed schema emitted here.
class JsonWriter final {
 public:
  JsonWriter(std::ostream& os, int indent) : os_(os), indent_(indent) {}

  void begin_object() { open('{'); }
  void begin_object(const std::string& key) {
    separator();
    write_key(key);
    os_ << '{';
    first_ = true;
    ++depth_;
  }
  void end_object() { close('}'); }

  void begin_array(const std::string& key) {
    separator();
    write_key(key);
    os_ << '[';
    first_ = true;
    ++depth_;
  }
  void end_array() { close(']'); }

  void key_value(const std::string& key, const std::string& raw) {
    separator();
    write_key(key);
    os_ << raw;
  }
  void key_string(const std::string& key, const std::string& value) {
    key_value(key, '"' + escape(value) + '"');
  }
  void array_string(const std::string& value) {
    separator();
    os_ << '"' << escape(value) << '"';
  }
  void array_object_begin() {
    separator();
    os_ << '{';
    first_ = true;
    ++depth_;
  }

 private:
  static std::string escape(const std::string& s) {
    std::string out;
    for (const char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  }

  void open(char c) {
    separator();
    os_ << c;
    first_ = true;
    ++depth_;
  }

  void close(char c) {
    --depth_;
    newline();
    os_ << c;
    first_ = false;
  }

  void write_key(const std::string& key) { os_ << '"' << key << "\": "; }

  void separator() {
    if (!first_) os_ << ',';
    first_ = false;
    newline();
  }

  void newline() {
    if (indent_ <= 0) return;
    os_ << '\n'
        << std::string(static_cast<std::size_t>(indent_ * depth_), ' ');
  }

  std::ostream& os_;
  int indent_;
  int depth_ = 0;
  bool first_ = true;
};

std::string num(double value) {
  std::ostringstream oss;
  oss.precision(12);
  oss << value;
  return oss.str();
}

std::string u64(std::uint64_t value) { return std::to_string(value); }

}  // namespace

void write_json(std::ostream& os, const RunResult& result,
                const JsonOptions& options) {
  JsonWriter json(os, options.indent);
  json.begin_object();
  json.key_string("protocol", result.protocol);
  json.key_value("population", u64(result.population));
  json.key_value("avg_vector_bits", num(result.avg_vector_bits()));
  json.key_value("exec_time_s", num(result.exec_time_s()));

  // Fault-layer fields (retries, undelivered, the recovery phase and the
  // undelivered_ids array) are emitted only for runs configured with a
  // fault plan or recovery policy, so zero-fault reports stay byte-identical
  // to builds without the fault layer.
  const Metrics& m = result.metrics;
  json.begin_object("metrics");
  json.key_value("polls", u64(m.polls));
  json.key_value("missing", u64(m.missing));
  json.key_value("corrupted", u64(m.corrupted));
  if (result.fault_layer) {
    json.key_value("retries", u64(m.retries));
    json.key_value("undelivered", u64(m.undelivered));
    json.key_value("downlink_corrupted", u64(m.downlink_corrupted));
    json.key_value("segments_sent", u64(m.segments_sent));
    json.key_value("segments_corrupted", u64(m.segments_corrupted));
    json.key_value("segments_retransmitted", u64(m.segments_retransmitted));
    json.key_value("framing_overhead_bits", u64(m.framing_overhead_bits));
    json.key_value("degradations", u64(m.degradations));
  }
  json.key_value("rounds", u64(m.rounds));
  json.key_value("circles", u64(m.circles));
  json.key_value("slots_total", u64(m.slots_total));
  json.key_value("slots_useful", u64(m.slots_useful));
  json.key_value("slots_wasted", u64(m.slots_wasted));
  json.key_value("vector_bits", u64(m.vector_bits));
  json.key_value("command_bits", u64(m.command_bits));
  json.key_value("tag_bits", u64(m.tag_bits));
  json.key_value("time_us", num(m.time_us));
  static_assert(static_cast<std::size_t>(obs::Phase::kRecovery) ==
                    obs::kPhaseCount - 1,
                "the recovery phase must stay last so it can be elided");
  const std::size_t phase_count =
      result.fault_layer ? obs::kPhaseCount : obs::kPhaseCount - 1;
  json.begin_object("phase_us");
  for (std::size_t p = 0; p < phase_count; ++p) {
    const auto phase = static_cast<obs::Phase>(p);
    json.key_value(std::string(obs::to_string(phase)),
                   num(m.phases.get(phase)));
  }
  json.end_object();
  json.end_object();

  json.begin_object("channel");
  json.key_value("empty_slots", u64(result.channel.empty_slots));
  json.key_value("singleton_slots", u64(result.channel.singleton_slots));
  json.key_value("collision_slots", u64(result.channel.collision_slots));
  json.end_object();

  json.begin_array("missing_ids");
  for (const TagId& id : result.missing_ids) json.array_string(id.to_hex());
  json.end_array();

  if (result.fault_layer) {
    json.begin_array("undelivered_ids");
    for (const TagId& id : result.undelivered_ids)
      json.array_string(id.to_hex());
    json.end_array();
  }

  if (options.include_records) {
    json.begin_array("records");
    for (const CollectedRecord& record : result.records) {
      json.array_object_begin();
      json.key_string("id", record.id.to_hex());
      json.key_string("payload", record.payload.to_string());
      json.end_object();
    }
    json.end_array();
  }

  json.end_object();
  if (options.indent > 0) os << '\n';
}

std::string to_json(const RunResult& result, const JsonOptions& options) {
  std::ostringstream oss;
  write_json(oss, result, options);
  return oss.str();
}

}  // namespace rfid::sim
