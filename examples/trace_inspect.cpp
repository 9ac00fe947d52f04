// Replays a JSONL air-interface trace (examples/telemetry_export
// --trace-jsonl, or simserved --trace) into a per-phase time-accounting
// summary: where the microseconds went (vector transmission, commands,
// turn-arounds, tag replies, wasted slots, recovery), per-event-kind
// tallies, and the slot-airtime mean and quantiles. Pure offline tool: it
// reads only the trace schema, and charges phases by obs::replay_phases,
// the session's own rules.
//
//   ./trace_inspect [--follow] [--poll-ms N] TRACE.jsonl
//
// --follow tails a live trace (a file a running daemon keeps appending
// to), folding new lines in as they arrive and printing a one-line
// progress ticker; SIGINT stops following and prints the full summary.
// Only complete lines are consumed — a JSON object caught mid-write waits
// in the carry buffer for its closing newline instead of being miscounted
// as garbage. Integers are strictly parsed (parse_size_arg conventions:
// base-10 digits only, zero rejected).
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <thread>

#include "common/env.hpp"
#include "common/table.hpp"
#include "obs/histogram.hpp"
#include "obs/phase_timer.hpp"
#include "obs/trace.hpp"

namespace {

using namespace rfid;

volatile std::sig_atomic_t g_interrupted = 0;

void on_interrupt(int) { g_interrupted = 1; }

/// Pulls `"key":<number>` out of a JSONL line; 0 when absent. Good enough
/// for the fixed flat schema JsonlSink writes — not a general JSON parser.
double field_num(std::string_view line, std::string_view key) {
  const std::string needle = '"' + std::string(key) + "\":";
  const auto pos = line.find(needle);
  if (pos == std::string_view::npos) return 0.0;
  return std::strtod(line.data() + pos + needle.size(), nullptr);
}

/// Pulls `"key":"value"` out of a JSONL line; empty when absent.
std::string field_str(std::string_view line, std::string_view key) {
  const std::string needle = '"' + std::string(key) + "\":\"";
  const auto pos = line.find(needle);
  if (pos == std::string_view::npos) return {};
  const auto start = pos + needle.size();
  const auto end = line.find('"', start);
  if (end == std::string_view::npos) return {};
  return std::string(line.substr(start, end - start));
}

/// Streaming fold of trace lines into the summary accumulators, so the
/// one-shot and --follow paths share every attribution rule.
class TraceStats final {
 public:
  /// Folds one complete JSONL line. Returns false when the line claims to
  /// be a meta header of some other schema (fatal for the whole file).
  bool feed(std::string_view line) {
    if (line.empty()) return true;
    ++lines_;
    const std::string type = field_str(line, "type");
    if (type == "meta")
      return field_str(line, "schema") == "rfid-trace";
    obs::EventKind kind;
    if (type != "event" ||
        !obs::parse_event_kind(field_str(line, "event"), kind)) {
      ++skipped_;
      return true;
    }
    ++kind_counts_[static_cast<std::size_t>(kind)];
    obs::Event event;
    event.kind = kind;
    event.vector_bits =
        static_cast<std::uint64_t>(field_num(line, "vector_bits"));
    event.command_bits =
        static_cast<std::uint64_t>(field_num(line, "command_bits"));
    event.tag_bits = static_cast<std::uint64_t>(field_num(line, "tag_bits"));
    event.duration_us = field_num(line, "duration_us");
    event.reader_us = field_num(line, "reader_us");
    event.tag_us = field_num(line, "tag_us");
    event.recovery = field_num(line, "recovery") != 0.0;
    vector_bits_ += event.vector_bits;
    command_bits_ += event.command_bits;
    tag_bits_ += event.tag_bits;
    clock_us_ += event.duration_us;
    obs::replay_phases(event, phases_);

    switch (kind) {
      case obs::EventKind::kReply:
      case obs::EventKind::kTimeout:
      case obs::EventKind::kCorrupted:
      case obs::EventKind::kSlotEmpty:
      case obs::EventKind::kSlotCollision:
        slot_airtime_.record(event.duration_us);
        break;
      default:
        break;
    }
    return true;
  }

  [[nodiscard]] std::uint64_t total_events() const noexcept {
    std::uint64_t total = 0;
    for (std::size_t k = 0; k < obs::kEventKindCount; ++k)
      total += kind_counts_[k];
    return total;
  }

  [[nodiscard]] std::uint64_t lines() const noexcept { return lines_; }
  [[nodiscard]] std::uint64_t skipped() const noexcept { return skipped_; }
  [[nodiscard]] double clock_us() const noexcept { return clock_us_; }

  void print_summary(std::ostream& os, const std::string& path) const {
    os << "=== trace summary: " << path << " ===\n" << lines_ << " lines";
    if (skipped_ > 0) os << " (" << skipped_ << " unrecognized, skipped)";
    os << "\n\n";

    TablePrinter events({"event", "count"});
    for (std::size_t k = 0; k < obs::kEventKindCount; ++k)
      events.add_row(
          {std::string(to_string(static_cast<obs::EventKind>(k))),
           std::to_string(kind_counts_[k])});
    events.print(os);

    os << '\n';
    TablePrinter table({"phase", "time (us)", "share"});
    for (std::size_t p = 0; p < obs::kPhaseCount; ++p) {
      const auto phase = static_cast<obs::Phase>(p);
      table.add_row(
          {std::string(to_string(phase)),
           TablePrinter::num(phases_.get(phase), 1),
           TablePrinter::num(100.0 * phases_.fraction(phase), 1) + "%"});
    }
    table.add_row(
        {"total", TablePrinter::num(phases_.total_us(), 1), "100.0%"});
    table.print(os);

    const std::uint64_t polls = count(obs::EventKind::kReply);
    os << "\nbits: vector " << vector_bits_ << ", command " << command_bits_
       << ", tag " << tag_bits_ << '\n'
       << "rounds " << count(obs::EventKind::kRoundBegin) << ", circles "
       << count(obs::EventKind::kCircleBegin) << ", polls " << polls << '\n';
    if (polls > 0)
      os << "avg vector bits/poll: "
         << TablePrinter::num(static_cast<double>(vector_bits_) /
                                  static_cast<double>(polls),
                              3)
         << '\n';
    if (slot_airtime_.count() > 0)
      os << "slot airtime us: mean "
         << TablePrinter::num(slot_airtime_.mean(), 1) << ", p50 "
         << TablePrinter::num(slot_airtime_.quantile(0.5), 1) << ", p99 "
         << TablePrinter::num(slot_airtime_.quantile(0.99), 1) << '\n';
    os << "clock total: " << TablePrinter::num(clock_us_, 1) << " us\n";
  }

 private:
  [[nodiscard]] std::uint64_t count(obs::EventKind kind) const noexcept {
    return kind_counts_[static_cast<std::size_t>(kind)];
  }

  obs::PhaseBreakdown phases_{};
  std::uint64_t kind_counts_[obs::kEventKindCount] = {};
  std::uint64_t vector_bits_ = 0, command_bits_ = 0, tag_bits_ = 0;
  double clock_us_ = 0.0;
  /// Buckets 1% wide from 100 us to about 100 ms: interpolated quantiles
  /// stay within 1% of the exact ones.
  obs::Histogram slot_airtime_ =
      obs::Histogram::exponential(100.0, 1.01, 700);
  std::uint64_t lines_ = 0, skipped_ = 0;
};

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0 << " [--follow] [--poll-ms N] TRACE.jsonl\n"
               "  --follow    keep reading as the file grows (SIGINT for the"
               " summary)\n"
               "  --poll-ms N growth-poll interval, default 500 (strictly"
               " parsed, > 0)\n";
  return EXIT_FAILURE;
}

}  // namespace

int main(int argc, char** argv) {
  bool follow = false;
  std::size_t poll_ms = 500;
  std::string path;

  for (int arg = 1; arg < argc; ++arg) {
    const std::string_view flag = argv[arg];
    if (flag == "--follow") {
      follow = true;
    } else if (flag == "--poll-ms") {
      if (arg + 1 >= argc) return usage(argv[0]);
      const std::optional<std::size_t> parsed = parse_size_arg(argv[++arg]);
      if (!parsed) {
        std::cerr << "bad --poll-ms value: " << argv[arg] << '\n';
        return usage(argv[0]);
      }
      poll_ms = *parsed;
    } else if (flag.substr(0, 2) == "--") {
      std::cerr << "unknown flag: " << flag << '\n';
      return usage(argv[0]);
    } else if (path.empty()) {
      path = flag;
    } else {
      std::cerr << "unexpected argument: " << flag << '\n';
      return usage(argv[0]);
    }
  }
  if (path.empty()) return usage(argv[0]);

  std::ifstream in(path);
  if (!in.is_open()) {
    std::cerr << "cannot open " << path << '\n';
    return EXIT_FAILURE;
  }
  if (follow) {
    std::signal(SIGINT, on_interrupt);
    std::signal(SIGTERM, on_interrupt);
  }

  TraceStats stats;
  std::string carry;
  char buffer[4096];
  std::uint64_t last_reported = 0;
  bool schema_ok = true;

  while (schema_ok) {
    in.clear();
    in.read(buffer, sizeof(buffer));
    const std::streamsize got = in.gcount();
    if (got > 0) {
      carry.append(buffer, static_cast<std::size_t>(got));
      std::size_t start = 0;
      for (std::size_t nl = carry.find('\n'); nl != std::string::npos;
           nl = carry.find('\n', start)) {
        if (!stats.feed(std::string_view(carry).substr(start, nl - start))) {
          std::cerr << "not an rfid-trace JSONL file\n";
          schema_ok = false;
          break;
        }
        start = nl + 1;
      }
      carry.erase(0, start);
      continue;
    }
    // EOF. One-shot mode folds any unterminated final line and stops;
    // follow mode leaves it in the carry (the writer is mid-line) and
    // waits for the file to grow.
    if (!follow) {
      if (!carry.empty() && !stats.feed(carry)) {
        std::cerr << "not an rfid-trace JSONL file\n";
        schema_ok = false;
      }
      break;
    }
    if (g_interrupted != 0) break;
    if (const std::uint64_t events = stats.total_events();
        events != last_reported) {
      last_reported = events;
      std::cerr << "\rfollowing " << path << ": " << events << " events, "
                << TablePrinter::num(stats.clock_us() / 1e6, 3)
                << " s sim clock (^C for summary)   " << std::flush;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(poll_ms));
  }
  if (!schema_ok) return EXIT_FAILURE;
  if (follow) std::cerr << '\n';

  if (stats.total_events() == 0) {
    std::cerr << "no trace events in " << path << " (" << stats.lines()
              << " lines, " << stats.skipped()
              << " unrecognized) — is this a telemetry_export"
                 " --trace-jsonl file?\n";
    return EXIT_FAILURE;
  }
  stats.print_summary(std::cout, path);
  return EXIT_SUCCESS;
}
