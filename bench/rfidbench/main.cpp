// rfidbench — the benchmark of record.
//
//   rfidbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//   rfidbench --smoke
//
// Runs one workload (clean-tpp, churn-fleet, paper-sweep, serve-epochs) for
// about S seconds after a warm-up iteration and prints one JSON object on
// the last line of stdout: every metric with its unit (timings as medians
// with quartiles and sample counts), the seeds derived from --seed, digests
// of the folded simulation output, and the correctness ledger. --trace 1
// swaps the end-to-end metrics for the per-layer ones. --smoke runs every
// workload, untraced and traced, at tiny sizes. The exit code is 0 only
// when every correctness check passed. run.py builds and drives this
// binary; see README.md.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "bench.hpp"
#include "obs/stream.hpp"

namespace rfidbench {

double Samples::sum() const {
  double total = 0.0;
  for (const double v : values_) total += v;
  return total;
}

double Samples::quantile(double p) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  if (n == 1) return sorted[0];
  // Exclusive method: position p * (n + 1), 1-based, clamped to the data.
  const double position = p * static_cast<double>(n + 1);
  if (position <= 1.0) return sorted.front();
  if (position >= static_cast<double>(n)) return sorted.back();
  const auto below = static_cast<std::size_t>(std::floor(position));
  const double fraction = position - static_cast<double>(below);
  return sorted[below - 1] + fraction * (sorted[below] - sorted[below - 1]);
}

void Checks::expect(bool ok, const std::string& what) {
  count(1, ok ? 0 : 1, what);
}

void Checks::count(std::uint64_t attempts, std::uint64_t failures,
                   const std::string& what) {
  attempted_ += attempts;
  failed_ += failures;
  if (failures > 0)
    failures_.push_back(what + " (" + std::to_string(failures) + " of " +
                        std::to_string(attempts) + ")");
}

void Result::add(const std::string& name, const std::string& unit,
                 double value) {
  checks.expect(std::isfinite(value), name + " is not a finite number");
  metrics.push_back({name, unit, std::isfinite(value) ? value : 0.0});
}

void Result::add(const std::string& name, const std::string& unit,
                 const Samples& samples) {
  add(name, unit, samples.median());
  Metric& metric = metrics.back();
  metric.distribution = true;
  metric.q1 = samples.quantile(0.25);
  metric.q3 = samples.quantile(0.75);
  metric.samples = samples.count();
}

void Result::seed(const std::string& role, std::uint64_t value) {
  seeds.emplace_back(role, value);
}

std::string digest(const rfid::obs::Metrics& metrics) {
  std::ostringstream json;
  rfid::obs::write_json(json, metrics);
  std::uint64_t hash = 0xcbf29ce484222325ull;  // FNV-1a 64
  for (const char c : json.str()) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(hash));
  return hex;
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::size_t heap_bytes_in_use() {
  const struct mallinfo2 info = ::mallinfo2();
  return info.uordblks + info.hblkhd;
}

namespace {

int usage() {
  std::cerr << "usage: rfidbench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1]\n"
               "       rfidbench --smoke\n"
               "  NAME: clean-tpp | churn-fleet | paper-sweep | serve-epochs\n";
  return 2;
}

Result run_workload(const Options& options) {
  if (options.workload == "clean-tpp") return run_clean_tpp(options);
  if (options.workload == "churn-fleet") return run_churn_fleet(options);
  if (options.workload == "paper-sweep") return run_paper_sweep(options);
  return run_serve_epochs(options);
}

std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof(escaped), "\\u%04x", c);
      out += escaped;
    } else {
      out += c;
    }
  }
  return out + '"';
}

std::string json_number(double value) {
  char text[32];
  std::snprintf(text, sizeof(text), "%.17g", value);
  return text;
}

std::string to_json(const Result& result, const Options& options) {
  const Checks& checks = result.checks;
  const bool correct = checks.failed() == 0;
  std::string out = "{\"workload\":" + json_string(result.workload) +
                    ",\"traced\":" + (result.traced ? "true" : "false") +
                    ",\"seed\":" + std::to_string(options.seed) +
                    ",\"seconds\":" + json_number(options.seconds) +
                    ",\"correct\":" + (correct ? "true" : "false") +
                    ",\"attempted\":" + std::to_string(checks.attempted()) +
                    ",\"failed\":" + std::to_string(checks.failed()) +
                    ",\"failures\":[";
  for (std::size_t i = 0; i < checks.failures().size(); ++i)
    out += (i == 0 ? "" : ",") + json_string(checks.failures()[i]);
  out += "],\"metrics\":{";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    out += (i == 0 ? "" : ",") + json_string(m.name) + ":{\"value\":" +
           json_number(m.value) + ",\"unit\":" + json_string(m.unit);
    if (m.distribution)
      out += ",\"q1\":" + json_number(m.q1) + ",\"q3\":" + json_number(m.q3) +
             ",\"samples\":" + std::to_string(m.samples);
    out += '}';
  }
  out += "},\"seeds\":{";
  for (std::size_t i = 0; i < result.seeds.size(); ++i)
    out += (i == 0 ? "" : ",") + json_string(result.seeds[i].first) + ":" +
           std::to_string(result.seeds[i].second);
  out += "},\"digests\":{";
  for (std::size_t i = 0; i < result.digests.size(); ++i)
    out += (i == 0 ? "" : ",") + json_string(result.digests[i].first) + ":" +
           json_string(result.digests[i].second);
  return out + "}}";
}

/// Every workload, untraced then traced, at smoke sizes.
int smoke() {
  bool ok = true;
  for (const char* workload :
       {"clean-tpp", "churn-fleet", "paper-sweep", "serve-epochs"}) {
    for (const bool trace : {false, true}) {
      Options options;
      options.workload = workload;
      options.seconds = 0.2;
      options.trace = trace;
      options.smoke = true;
      const Result result = run_workload(options);
      const Checks& checks = result.checks;
      std::cout << workload << (trace ? " traced" : "") << ": "
                << result.metrics.size() << " metrics, "
                << checks.attempted() << " checks, " << checks.failed()
                << " failed\n";
      for (const std::string& failure : checks.failures())
        std::cout << "  FAIL " << failure << '\n';
      ok = ok && checks.failed() == 0 && checks.attempted() > 0;
    }
  }
  return ok ? 0 : 1;
}

bool parse_u64(std::string_view text, std::uint64_t& out) {
  if (text.empty() || text.size() > 19) return false;
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  out = value;
  return true;
}

}  // namespace

}  // namespace rfidbench

int main(int argc, char** argv) {
  using namespace rfidbench;
  Options options;
  bool smoke_run = false;
  for (int arg = 1; arg < argc; ++arg) {
    const std::string_view flag = argv[arg];
    const bool has_value = arg + 1 < argc;
    std::uint64_t value = 0;
    if (flag == "--smoke") {
      smoke_run = true;
    } else if (flag == "--workload" && has_value) {
      options.workload = argv[++arg];
    } else if (flag == "--seed" && has_value && parse_u64(argv[++arg], value)) {
      options.seed = value;
    } else if (flag == "--seconds" && has_value &&
               parse_u64(argv[++arg], value) && value >= 1 && value <= 600) {
      options.seconds = static_cast<double>(value);
    } else if (flag == "--trace" && has_value &&
               parse_u64(argv[++arg], value) && value <= 1) {
      options.trace = value == 1;
    } else {
      return usage();
    }
  }
  try {
    if (smoke_run) return smoke();
    if (options.workload != "clean-tpp" && options.workload != "churn-fleet" &&
        options.workload != "paper-sweep" && options.workload != "serve-epochs")
      return usage();
    Result result = run_workload(options);
    if (!options.trace) {
      const double attempted = static_cast<double>(
          std::max<std::uint64_t>(1, result.checks.attempted()));
      result.metrics.push_back(
          {"error_rate", "fraction",
           static_cast<double>(result.checks.failed()) / attempted});
    }
    std::cout << to_json(result, options) << std::endl;
    return result.checks.failed() == 0 ? 0 : 1;
  } catch (const std::exception& error) {
    std::cerr << "rfidbench: " << error.what() << '\n';
    return 1;
  }
}
