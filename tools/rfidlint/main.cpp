// rfidlint CLI.
//
//   rfidlint [--root <repo-root>] [--layers <spec>|--no-layers]
//            [--analyzers <a,b,...>] [files...]
//   rfidlint --list-rules | --list-analyzers
//
// With no file arguments, lints every .hpp/.cpp under <root>/src and
// <root>/tools/simserved (the simulator sources and the serving daemon;
// tests, bench and examples are out of scope — they may stamp wall-clock
// manifests). With explicit file arguments it lints exactly those files,
// which is how the fixture self-check drives it. Paths are made
// repo-relative against <root> for the path-scoped rules (layer
// membership, the src/obs exemption).
//
// The layer spec defaults to <root>/tools/rfidlint/layers.spec; parse
// errors are reported as [layer-spec] findings and fail the run.
// Exit status: 0 when clean, 1 on any finding, 2 on usage error.
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "rfidlint.hpp"

namespace {

/// `path` relative to `root`, '/'-separated, or `path` unchanged when it
/// does not live under `root`.
[[nodiscard]] std::string relative_to(const std::string& path,
                                      const std::string& root) {
  std::string rel = path;
  if (root != "." && rel.rfind(root, 0) == 0 && rel.size() > root.size() &&
      rel[root.size()] == '/')
    rel = rel.substr(root.size() + 1);
  else if (rel.rfind("./", 0) == 0)
    rel = rel.substr(2);
  return rel;
}

[[nodiscard]] std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::string item = csv.substr(
        start, comma == std::string::npos ? std::string::npos
                                          : comma - start);
    if (!item.empty()) out.push_back(item);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::string layers_path;
  bool no_layers = false;
  rfidlint::Options options;
  std::vector<std::string> files;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root") {
      if (i + 1 >= argc) {
        std::cerr << "rfidlint: --root needs a directory\n";
        return 2;
      }
      root = argv[++i];
    } else if (arg == "--layers") {
      if (i + 1 >= argc) {
        std::cerr << "rfidlint: --layers needs a spec file\n";
        return 2;
      }
      layers_path = argv[++i];
    } else if (arg == "--no-layers") {
      no_layers = true;
    } else if (arg == "--analyzers") {
      if (i + 1 >= argc) {
        std::cerr << "rfidlint: --analyzers needs a comma-separated list\n";
        return 2;
      }
      options.analyzers = split_csv(argv[++i]);
    } else if (arg == "--list-rules") {
      for (const std::string& rule : rfidlint::rule_ids())
        std::cout << rule << "\n";
      return 0;
    } else if (arg == "--list-analyzers") {
      for (const rfidlint::Analyzer* analyzer : rfidlint::analyzers())
        std::cout << analyzer->name() << "\n";
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      std::cout
          << "usage: rfidlint [--root <repo-root>] [--layers <spec>]\n"
             "                [--no-layers] [--analyzers <a,b,...>] "
             "[files...]\n"
             "       rfidlint --list-rules | --list-analyzers\n";
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "rfidlint: unknown option " << arg << "\n";
      return 2;
    } else {
      files.push_back(arg);
    }
  }

  for (const std::string& name : options.analyzers) {
    bool known = false;
    for (const rfidlint::Analyzer* analyzer : rfidlint::analyzers())
      known = known || analyzer->name() == name;
    if (!known) {
      std::cerr << "rfidlint: unknown analyzer '" << name << "'\n";
      return 2;
    }
  }

  rfidlint::LayerSpec spec;
  if (!no_layers) {
    if (layers_path.empty()) layers_path = root + "/tools/rfidlint/layers.spec";
    spec = rfidlint::load_layer_spec(layers_path);
    if (!spec.ok()) {
      for (const rfidlint::SpecError& error : spec.errors)
        std::cout << layers_path << ":" << error.line
                  << ": [layer-spec] " << error.message << "\n";
      std::cout << "rfidlint: layer spec is invalid\n";
      return 1;
    }
    options.layers = &spec;
  }

  if (files.empty()) {
    files = rfidlint::collect_sources(root + "/src");
    const std::vector<std::string> simserved =
        rfidlint::collect_sources(root + "/tools/simserved");
    files.insert(files.end(), simserved.begin(), simserved.end());
    if (files.empty()) {
      std::cerr << "rfidlint: no sources under " << root << "/src\n";
      return 2;
    }
  }

  std::size_t errors = 0;
  for (const std::string& file : files) {
    const std::string rel = relative_to(file, root);
    for (const rfidlint::Finding& finding :
         rfidlint::lint_file(file, options, rel)) {
      std::cout << rfidlint::to_string(finding) << "\n";
      ++errors;
    }
  }
  if (errors > 0) {
    std::cout << "rfidlint: " << errors << " finding"
              << (errors == 1 ? "" : "s") << " in " << files.size()
              << " file" << (files.size() == 1 ? "" : "s") << "\n";
    return 1;
  }
  std::cout << "rfidlint: clean (" << files.size() << " files)\n";
  return 0;
}
