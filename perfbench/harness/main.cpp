// ndg_perfbench — the in-process benchmark harness.
//
//   ndg_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--spans PATH]
//
// Prints progress and per-operation medians on stderr and, as the last line
// of stdout, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// Untraced runs report the end-to-end metrics, traced runs the per-layer
// metrics derived from their spans (written to --spans as JSON lines).

#include <cstdio>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::cerr << "ndg_perfbench: " << why
            << "\nusage: ndg_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spans PATH]\nworkloads:";
  for (const std::string& w : perfbench::workload_names()) std::cerr << " " << w;
  std::cerr << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  bool have_workload = false;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
        return argv[++i];
      };
      if (arg == "--workload") {
        cfg.workload = value();
        have_workload = true;
      } else if (arg == "--seed") {
        cfg.seed = std::stoull(value());
        have_seed = true;
      } else if (arg == "--seconds") {
        cfg.seconds = std::stod(value());
        have_seconds = cfg.seconds > 0;
      } else if (arg == "--trace") {
        const std::string t = value();
        if (t != "0" && t != "1") throw std::invalid_argument("--trace takes 0 or 1");
        cfg.trace = t == "1";
        have_trace = true;
      } else if (arg == "--spans") {
        cfg.spans_path = value();
      } else {
        return usage(("unknown argument: " + arg).c_str());
      }
    }
  } catch (const std::exception& e) {
    return usage(e.what());
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }

  perfbench::RunReport report;
  try {
    report = perfbench::run_workload(cfg);
  } catch (const std::invalid_argument& e) {
    return usage(e.what());
  }
  for (const std::string& e : report.errors) std::cerr << "CHECK FAILED: " << e << "\n";

  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const perfbench::Metric& m = report.metrics[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
  return 0;
}
