#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <iostream>
#include <stdexcept>

#include "ladder.hpp"

namespace perfbench {

void Checker::expect(const std::string& failure) {
  if (failure.empty()) return;
  ++failures_;
  if (messages_.size() < 8) messages_.push_back(failure);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  const double lo = *std::max_element(
      v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lo + hi) / 2.0;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

/// Every workload, in BENCHMARK.json order, with the number of instances a
/// run builds from its seed. The work a generated graph needs to reach its
/// fixed point moves by about ±10% from one graph to the next, and a run
/// reports per-instance means, so more instances shrink that share of the
/// spread between runs with different seeds. The two whose work varies most
/// by graph (PageRank's iteration count on R-MAT, speculation's round count)
/// take eight. The grid's solves take the same number of rounds on every
/// seed, and a stream-epochs round is long (eight epochs), so four keep
/// enough samples in a run.
struct WorkloadEntry {
  const char* name;
  std::unique_ptr<Workload> (*make)(const RunConfig&);
  std::uint64_t instances;
};

constexpr WorkloadEntry kWorkloads[] = {
    {"fixpoint-rmat", make_fixpoint, 8},
    {"traversal-grid", make_traversal, 4},
    {"stream-epochs", make_stream, 4},
    {"speculative-refused", make_speculative, 8},
};

const WorkloadEntry& find_workload(const std::string& name) {
  for (const WorkloadEntry& e : kWorkloads) {
    if (name == e.name) return e;
  }
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names;
    for (const WorkloadEntry& e : kWorkloads) names.emplace_back(e.name);
    return names;
  }();
  return kNames;
}

RunReport run_workload(const RunConfig& cfg) {
  // Each run measures the workload's instances, drawn from its seed, one
  // round on each per sample, and reports per-instance means.
  const WorkloadEntry& entry = find_workload(cfg.workload);
  const std::uint64_t instances = entry.instances;
  std::vector<std::unique_ptr<Workload>> ws;
  for (std::uint64_t j = 0; j < instances; ++j) {
    RunConfig instance = cfg;
    instance.seed = cfg.seed * instances + j;
    ws.push_back(entry.make(instance));
  }
  Tracer tr(cfg.trace);
  RunReport report;

  {
    auto s = tr.span("setup");
    Tracer untraced(false);
    Checker unchecked;
    for (const auto& w : ws) {
      w->setup(tr);
      for (std::size_t i = 0; i < w->warmup_rounds(); ++i) {
        RoundSample warmup;
        (void)w->round(untraced, unchecked, warmup);
      }
    }
  }
  const double setup_s = process_cpu_ms() * 1e-3;

  Checker ck;
  for (const auto& w : ws) w->prepare_checks(ck);

  std::map<std::string, std::vector<double>> ops;
  std::vector<double> round_ms;
  const auto t0 = Clock::now();
  const auto budget_ns = static_cast<std::int64_t>(cfg.seconds * 1e9);
  while (round_ms.size() < cfg.min_rounds || ns_since(t0) < budget_ns) {
    std::map<std::string, std::pair<double, double>> sums;  // op -> (sum, n)
    double total_ms = 0.0;
    for (const auto& w : ws) {
      RoundSample sample;
      {
        auto s = tr.span("round");
        report.failed += w->round(tr, ck, sample);
        s.set("timed_ms", sample.total_ms);
      }
      report.attempted += w->ops_per_round();
      for (const auto& [name, value] : sample.ops) {
        sums[name].first += value;
        sums[name].second += 1.0;
      }
      total_ms += sample.total_ms;
    }
    for (const auto& [name, sn] : sums) ops[name].push_back(sn.first / sn.second);
    round_ms.push_back(total_ms / static_cast<double>(instances));
  }

  const std::unique_ptr<Workload>& w = ws.front();
  if (cfg.trace) w->ladder(tr);

  report.correct = ck.ok();
  report.errors = ck.messages();
  if (cfg.trace) {
    report.metrics = derive_layer_metrics(tr, ops);
    if (!cfg.spans_path.empty() && !tr.write_jsonl(cfg.spans_path)) {
      std::cerr << "perfbench: cannot write spans to " << cfg.spans_path
                << "\n";
    }
  } else {
    report.metrics = {
        {"setup_s", setup_s, "s"},
        {"peak_rss_mib", peak_rss_mib(), "MiB"},
        {"solve_cpu_ms", median(ops[w->headline()]), "ms"},
        {"round_cpu_ms", median(round_ms), "ms"},
    };
  }
  std::cerr << "perfbench: " << cfg.workload << " seed=" << cfg.seed
            << " rounds=" << round_ms.size() << " setup_s=" << setup_s
            << "\n";
  for (const auto& [name, v] : ops) {
    std::cerr << "  " << name << " median=" << median(v) << " n=" << v.size()
              << "\n";
  }
  return report;
}

}  // namespace perfbench
