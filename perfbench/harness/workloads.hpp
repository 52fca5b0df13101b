#pragma once
// The run loop shared by the benchmark's four workloads.
//
// Every run is one harness process: set-up (generate and build the inputs
// of the workload's instances, untimed warm-up rounds), reference
// computations made apart from the engines, then whole rounds of the same
// timed operations until the run length is spent, checking every
// operation's output. A traced run adds spans around every call into a
// layer and, after the rounds, the sequential layer rungs; its per-layer
// metrics are derived from the spans alone.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "trace.hpp"

namespace perfbench {

/// Inputs shared by every workload. `tiny` shrinks every input so the
/// self-tests run each workload in well under a second.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  /// Minimum number of rounds, even when the run length is already spent.
  std::size_t min_rounds = 3;
  /// Where a traced run writes its spans ("" = do not write).
  std::string spans_path;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunReport {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// First few check failures, for the log.
  std::vector<std::string> errors;
};

/// Collects check outcomes: an empty message is a pass.
class Checker {
 public:
  void expect(const std::string& failure);
  [[nodiscard]] bool ok() const { return failures_ == 0; }
  [[nodiscard]] const std::vector<std::string>& messages() const {
    return messages_;
  }

 private:
  std::uint64_t failures_ = 0;
  std::vector<std::string> messages_;
};

/// What one round measured: a sample per timed operation, keyed by the
/// operation's metric name ("pagerank_ms" in ms, "query_per_s" as a rate),
/// and the round's timed CPU time (checks excluded).
struct RoundSample {
  std::vector<std::pair<std::string, double>> ops;
  double total_ms = 0.0;

  void add(std::string name, double value) {
    ops.emplace_back(std::move(name), value);
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Generates and builds the inputs. This and the warm-up rounds count
  /// towards setup_s.
  virtual void setup(Tracer& tr) = 0;
  /// Untimed, unchecked rounds run at the end of set-up.
  [[nodiscard]] virtual std::size_t warmup_rounds() const { return 1; }
  /// Reference computations for the checks (not part of setup_s).
  virtual void prepare_checks(Checker& ck) = 0;
  /// One round of the workload's fixed operation mix. Records each timed
  /// operation; checks each output against the references. Returns the
  /// number of operations that failed to run to completion.
  virtual std::uint64_t round(Tracer& tr, Checker& ck, RoundSample& out) = 0;
  /// Operations per round (every round attempts the same ones).
  [[nodiscard]] virtual std::uint64_t ops_per_round() const = 0;
  /// The metric name of the workload's headline operation (its solve_cpu_ms).
  [[nodiscard]] virtual std::string headline() const = 0;
  /// Traced runs only: the sequential layer rungs, after the rounds.
  virtual void ladder(Tracer& tr) { (void)tr; }
};

std::unique_ptr<Workload> make_fixpoint(const RunConfig& cfg);
std::unique_ptr<Workload> make_traversal(const RunConfig& cfg);
std::unique_ptr<Workload> make_stream(const RunConfig& cfg);
std::unique_ptr<Workload> make_speculative(const RunConfig& cfg);

/// Names accepted by --workload, in BENCHMARK.json order.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Runs one workload end to end. setup_s is the process's CPU time from its
/// start to the end of set-up. An unknown workload name throws
/// std::invalid_argument.
RunReport run_workload(const RunConfig& cfg);

/// One per-layer metric: its name and unit as BENCHMARK.json lists them.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The per-layer metrics every traced run reports, in BENCHMARK.json order.
[[nodiscard]] const std::vector<MetricSpec>& per_layer_specs();

/// Per-layer metrics derived from a traced run's spans, plus the op.*
/// medians of the per-operation samples. Every per_layer_specs() metric is
/// present; a layer the workload does not enter reads 0.
std::vector<Metric> derive_layer_metrics(
    const Tracer& tr, const std::map<std::string, std::vector<double>>& ops);

/// Median of `v` (0 for an empty vector).
[[nodiscard]] double median(std::vector<double> v);

/// Peak resident set size of this process, in MiB.
[[nodiscard]] double peak_rss_mib();

}  // namespace perfbench
