// The benchmark's per-layer metric set, and the derivation of every
// per-layer metric from a traced run's spans. The self-tests check the names
// and units against BENCHMARK.json.

#include <algorithm>
#include <deque>
#include <functional>
#include <string_view>

#include "workloads.hpp"

namespace perfbench {

namespace {

using Spans = std::vector<const Span*>;

constexpr const char* kAlgos[] = {"pagerank", "sssp", "bfs", "wcc"};
constexpr const char* kSpecAlgos[] = {"matching", "coloring"};
constexpr const char* kPolicies[] = {"relaxed", "aligned", "locked", "seq_cst"};

/// The operation metrics: the median of each timed operation, by name, so a
/// workload's traced run shows each of its operations separately (the
/// end-to-end solve_cpu_ms and round_cpu_ms name one operation and one
/// round).
constexpr MetricSpec kOps[] = {
    {"op.pagerank_ms", "ms"},
    {"op.pagerank_de_ms", "ms"},
    {"op.pagerank_delayed_ms", "ms"},
    {"op.sssp_ms", "ms"},
    {"op.bfs_ms", "ms"},
    {"op.wcc_ms", "ms"},
    {"op.epoch_ms", "ms"},
    {"op.replica_visible_ms", "ms"},
    {"op.intake_bin_mut_per_s", "mutations/s"},
    {"op.intake_json_mut_per_s", "mutations/s"},
    {"op.query_per_s", "queries/s"},
    {"op.matching_ms", "ms"},
    {"op.coloring_ms", "ms"},
};

/// Engine span name of each traversal/fixpoint algorithm's timed NE solve.
const char* engine_span(std::string_view algo) {
  if (algo == "pagerank") return "engine.pagerank_ne2";
  if (algo == "sssp") return "engine.sssp";
  if (algo == "bfs") return "engine.bfs";
  return "engine.wcc";
}

Spans with_prefix(const Tracer& tr, std::string_view prefix) {
  Spans out;
  for (const Span& s : tr.spans()) {
    if (s.end_ns >= 0 && std::string_view(s.name).starts_with(prefix)) {
      out.push_back(&s);
    }
  }
  return out;
}

double median_of(const Spans& spans, const std::function<double(const Span&)>& f) {
  std::vector<double> v;
  v.reserve(spans.size());
  for (const Span* s : spans) v.push_back(f(*s));
  return median(v);
}

double sum_of(const Spans& spans, const std::function<double(const Span&)>& f) {
  double total = 0.0;
  for (const Span* s : spans) total += f(*s);
  return total;
}

/// Total span time per unit of the `per` attribute, in ns.
double ns_per(const Spans& spans, const char* per) {
  const double units = sum_of(spans, [per](const Span& s) { return s.attr(per); });
  return units > 0 ? sum_of(spans, [](const Span& s) { return s.ns(); }) / units
                   : 0.0;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

const std::vector<MetricSpec>& per_layer_specs() {
  static const std::vector<MetricSpec> kSpecs = [] {
    std::vector<MetricSpec> s = {
        {"graph.generate_ms", "ms"},
        {"graph.build_ms", "ms"},
        {"mem.graph_bytes_mib", "MiB"},
    };
    static std::deque<std::string> names;  // owns the composed names
    const auto add = [&](std::string name, const char* unit) {
      names.push_back(std::move(name));
      s.push_back({names.back().c_str(), unit});
    };
    for (const char* p : kPolicies) add(std::string("atomics.edge_rw_ns.") + p, "ns");
    s.push_back({"engine.ctx_ns_per_update", "ns"});
    s.push_back({"engine.frontier_dense_ns_per_vertex", "ns"});
    s.push_back({"engine.frontier_sparse_ns_per_vertex", "ns"});
    s.push_back({"engine.ns_per_update.pagerank_ne1", "ns"});
    s.push_back({"engine.ns_per_update.pagerank_ne2", "ns"});
    for (const char* a : kAlgos) add(std::string("engine.iterations.") + a, "count");
    for (const char* a : kAlgos) add(std::string("engine.updates.") + a, "count");
    for (const char* a : kAlgos) add(std::string("engine.load_imbalance.") + a, "max/mean");
    for (const char* a : kAlgos) add(std::string("engine.round_us.") + a, "us");
    s.push_back({"engine.push_iterations.bfs", "count"});
    s.push_back({"engine.direction_switches.bfs", "count"});
    s.push_back({"sched.static_block_ns_per_item", "ns"});
    s.push_back({"delay.delayed_writes", "count"});
    s.push_back({"delay.mean_staleness", "steps"});
    s.push_back({"dyn.wire.decode_bin_ns_per_mut", "ns"});
    s.push_back({"dyn.wire.decode_json_ns_per_mut", "ns"});
    s.push_back({"dyn.log.append_seal_ns_per_mut", "ns"});
    s.push_back({"dyn.graph.apply_ns_per_mut", "ns"});
    s.push_back({"dyn.graph.compactions", "count"});
    s.push_back({"dyn.graph.compact_ms", "ms"});
    s.push_back({"dyn.gate.warm_epochs", "count"});
    s.push_back({"dyn.gate.cold_epochs", "count"});
    s.push_back({"dyn.recompute.warm_ms", "ms"});
    s.push_back({"dyn.recompute.cold_ms", "ms"});
    s.push_back({"dyn.recompute.seeds_per_epoch", "count"});
    s.push_back({"dyn.recompute.updates_per_epoch", "count"});
    s.push_back({"dyn.replication.encode_ns_per_mut", "ns"});
    s.push_back({"dyn.replication.decode_ns_per_mut", "ns"});
    s.push_back({"dyn.replica.replay_ms", "ms"});
    s.push_back({"dyn.query_ns", "ns"});
    for (const char* a : kSpecAlgos) add(std::string("spec.rounds.") + a, "count");
    for (const char* a : kSpecAlgos) add(std::string("spec.commits.") + a, "count");
    for (const char* a : kSpecAlgos) add(std::string("spec.aborts.") + a, "count");
    for (const char* a : kSpecAlgos) add(std::string("spec.plans_per_commit.") + a, "plans");
    for (const char* a : kSpecAlgos) add(std::string("spec.round_us.") + a, "us");
    for (const MetricSpec& op : kOps) s.push_back(op);
    s.push_back({"trace.round_cpu_ms", "ms"});
    s.push_back({"trace.spans_per_round", "count"});
    return s;
  }();
  return kSpecs;
}

std::vector<Metric> derive_layer_metrics(
    const Tracer& tr, const std::map<std::string, std::vector<double>>& ops) {
  std::map<std::string, double> v;
  const auto named = [&tr](const char* n) { return tr.named(n); };
  const auto dur_ms = [](const Span& s) { return s.ms(); };
  const auto attr = [](const char* key) {
    return [key](const Span& s) { return s.attr(key); };
  };
  const auto per_unit = [](const char* key) {
    return [key](const Span& s) { return ratio(s.ns(), s.attr(key)); };
  };

  // graph
  v["graph.generate_ms"] = sum_of(named("graph.generate"), dur_ms);
  v["graph.build_ms"] = sum_of(named("graph.build"), dur_ms);
  v["mem.graph_bytes_mib"] =
      sum_of(named("graph.build"), attr("bytes")) / (1024.0 * 1024.0);

  // atomics / engine / sched rungs: median ns per unit over repetitions
  for (const char* p : kPolicies) {
    const std::string span = std::string("atomics.edge_rw.") + p;
    v[std::string("atomics.edge_rw_ns.") + p] =
        median_of(tr.named(span), per_unit("accesses"));
  }
  v["engine.ctx_ns_per_update"] = median_of(named("engine.ctx"), per_unit("updates"));
  v["engine.frontier_dense_ns_per_vertex"] =
      median_of(named("engine.frontier_dense"), per_unit("vertices"));
  v["engine.frontier_sparse_ns_per_vertex"] =
      median_of(named("engine.frontier_sparse"), per_unit("vertices"));
  v["sched.static_block_ns_per_item"] =
      median_of(named("sched.static_block"), per_unit("items"));
  v["engine.ns_per_update.pagerank_ne1"] =
      median_of(named("engine.pagerank_ne1"), per_unit("updates"));
  v["engine.ns_per_update.pagerank_ne2"] =
      median_of(named("engine.pagerank_ne2"), per_unit("updates"));

  // full engine runs
  for (const char* a : kAlgos) {
    const Spans sp = tr.named(engine_span(a));
    v[std::string("engine.iterations.") + a] = median_of(sp, attr("iterations"));
    v[std::string("engine.updates.") + a] = median_of(sp, attr("updates"));
    v[std::string("engine.load_imbalance.") + a] = median_of(sp, attr("imbalance"));
    v[std::string("engine.round_us.") + a] = median_of(sp, [](const Span& s) {
      return ratio(s.ns() * 1e-3, s.attr("iterations"));
    });
  }
  v["engine.push_iterations.bfs"] = median_of(named("engine.bfs"), attr("push_iterations"));
  v["engine.direction_switches.bfs"] = median_of(named("engine.bfs"), attr("switches"));

  // delay
  v["delay.delayed_writes"] = median_of(named("delay.pagerank_delayed"), attr("delayed_writes"));
  v["delay.mean_staleness"] = median_of(named("delay.pagerank_delayed"), attr("mean_staleness"));

  // dyn
  const double rounds = static_cast<double>(named("round").size());
  v["dyn.wire.decode_bin_ns_per_mut"] = ns_per(named("dyn.wire.decode_bin"), "muts");
  v["dyn.wire.decode_json_ns_per_mut"] = ns_per(named("dyn.wire.decode_json"), "muts");
  v["dyn.log.append_seal_ns_per_mut"] = ns_per(named("dyn.log.append_seal"), "muts");
  v["dyn.graph.apply_ns_per_mut"] = ns_per(named("dyn.graph.apply"), "muts");
  v["dyn.graph.compact_ms"] = median_of(named("dyn.graph.compact"), dur_ms);
  const Spans epochs = with_prefix(tr, "dyn.apply_epoch.");
  Spans warm;
  Spans cold;
  for (const Span* s : epochs) (s->attr("warm") > 0 ? warm : cold).push_back(s);
  if (rounds > 0 && !epochs.empty()) {
    // Per DynGraph: both algorithms' graphs compact on the same epochs.
    v["dyn.graph.compactions"] =
        sum_of(named("dyn.apply_epoch.sssp"), attr("compacted")) / rounds;
    v["dyn.gate.warm_epochs"] = static_cast<double>(warm.size()) / rounds;
    v["dyn.gate.cold_epochs"] = static_cast<double>(cold.size()) / rounds;
    v["dyn.recompute.seeds_per_epoch"] =
        sum_of(epochs, attr("seeds")) / static_cast<double>(epochs.size());
    v["dyn.recompute.updates_per_epoch"] =
        sum_of(epochs, attr("updates")) / static_cast<double>(epochs.size());
  }
  v["dyn.recompute.warm_ms"] = median_of(warm, attr("engine_ms"));
  v["dyn.recompute.cold_ms"] = median_of(cold, attr("engine_ms"));
  v["dyn.replication.encode_ns_per_mut"] = ns_per(named("dyn.replication.encode"), "muts");
  v["dyn.replication.decode_ns_per_mut"] = ns_per(named("dyn.replication.decode"), "muts");
  v["dyn.replica.replay_ms"] = median_of(with_prefix(tr, "dyn.replica.replay."), dur_ms);
  v["dyn.query_ns"] = ns_per(named("dyn.query"), "queries");

  // speculative
  for (const char* a : kSpecAlgos) {
    const Spans sp = tr.named(std::string("spec.") + a);
    v[std::string("spec.rounds.") + a] = median_of(sp, attr("rounds"));
    v[std::string("spec.commits.") + a] = median_of(sp, attr("commits"));
    v[std::string("spec.aborts.") + a] = median_of(sp, attr("aborts"));
    v[std::string("spec.plans_per_commit.") + a] = median_of(sp, [](const Span& s) {
      return ratio(s.attr("commits") + s.attr("aborts"), s.attr("commits"));
    });
    v[std::string("spec.round_us.") + a] = median_of(sp, [](const Span& s) {
      return ratio(s.ns() * 1e-3, s.attr("rounds"));
    });
  }

  // per-operation medians and the tracer's own cost
  for (const MetricSpec& op : kOps) {
    const auto it = ops.find(std::string(op.name).substr(3));  // drop "op."
    v[op.name] = it == ops.end() ? 0.0 : median(it->second);
  }
  v["trace.round_cpu_ms"] = median_of(named("round"), attr("timed_ms"));
  v["trace.spans_per_round"] = ratio(static_cast<double>(tr.spans().size()), rounds);

  std::vector<Metric> out;
  for (const MetricSpec& spec : per_layer_specs()) {
    out.push_back({spec.name, v[spec.name], spec.unit});
  }
  return out;
}

}  // namespace perfbench
