// Self-tests of the benchmark: a tiny version of every workload with all
// checks on, traced and untraced, and one perturbed output per checker,
// which the checker must reject.
//
//   cmake --build .bench_build/perfbench --target perfbench_tests
//   .bench_build/perfbench/perfbench_tests

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "algorithms/reference/references.hpp"
#include "checks.hpp"
#include "graph/generators.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// BENCHMARK.json's entries under `key` as (name, unit) pairs ("" as the
/// unit of a workload), in file order. Entries are flat objects and no
/// string holds a brace, a bracket or an escaped quote.
std::vector<std::pair<std::string, std::string>> benchmark_entries(const std::string& key) {
  std::ifstream in(PERFBENCH_BENCHMARK_JSON);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  const std::size_t at = text.find("\"" + key + "\"");
  if (at == std::string::npos) return {};
  const std::size_t close = text.find(']', at);
  const auto field = [&text](std::size_t from, std::size_t to, const char* name) {
    const std::size_t k = text.find(std::string("\"") + name + "\"", from);
    if (k >= to) return std::string();
    const std::size_t open = text.find('"', text.find(':', k)) + 1;
    return text.substr(open, text.find('"', open) - open);
  };
  std::vector<std::pair<std::string, std::string>> out;
  for (std::size_t b = text.find('{', at); b < close; b = text.find('{', b + 1)) {
    const std::size_t e = text.find('}', b);
    out.emplace_back(field(b, e, "name"), field(b, e, "unit"));
  }
  return out;
}

std::vector<std::pair<std::string, std::string>> names_and_units(const RunReport& r) {
  std::vector<std::pair<std::string, std::string>> out;
  for (const Metric& m : r.metrics) out.emplace_back(m.name, m.unit);
  return out;
}

RunReport run_tiny(const std::string& workload, bool trace) {
  RunConfig cfg;
  cfg.workload = workload;
  cfg.seed = 7;
  cfg.seconds = 0.0;
  cfg.min_rounds = 2;
  cfg.trace = trace;
  cfg.tiny = true;
  return run_workload(cfg);
}

class TinyWorkload : public ::testing::TestWithParam<std::string> {};

TEST_P(TinyWorkload, UntracedRunPassesEveryCheck) {
  const RunReport r = run_tiny(GetParam(), false);
  for (const std::string& e : r.errors) ADD_FAILURE() << e;
  EXPECT_TRUE(r.correct);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_GT(r.attempted, 0u);
  EXPECT_EQ(names_and_units(r), benchmark_entries("end_to_end"));
  for (const Metric& m : r.metrics) EXPECT_GT(m.value, 0.0) << m.name;
}

TEST_P(TinyWorkload, TracedRunReportsEveryLayerMetric) {
  const RunReport r = run_tiny(GetParam(), true);
  for (const std::string& e : r.errors) ADD_FAILURE() << e;
  EXPECT_TRUE(r.correct);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_EQ(names_and_units(r), benchmark_entries("per_layer"));
  double spans_per_round = 0.0;
  for (const Metric& m : r.metrics) {
    EXPECT_TRUE(std::isfinite(m.value)) << m.name;
    EXPECT_GE(m.value, 0.0) << m.name;
    if (m.name == "trace.spans_per_round") spans_per_round = m.value;
  }
  EXPECT_GT(spans_per_round, 0.0);
}

std::string test_name(const ::testing::TestParamInfo<std::string>& p) {
  std::string n = p.param;
  for (char& c : n) {
    if (c == '-') c = '_';
  }
  return n;
}

INSTANTIATE_TEST_SUITE_P(Workloads, TinyWorkload,
                         ::testing::ValuesIn(workload_names()), test_name);

TEST(Workloads, NamesMatchBenchmarkJson) {
  std::vector<std::pair<std::string, std::string>> names;
  for (const std::string& w : workload_names()) names.emplace_back(w, "");
  EXPECT_EQ(names, benchmark_entries("workloads"));
}

TEST(Workloads, UnknownNameIsRejected) {
  EXPECT_THROW(run_tiny("no-such-workload", false), std::invalid_argument);
}

// --- each checker rejects one perturbed output -----------------------------

ndg::Graph small_graph() {
  return ndg::Graph::build(256, ndg::gen::rmat(256, 2048, 3));
}

TEST(Checkers, SsspRejectsOneChangedDistance) {
  const ndg::Graph g = small_graph();
  std::vector<float> w(g.num_edges(), 1.5f);
  const std::vector<float> ref = ndg::ref::sssp(g, 0, w);
  std::vector<float> got = ref;
  EXPECT_EQ(check_equal("sssp", got, ref), "");
  got[17] += 0.5f;
  EXPECT_NE(check_equal("sssp", got, ref), "");
}

TEST(Checkers, PageRankRejectsOneRankBeyondTolerance) {
  const ndg::Graph g = small_graph();
  const std::vector<double> ref = ndg::ref::pagerank(g, kDamping, 1e-9);
  std::vector<float> got(ref.begin(), ref.end());
  EXPECT_EQ(check_pagerank(g, got, ref, 1e-3), "");
  const std::size_t v = 5;
  got[v] = static_cast<float>(ref[v] + 2.0 * pagerank_tolerance(1e-3, ref[v]));
  EXPECT_NE(check_pagerank(g, got, ref, 1e-3), "");
}

TEST(Checkers, PageRankRejectsANonFixedPoint) {
  // The ranks are their own reference, so only the residual check can fail.
  const ndg::Graph g = small_graph();
  const std::vector<float> got(g.num_vertices(), 1.0f);
  const std::vector<double> ref(got.begin(), got.end());
  EXPECT_EQ(check_pagerank_values("pagerank", got, ref, 1e-3), "");
  EXPECT_NE(check_pagerank(g, got, ref, 1e-3), "");
}

TEST(Checkers, MatchingRejectsOneDroppedEdge) {
  const ndg::Graph g = small_graph();
  const std::vector<ndg::VertexId> ref = ndg::ref::greedy_matching(g);
  EXPECT_EQ(check_matching(g, ref, ref), "");
  std::vector<ndg::VertexId> got = ref;
  ndg::VertexId v = 0;
  while (got[v] == ndg::kInvalidVertex) ++v;
  got[got[v]] = ndg::kInvalidVertex;
  got[v] = ndg::kInvalidVertex;
  EXPECT_NE(check_matching(g, got, ref), "");
}

TEST(Checkers, ColoringRejectsOneClash) {
  const ndg::Graph g = small_graph();
  const std::vector<std::uint32_t> ref = ndg::ref::greedy_coloring(g);
  EXPECT_EQ(check_coloring(g, ref, ref), "");
  std::vector<std::uint32_t> got = ref;
  ndg::VertexId v = 0;
  while (g.out_neighbors(v).empty()) ++v;
  got[v] = got[g.out_neighbors(v)[0]];
  EXPECT_NE(check_coloring(g, got, ref), "");
}

TEST(Checkers, ReplicaRejectsOneValueOff) {
  const std::vector<float> coordinator = {0.0f, 1.5f, 2.25f, 7.0f};
  std::vector<float> replica = coordinator;
  EXPECT_EQ(check_equal("replica sssp", replica, coordinator), "");
  replica[2] = std::nextafter(replica[2], 100.0f);
  EXPECT_NE(check_equal("replica sssp", replica, coordinator), "");
}

TEST(Checkers, ReachRejectsAnIsolatedSource) {
  const ndg::Graph g = small_graph();
  ndg::VertexId isolated = 0;
  while (g.out_degree(isolated) > 0) ++isolated;
  EXPECT_NE(check_reach("source", ndg::ref::bfs(g, isolated), 0.5), "");
}

}  // namespace
}  // namespace perfbench
