// speculative-refused: maximal matching and greedy coloring, which
// StaticEligibility refuses for NE, served by run_speculative at 2 threads.
// Nearly every plan aborts, so the graph is far smaller than the others.

#include <memory>

#include "algorithms/greedy_coloring.hpp"
#include "algorithms/matching.hpp"
#include "algorithms/reference/references.hpp"
#include "analysis/static_eligibility.hpp"
#include "checks.hpp"
#include "engine/speculative.hpp"
#include "graph/generators.hpp"
#include "ladder.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using ndg::EngineResult;

constexpr std::size_t kThreads = 2;

static_assert(ndg::StaticEligibility<ndg::MatchingProgram>::kVerdict ==
                  ndg::EligibilityVerdict::kNotProven,
              "matching is the refused-for-NE case this workload measures");
static_assert(ndg::StaticEligibility<ndg::GreedyColoringProgram>::kVerdict ==
                  ndg::EligibilityVerdict::kNotProven,
              "coloring is the refused-for-NE case this workload measures");

class Speculative final : public Workload {
 public:
  explicit Speculative(const RunConfig& cfg)
      : seed_(cfg.seed),
        vertices_(cfg.tiny ? 128 : 1024),
        edge_samples_(cfg.tiny ? 1024 : 8192) {
    opts_.num_threads = kThreads;
    opts_.max_iterations = 1u << 22;
  }

  void setup(Tracer& tr) override {
    ndg::EdgeList el;
    {
      auto s = tr.span("graph.generate");
      el = ndg::gen::rmat(vertices_, edge_samples_, seed_);
    }
    {
      auto s = tr.span("graph.build");
      g_ = ndg::Graph::build(vertices_, std::move(el));
      s.set("bytes", graph_bytes(g_));
    }
    edges_ = ndg::EdgeDataArray<ndg::DualEdge>(g_.num_edges());
  }

  void prepare_checks(Checker&) override {
    ref_match_ = ndg::ref::greedy_matching(g_);
    ref_color_ = ndg::ref::greedy_coloring(g_);
    checks_ready_ = true;
  }

  std::uint64_t round(Tracer& tr, Checker& ck, RoundSample& out) override {
    std::uint64_t failed = 0;
    const auto solve = [&](auto& prog, const char* span, const char* op) {
      prog.init(g_, edges_);
      EngineResult r;
      auto s = tr.span(span);
      const double ms =
          cpu_ms([&] { r = ndg::run_speculative(g_, prog, edges_, opts_); });
      s.set("rounds", static_cast<double>(r.iterations));
      s.set("commits", static_cast<double>(r.spec_commits));
      s.set("aborts", static_cast<double>(r.spec_aborts));
      s.end();
      out.add(op, ms);
      out.total_ms += ms;
      if (!r.converged) ++failed;
      if (r.spec_commits == 0) ck.expect(std::string(op) + ": solve did no work");
    };
    {
      ndg::MatchingProgram prog;
      solve(prog, "spec.matching", "matching_ms");
      if (checks_ready_) ck.expect(check_matching(g_, prog.match(), ref_match_));
    }
    {
      ndg::GreedyColoringProgram prog;
      solve(prog, "spec.coloring", "coloring_ms");
      if (checks_ready_) ck.expect(check_coloring(g_, prog.colors(), ref_color_));
    }
    return failed;
  }

  [[nodiscard]] std::uint64_t ops_per_round() const override { return 2; }
  [[nodiscard]] std::string headline() const override { return "matching_ms"; }

 private:
  std::uint64_t seed_;
  ndg::VertexId vertices_;
  ndg::EdgeId edge_samples_;
  ndg::Graph g_;
  ndg::EngineOptions opts_;
  ndg::EdgeDataArray<ndg::DualEdge> edges_;
  bool checks_ready_ = false;
  std::vector<ndg::VertexId> ref_match_;
  std::vector<std::uint32_t> ref_color_;
};

}  // namespace

std::unique_ptr<Workload> make_speculative(const RunConfig& cfg) {
  return std::make_unique<Speculative>(cfg);
}

}  // namespace perfbench
