// fixpoint-rmat: PageRank to its fixed point on a skewed R-MAT graph under
// three engines — NE (relaxed atomics, static blocks, 2 threads; the paper's
// Fig. 1), DE (the paper's baseline) and delayed NE at a fixed propagation
// delay. Frontiers are dense and there are only about ten rounds, so most of
// the cost is per update.

#include <memory>

#include "algorithms/pagerank.hpp"
#include "algorithms/reference/references.hpp"
#include "checks.hpp"
#include "delay/delayed_engine.hpp"
#include "engine/deterministic.hpp"
#include "engine/nondeterministic.hpp"
#include "graph/generators.hpp"
#include "ladder.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using ndg::EngineOptions;
using ndg::EngineResult;

constexpr float kEps = 1e-3f;
constexpr std::size_t kThreads = 2;
constexpr std::size_t kDelaySteps = 2;

class Fixpoint final : public Workload {
 public:
  explicit Fixpoint(const RunConfig& cfg)
      : seed_(cfg.seed),
        vertices_(cfg.tiny ? 1024 : 8192),
        edge_samples_(cfg.tiny ? 16384 : 131072),
        prog_(kEps) {
    ne_.num_threads = kThreads;
    ne_.mode = ndg::AtomicityMode::kRelaxed;
    ne_.scheduler = ndg::SchedulerKind::kStaticBlock;
    delayed_ = ne_;
    delayed_.delay.steps = kDelaySteps;
    delayed_.delay.kind = ndg::DelayKind::kFixed;
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
    edges_ = ndg::EdgeDataArray<float>(g_.num_edges());
  }

  void prepare_checks(Checker&) override {
    ref_ = ndg::ref::pagerank(g_, kDamping, 1e-9);
  }

  std::uint64_t round(Tracer& tr, Checker& ck, RoundSample& out) override {
    std::uint64_t failed = 0;
    const auto solve = [&](const char* span, const char* op, auto&& run) {
      prog_.init(g_, edges_);
      EngineResult r;
      double ms = 0.0;
      {
        auto s = tr.span(span);
        ms = cpu_ms([&] { r = run(); });
        record_engine(s, r);
        if (r.delayed_writes > 0) {
          s.set("delayed_writes", static_cast<double>(r.delayed_writes));
          s.set("mean_staleness", r.mean_staleness());
        }
      }
      out.add(op, ms);
      out.total_ms += ms;
      if (!r.converged) ++failed;
      if (r.updates == 0) ck.expect(std::string(op) + ": solve did no work");
      if (!ref_.empty()) ck.expect(check_pagerank(g_, prog_.ranks(), ref_, kEps));
    };
    solve("engine.pagerank_ne2", "pagerank_ms",
          [&] { return ndg::run_nondeterministic(g_, prog_, edges_, ne_); });
    solve("engine.pagerank_de", "pagerank_de_ms",
          [&] { return ndg::run_deterministic(g_, prog_, edges_, EngineOptions{}); });
    solve("delay.pagerank_delayed", "pagerank_delayed_ms",
          [&] { return ndg::delay::run_delayed(g_, prog_, edges_, delayed_); });
    return failed;
  }

  [[nodiscard]] std::uint64_t ops_per_round() const override { return 3; }
  [[nodiscard]] std::string headline() const override { return "pagerank_ms"; }

  void ladder(Tracer& tr) override { run_graph_ladder(g_, kEps, tr, 5); }

 private:
  std::uint64_t seed_;
  ndg::VertexId vertices_;
  ndg::EdgeId edge_samples_;
  ndg::Graph g_;
  ndg::PageRankProgram prog_;
  ndg::EdgeDataArray<float> edges_;
  EngineOptions ne_;
  EngineOptions delayed_;
  std::vector<double> ref_;
};

}  // namespace

std::unique_ptr<Workload> make_fixpoint(const RunConfig& cfg) {
  return std::make_unique<Fixpoint>(cfg);
}

}  // namespace perfbench
