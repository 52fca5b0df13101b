// traversal-grid: SSSP (NE, pull), BFS (direction-optimizing, auto) and WCC
// (NE) on a one-way 2-D grid, a high-diameter road-like graph. Vertex ids are
// a seeded random permutation of the row-major labels, so WCC's minimum label
// cannot sweep the whole grid along ascending ids in one round: all three
// algorithms need a number of rounds on the order of the diameter, each over
// a small sparse frontier. Here the round loop (barrier, advance, sparse
// frontier) costs most, per-update cost little.

#include <memory>

#include "algorithms/bfs.hpp"
#include "algorithms/reference/references.hpp"
#include "algorithms/sssp.hpp"
#include "algorithms/wcc.hpp"
#include "analysis/direction_eligibility.hpp"
#include "checks.hpp"
#include "engine/direction.hpp"
#include "engine/nondeterministic.hpp"
#include "graph/generators.hpp"
#include "ladder.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using ndg::EngineOptions;
using ndg::EngineResult;
using ndg::VertexId;

constexpr std::size_t kThreads = 2;

class Traversal final : public Workload {
 public:
  explicit Traversal(const RunConfig& cfg)
      : seed_(cfg.seed), side_(cfg.tiny ? 24 : 128) {
    opts_.num_threads = kThreads;
    opts_.mode = ndg::AtomicityMode::kRelaxed;
    bfs_opts_ = opts_;
    bfs_opts_.direction = ndg::DirectionMode::kAuto;
  }

  void setup(Tracer& tr) override {
    ndg::assert_switchable<ndg::BfsProgram>();
    const VertexId n = side_ * side_;
    ndg::EdgeList el;
    {
      auto s = tr.span("graph.generate");
      el = ndg::gen::grid2d(side_, side_);
      source_ = relabel(el, n, seed_)[0];  // the top-left corner reaches all
    }
    {
      auto s = tr.span("graph.build");
      g_ = ndg::Graph::build(n, std::move(el));
      s.set("bytes", graph_bytes(g_));
    }
    sssp_edges_ = ndg::EdgeDataArray<ndg::SsspEdge>(g_.num_edges());
    bfs_edges_ = ndg::EdgeDataArray<std::uint32_t>(g_.num_edges());
    wcc_edges_ = ndg::EdgeDataArray<std::uint32_t>(g_.num_edges());
  }

  void prepare_checks(Checker& ck) override {
    std::vector<float> weights(g_.num_edges());
    for (ndg::EdgeId e = 0; e < g_.num_edges(); ++e) {
      weights[e] = ndg::SsspProgram::edge_weight(seed_, e);
    }
    ref_sssp_ = ndg::ref::sssp(g_, source_, weights);
    ref_bfs_ = ndg::ref::bfs(g_, source_);
    ref_wcc_ = ndg::ref::wcc(g_);
    ck.expect(check_reach("traversal source", ref_bfs_, 0.5));
    checks_ready_ = true;
  }

  std::uint64_t round(Tracer& tr, Checker& ck, RoundSample& out) override {
    std::uint64_t failed = 0;
    const auto finish = [&](const char* op, const EngineResult& r, double ms) {
      out.add(op, ms);
      out.total_ms += ms;
      if (!r.converged) ++failed;
      if (r.updates == 0) ck.expect(std::string(op) + ": solve did no work");
    };
    {
      ndg::SsspProgram prog(source_, seed_);
      prog.init(g_, sssp_edges_);
      EngineResult r;
      auto s = tr.span("engine.sssp");
      const double ms = cpu_ms(
          [&] { r = ndg::run_nondeterministic(g_, prog, sssp_edges_, opts_); });
      record_engine(s, r);
      s.end();
      finish("sssp_ms", r, ms);
      if (checks_ready_) ck.expect(check_equal("sssp", prog.distances(), ref_sssp_));
    }
    {
      ndg::BfsProgram prog(source_);
      prog.init(g_, bfs_edges_);
      EngineResult r;
      auto s = tr.span("engine.bfs");
      const double ms = cpu_ms([&] {
        r = ndg::run_direction_optimizing(g_, prog, bfs_edges_, bfs_opts_);
      });
      record_engine(s, r);
      s.set("push_iterations", static_cast<double>(r.push_iterations()));
      s.set("switches", static_cast<double>(r.direction_switches));
      s.end();
      finish("bfs_ms", r, ms);
      if (checks_ready_) ck.expect(check_equal("bfs", prog.levels(), ref_bfs_));
    }
    {
      ndg::WccProgram prog;
      prog.init(g_, wcc_edges_);
      EngineResult r;
      auto s = tr.span("engine.wcc");
      const double ms = cpu_ms(
          [&] { r = ndg::run_nondeterministic(g_, prog, wcc_edges_, opts_); });
      record_engine(s, r);
      s.end();
      finish("wcc_ms", r, ms);
      if (checks_ready_) ck.expect(check_equal("wcc", prog.labels(), ref_wcc_));
    }
    return failed;
  }

  [[nodiscard]] std::uint64_t ops_per_round() const override { return 3; }
  [[nodiscard]] std::string headline() const override { return "sssp_ms"; }
  /// Rounds are short: warm up over about as long as the other workloads.
  [[nodiscard]] std::size_t warmup_rounds() const override { return 10; }

  void ladder(Tracer& tr) override { run_graph_ladder(g_, 1e-3f, tr, 5); }

 private:
  std::uint64_t seed_;
  VertexId side_;
  VertexId source_ = 0;
  ndg::Graph g_;
  EngineOptions opts_;
  EngineOptions bfs_opts_;
  ndg::EdgeDataArray<ndg::SsspEdge> sssp_edges_;
  ndg::EdgeDataArray<std::uint32_t> bfs_edges_;
  ndg::EdgeDataArray<std::uint32_t> wcc_edges_;
  bool checks_ready_ = false;
  std::vector<float> ref_sssp_;
  std::vector<std::uint32_t> ref_bfs_;
  std::vector<std::uint32_t> ref_wcc_;
};

}  // namespace

std::unique_ptr<Workload> make_traversal(const RunConfig& cfg) {
  return std::make_unique<Traversal>(cfg);
}

}  // namespace perfbench
