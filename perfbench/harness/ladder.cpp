#include "ladder.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "algorithms/pagerank.hpp"
#include "atomics/access_policy.hpp"
#include "atomics/lock_table.hpp"
#include "engine/frontier.hpp"
#include "engine/nondeterministic.hpp"
#include "engine/update_context.hpp"
#include "graph/generators.hpp"
#include "sched/static_block.hpp"
#include "util/rng.hpp"

namespace perfbench {

using ndg::EdgeDataArray;
using ndg::EdgeId;
using ndg::Graph;
using ndg::InEdge;
using ndg::VertexId;

void record_engine(Tracer::Scope& s, const ndg::EngineResult& r) {
  s.set("updates", static_cast<double>(r.updates));
  s.set("iterations", static_cast<double>(r.iterations));
  s.set("imbalance", r.load_imbalance());
}

double graph_bytes(const Graph& g) {
  const double v1 = static_cast<double>(g.num_vertices()) + 1.0;
  const double e = static_cast<double>(g.num_edges());
  return 2.0 * v1 * sizeof(EdgeId) +                 // CSR + CSC offsets
         e * (sizeof(VertexId) + sizeof(InEdge) +    // targets, in-edges
              sizeof(VertexId) + sizeof(std::uint64_t));  // sources, slots
}

std::vector<VertexId> relabel(ndg::EdgeList& edges, VertexId n,
                              std::uint64_t seed) {
  std::vector<VertexId> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  ndg::Xoshiro256 rng(seed);
  std::shuffle(perm.begin(), perm.end(), rng);
  for (ndg::Edge& e : edges) e = {perm[e.src], perm[e.dst]};
  return perm;
}

namespace {

volatile double g_sink = 0.0;

/// One PageRank-shaped sweep: read every in-edge, write every out-edge.
template <typename Policy>
double pagerank_sweep(const Graph& g, EdgeDataArray<float>& edges,
                      const Policy& policy) {
  double checksum = 0.0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    float sum = 0.0f;
    for (const InEdge& ie : g.in_edges(v)) sum += policy.read(edges, ie.id);
    const float rank = 0.15f + 0.85f * sum;
    checksum += rank;
    const EdgeId deg = g.out_degree(v);
    if (deg == 0) continue;
    const float w = rank / static_cast<float>(deg);
    for (EdgeId k = 0; k < deg; ++k) policy.write(edges, g.out_edge_id(v, k), w);
  }
  return checksum;
}

template <typename Policy>
void edge_rw_rung(const Graph& g, const char* name, const Policy& policy,
                  Tracer& tr, int reps, double& sink) {
  EdgeDataArray<float> edges(g.num_edges(), 0.5f);
  for (int r = 0; r < reps; ++r) {
    auto s = tr.span(name);
    sink += pagerank_sweep(g, edges, policy);
    s.set("accesses", 2.0 * static_cast<double>(g.num_edges()));
  }
}

/// Sequential Gauss-Seidel pull PageRank on plain floats over the same
/// InEdge / edge-slot layout, swept until no rank moves by eps or more.
double bare_pull(const Graph& g, float eps, std::uint64_t& updates) {
  std::vector<float> slot(g.num_edges());
  std::vector<float> rank(g.num_vertices(), 1.0f);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const EdgeId deg = g.out_degree(v);
    for (EdgeId k = 0; k < deg; ++k) {
      slot[g.out_edge_id(v, k)] = 1.0f / static_cast<float>(deg);
    }
  }
  bool moving = true;
  for (int sweep = 0; moving && sweep < 1000; ++sweep) {
    moving = false;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      float sum = 0.0f;
      for (const InEdge& ie : g.in_edges(v)) sum += slot[ie.id];
      const float r = 0.15f + 0.85f * sum;
      ++updates;
      if (std::fabs(r - rank[v]) < eps) continue;
      moving = true;
      rank[v] = r;
      const EdgeId deg = g.out_degree(v);
      for (EdgeId k = 0; k < deg; ++k) {
        slot[g.out_edge_id(v, k)] = r / static_cast<float>(deg);
      }
    }
  }
  double checksum = 0.0;
  for (const float r : rank) checksum += r;
  return checksum;
}

}  // namespace

void run_graph_ladder(const Graph& g, float eps, Tracer& tr, int reps) {
  const VertexId n = g.num_vertices();
  double sink = 0.0;

  edge_rw_rung(g, "atomics.edge_rw.relaxed", ndg::RelaxedAtomicAccess{}, tr, reps, sink);
  edge_rw_rung(g, "atomics.edge_rw.aligned", ndg::AlignedAccess{}, tr, reps, sink);
  edge_rw_rung(g, "atomics.edge_rw.seq_cst", ndg::SeqCstAccess{}, tr, reps, sink);
  {
    ndg::EdgeLockTable locks(g.num_edges());
    edge_rw_rung(g, "atomics.edge_rw.locked", ndg::LockedAccess{&locks}, tr, reps, sink);
  }

  {
    ndg::PageRankProgram prog(eps);
    EdgeDataArray<float> edges(g.num_edges());
    ndg::Frontier frontier(n);
    for (int r = 0; r < reps; ++r) {
      prog.init(g, edges);
      ndg::UpdateContext<float, ndg::RelaxedAtomicAccess> ctx(
          g, edges, ndg::RelaxedAtomicAccess{}, frontier);
      auto s = tr.span("engine.ctx");
      for (VertexId v = 0; v < n; ++v) {
        ctx.begin(v, 0);
        prog.update(v, ctx);
      }
      s.set("updates", n);
    }
  }

  for (int r = 0; r < reps; ++r) {
    ndg::Frontier f(n, ndg::FrontierPolicy::kDense);
    auto s = tr.span("engine.frontier_dense");
    for (VertexId v = 0; v < n; ++v) f.schedule(v);
    f.advance();
    f.for_each_in_words(0, f.num_words(), [&](std::size_t v) { sink += static_cast<double>(v); });
    s.set("vertices", n);
  }

  // A small frontier, as on a wavefront: one vertex in 64.
  for (int r = 0; r < reps; ++r) {
    ndg::Frontier f(n, ndg::FrontierPolicy::kSparse);
    auto s = tr.span("engine.frontier_sparse");
    VertexId count = 0;
    for (VertexId v = 0; v < n; v += 64, ++count) f.schedule(v);
    f.advance();
    for (const VertexId v : f.current()) sink += v;
    s.set("vertices", count);
  }

  for (int r = 0; r < reps; ++r) {
    ndg::StaticBlockWorklist wl(1);
    auto s = tr.span("sched.static_block");
    for (VertexId v = 0; v < n; ++v) wl.push(0, v);
    VertexId out = 0;
    while (wl.try_pop(0, out)) sink += out;
    s.set("items", n);
  }

  {
    ndg::PageRankProgram prog(eps);
    EdgeDataArray<float> edges(g.num_edges());
    ndg::EngineOptions opts;
    opts.num_threads = 1;
    for (int r = 0; r < reps; ++r) {
      prog.init(g, edges);
      auto s = tr.span("engine.pagerank_ne1");
      const ndg::EngineResult res = ndg::run_nondeterministic(g, prog, edges, opts);
      record_engine(s, res);
    }
  }

  for (int r = 0; r < reps; ++r) {
    std::uint64_t updates = 0;
    auto s = tr.span("ref.bare_pull");
    sink += bare_pull(g, eps, updates);
    s.set("updates", static_cast<double>(updates));
  }

  g_sink = sink;  // keeps the loops observable
}

}  // namespace perfbench
