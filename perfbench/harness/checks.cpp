#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

namespace perfbench {

using ndg::InEdge;
using ndg::VertexId;

double pagerank_tolerance(double eps, double value) {
  return eps * std::max(1.0, value) / ((1.0 - kDamping) * (1.0 - kDamping));
}

std::string check_pagerank_values(const char* what, const std::vector<float>& ranks,
                                  const std::vector<double>& ref, double eps) {
  if (ranks.size() != ref.size()) return std::string(what) + ": size mismatch";
  for (std::size_t v = 0; v < ranks.size(); ++v) {
    const double err = std::fabs(ranks[v] - ref[v]);
    if (!(err <= pagerank_tolerance(eps, ref[v]))) {
      std::ostringstream os;
      os << what << ": vertex " << v << " rank " << ranks[v] << " vs reference "
         << ref[v] << " (tolerance " << pagerank_tolerance(eps, ref[v]) << ")";
      return os.str();
    }
  }
  return "";
}

std::string check_pagerank(const ndg::Graph& g, const std::vector<float>& ranks,
                           const std::vector<double>& ref, double eps) {
  const VertexId n = g.num_vertices();
  if (ranks.size() != n) return "pagerank: size mismatch";
  if (std::string e = check_pagerank_values("pagerank", ranks, ref, eps); !e.empty()) {
    return e;
  }
  for (VertexId v = 0; v < n; ++v) {
    double sum = 0.0;
    for (const InEdge& ie : g.in_edges(v)) {
      sum += static_cast<double>(ranks[ie.src]) /
             static_cast<double>(g.out_degree(ie.src));
    }
    const double residual =
        std::fabs((1.0 - kDamping) + kDamping * sum - ranks[v]);
    if (!(residual <= pagerank_tolerance(eps, ranks[v]))) {
      std::ostringstream os;
      os << "pagerank: vertex " << v << " residual " << residual
         << " exceeds bound " << pagerank_tolerance(eps, ranks[v]);
      return os.str();
    }
  }
  return "";
}

namespace {

template <typename T>
std::string equal_impl(const char* what, const std::vector<T>& got,
                       const std::vector<T>& want) {
  if (got.size() != want.size()) {
    return std::string(what) + ": size " + std::to_string(got.size()) +
           " vs " + std::to_string(want.size());
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::memcmp(&got[i], &want[i], sizeof(T)) != 0) {
      std::ostringstream os;
      os << what << ": vertex " << i << " got " << got[i] << " want "
         << want[i];
      return os.str();
    }
  }
  return "";
}

/// Sorted undirected neighbourhood of v (out- and in-neighbours).
std::vector<VertexId> undirected(const ndg::Graph& g, VertexId v) {
  std::vector<VertexId> nbrs(g.out_neighbors(v).begin(),
                             g.out_neighbors(v).end());
  for (const InEdge& ie : g.in_edges(v)) nbrs.push_back(ie.src);
  std::sort(nbrs.begin(), nbrs.end());
  nbrs.erase(std::unique(nbrs.begin(), nbrs.end()), nbrs.end());
  return nbrs;
}

}  // namespace

std::string check_equal(const char* what, const std::vector<float>& got,
                        const std::vector<float>& want) {
  return equal_impl(what, got, want);
}

std::string check_equal(const char* what, const std::vector<std::uint32_t>& got,
                        const std::vector<std::uint32_t>& want) {
  return equal_impl(what, got, want);
}

std::string check_reach(const char* what,
                        const std::vector<std::uint32_t>& levels,
                        double min_share) {
  const auto reached = static_cast<std::size_t>(
      std::count_if(levels.begin(), levels.end(),
                    [](std::uint32_t l) { return l != 0xffffffffu; }));
  if (static_cast<double>(reached) < min_share * static_cast<double>(levels.size())) {
    return std::string(what) + ": source reaches only " +
           std::to_string(reached) + " of " + std::to_string(levels.size()) +
           " vertices";
  }
  return "";
}

std::string check_matching(const ndg::Graph& g,
                           const std::vector<VertexId>& match,
                           const std::vector<VertexId>& ref) {
  if (std::string e = equal_impl("matching", match, ref); !e.empty()) return e;
  const VertexId n = g.num_vertices();
  for (VertexId v = 0; v < n; ++v) {
    const VertexId u = match[v];
    const auto nbrs = undirected(g, v);
    if (u == ndg::kInvalidVertex) {
      for (const VertexId w : nbrs) {
        if (w != v && match[w] == ndg::kInvalidVertex) {
          return "matching: edge " + std::to_string(v) + "-" +
                 std::to_string(w) + " joins two free vertices";
        }
      }
      continue;
    }
    if (u >= n || u == v || match[u] != v) {
      return "matching: vertex " + std::to_string(v) + " pairing is not symmetric";
    }
    if (!std::binary_search(nbrs.begin(), nbrs.end(), u)) {
      return "matching: pair " + std::to_string(v) + "-" + std::to_string(u) +
             " is not an edge";
    }
  }
  return "";
}

std::string check_coloring(const ndg::Graph& g,
                           const std::vector<std::uint32_t>& colors,
                           const std::vector<std::uint32_t>& ref) {
  if (std::string e = equal_impl("coloring", colors, ref); !e.empty()) return e;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (const VertexId u : g.out_neighbors(v)) {
      if (u != v && colors[u] == colors[v]) {
        return "coloring: edge " + std::to_string(v) + "-" +
               std::to_string(u) + " joins two vertices of colour " +
               std::to_string(colors[v]);
      }
    }
  }
  return "";
}

}  // namespace perfbench
