#pragma once
// Output checkers. Each returns an empty string when the output passes and a
// one-line description of the first violation otherwise. They compare
// against computations made apart from the engine under test (the
// sequential references in algorithms/reference/) or against a property the
// method must have (residual, symmetry, maximality, properness).

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace perfbench {

inline constexpr double kDamping = 0.85;

/// Tolerance of a locally converged PageRank at a vertex whose rank is
/// `value`: eps * max(1, value) / (1 - damping)^2. A vertex stops scattering
/// once its rank moves by less than eps, so each in-edge may carry mass that
/// is stale by less than eps times the source's share; summed over in-edges
/// and attenuated by the damping factor along every path, the error against
/// the exact fixed point stays within this bound. The same bound applies to
/// the fixed-point residual |(1-d) + d * sum_in rank(u)/outdeg(u) - rank(v)|:
/// the sub-eps changes a vertex does not scatter can add up past eps, so a
/// single eps per unit of in-mass (eps * max(1, rank) / (1 - damping)) is
/// too tight (it was exceeded, by 5%, at one vertex in about 700 NE solves).
[[nodiscard]] double pagerank_tolerance(double eps, double value);

/// Within pagerank_tolerance of `ref` at every vertex.
std::string check_pagerank_values(const char* what, const std::vector<float>& ranks,
                                  const std::vector<double>& ref, double eps);

/// PageRank from any engine: within pagerank_tolerance of `ref` at every
/// vertex, and its residual, computed by the checker's own loop over the
/// CSR, within pagerank_tolerance of its own rank.
std::string check_pagerank(const ndg::Graph& g, const std::vector<float>& ranks,
                           const std::vector<double>& ref, double eps);

/// Exact, element-by-element equality (bitwise for floats, so -0/+0 and NaN
/// spellings also count as different).
std::string check_equal(const char* what, const std::vector<float>& got,
                        const std::vector<float>& want);
std::string check_equal(const char* what, const std::vector<std::uint32_t>& got,
                        const std::vector<std::uint32_t>& want);

/// `levels` is a BFS level vector (0xffffffff = unreached): at least
/// `min_share` of all vertices must be reached.
std::string check_reach(const char* what,
                        const std::vector<std::uint32_t>& levels,
                        double min_share);

/// Matching: equal to the greedy reference, symmetric, every pair a real
/// edge (either direction), and maximal (no edge joins two free vertices).
std::string check_matching(const ndg::Graph& g,
                           const std::vector<ndg::VertexId>& match,
                           const std::vector<ndg::VertexId>& ref);

/// Coloring: equal to the greedy reference and proper (no edge joins two
/// vertices of one colour).
std::string check_coloring(const ndg::Graph& g,
                           const std::vector<std::uint32_t>& colors,
                           const std::vector<std::uint32_t>& ref);

}  // namespace perfbench
