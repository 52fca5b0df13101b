#pragma once
// Helpers shared by the workloads: timing, engine-result counters on a span,
// graph byte sizes, and the sequential layer rungs a traced run measures on
// a workload's static graph.

#include <cstdint>
#include <ctime>
#include <vector>

#include "engine/options.hpp"
#include "graph/graph.hpp"
#include "trace.hpp"

namespace perfbench {

/// CPU time this process has used since it started, summed over its
/// threads, in milliseconds. Time a thread spends descheduled is not
/// counted, including time the hypervisor steals from a virtual CPU (the
/// guest kernel accounts steal time apart from the task's run time).
[[nodiscard]] inline double process_cpu_ms() {
  timespec t{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) * 1e3 + static_cast<double>(t.tv_nsec) * 1e-6;
}

/// Process CPU time of fn() in milliseconds: every timed operation of the
/// benchmark is measured this way, not by wall time. On a host whose
/// hypervisor steals virtual CPUs in busy periods, a 2-thread solve's wall
/// time swings several-fold with the steal, because each barrier waits for
/// the descheduled thread, while its CPU time moves little (README,
/// Steadiness).
template <typename Fn>
double cpu_ms(Fn&& fn) {
  const double t0 = process_cpu_ms();
  fn();
  return process_cpu_ms() - t0;
}

/// Records the counters every engine run reports on its span.
void record_engine(Tracer::Scope& s, const ndg::EngineResult& r);

/// Bytes of the CSR, the CSC, the edge-source array and one 8-byte edge-data
/// slot per edge.
[[nodiscard]] double graph_bytes(const ndg::Graph& g);

/// Renames every endpoint through a random permutation of [0, n) drawn from
/// `seed`; returns the permutation (old label -> new label).
std::vector<ndg::VertexId> relabel(ndg::EdgeList& edges, ndg::VertexId n,
                                   std::uint64_t seed);
/// The rungs, each a plain sequential loop over `g` repeated `reps` times,
/// one span per repetition: EdgeDataArray reads and writes in PageRank's
/// access pattern through each atomicity policy; PageRank's update called
/// through UpdateContext; dense and sparse Frontier schedule/advance/sweep;
/// StaticBlockWorklist feed and pop; and a 1-thread NE PageRank solve.
/// A bare pull loop over the same layout is recorded as "ref.bare_pull" (a
/// reference figure, not a metric).
void run_graph_ladder(const ndg::Graph& g, float eps, Tracer& tr, int reps);

}  // namespace perfbench
