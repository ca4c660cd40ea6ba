// Reference computations and output checks for the benchmark.
//
// Everything here is computed apart from the engine: the benchmark keeps its
// own copy of each workload graph (EdgeList, held by the reference process
// of main.cpp), applies every mutation batch to it itself, and derives
// expected outputs from that copy with textbook algorithms (Dijkstra for
// SSSP, the PageRank fixpoint residual). The checks compare the program's
// outputs against those, never against a stored copy of an earlier output.
//
// Each check returns an empty string on success, or a one-line description
// of the first mismatch. `perfbench --selftest` feeds every check a
// corrupted output and requires it to be rejected.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "graph/mutation.h"

namespace perfbench {

using powerlog::Edge;
using powerlog::VertexId;

/// \brief The benchmark's own copy of a graph: per-source out-edge lists with
/// the serving plane's documented mutation semantics (insert appends a
/// parallel edge; delete removes every (src, dst) edge; reweight sets the
/// weight of every (src, dst) edge).
class EdgeList {
 public:
  explicit EdgeList(const powerlog::Graph& graph);
  explicit EdgeList(std::vector<std::vector<Edge>> out);

  VertexId num_vertices() const { return static_cast<VertexId>(out_.size()); }
  uint64_t num_edges() const { return num_edges_; }
  const std::vector<Edge>& out(VertexId v) const { return out_[v]; }

  /// Applies one op; returns true if the edge list changed.
  bool Apply(const powerlog::EdgeMutation& op);

  /// A CSR graph with exactly these edges, built through GraphBuilder.
  powerlog::Graph ToGraph() const;

 private:
  std::vector<std::vector<Edge>> out_;
  uint64_t num_edges_ = 0;
};

/// Single-source shortest distances by Dijkstra (binary heap, lazy
/// deletion); +inf for unreachable vertices. Each distance is the same
/// left-to-right sum `d[u] + w` the SSSP program derives, so a correct
/// engine matches it bit for bit.
std::vector<double> Dijkstra(const EdgeList& edges, VertexId source);

/// The catalog PageRank program's constants: rank(Y) = 0.15 + Σ 0.85·r/deg.
inline constexpr double kPageRankBase = 0.15;
inline constexpr double kPageRankDamping = 0.85;

/// L1 norm of the PageRank fixpoint residual
/// r_v = base + Σ_{u→v} (damping·x_u)/deg(u) − x_v, recomputed from `edges`.
double PageRankResidual(const EdgeList& edges, const std::vector<double>& x);

/// The ε-derived bounds a PageRank output must meet. With r(x) the residual
/// above, x − x* = −(I − 0.85·A)⁻¹ r(x) and ‖0.85·A‖₁ ≤ 0.85, so
/// ‖x − x*‖₁ ≤ ‖r(x)‖₁ / 0.15. ε-termination leaves ‖r(x)‖₁ < ε (the
/// pending delta mass is exactly the residual), hence two outputs that both
/// meet the residual bound differ by at most 2ε / 0.15 in L1.
struct PageRankBounds {
  double residual;  ///< ε
  double l1;        ///< 2ε / (1 − damping)
};
PageRankBounds PageRankBoundsFor(double epsilon);

/// Bit-for-bit equality of two value vectors (+inf included).
std::string CheckBitExact(const std::string& what, const std::vector<double>& got,
                          const std::vector<double>& want);

/// ‖got − want‖₁ ≤ bound, finite values only.
std::string CheckL1Within(const std::string& what, const std::vector<double>& got,
                          const std::vector<double>& want, double bound);

/// PageRank residual of `x` on `edges` is at most `bound`.
std::string CheckResidual(const std::string& what, const EdgeList& edges,
                          const std::vector<double>& x, double bound);

/// The program's graph snapshot holds exactly the edges of `own` (same
/// multiset of (dst, weight) per source).
std::string CheckSameEdges(const std::string& what, const EdgeList& snapshot,
                           const EdgeList& own);

/// Every key of `want` has the same count in `got`.
std::string CheckCounts(const std::string& what,
                        const std::map<std::string, int64_t>& got,
                        const std::map<std::string, int64_t>& want);

/// The k best finite values of `values` (ascending for distances, descending
/// for scores), as the expected answer of a top-k request.
std::vector<double> TopKValues(const std::vector<double>& values, size_t k,
                               bool ascending);

}  // namespace perfbench
