#include "oracle.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <queue>
#include <utility>

#include "graph/builder.h"

namespace perfbench {
namespace {

std::string Format(const char* fmt, double a, double b) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), fmt, a, b);
  return buf;
}

}  // namespace

EdgeList::EdgeList(const powerlog::Graph& graph) : out_(graph.num_vertices()) {
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    out_[v].assign(graph.OutBegin(v), graph.OutEnd(v));
  }
  num_edges_ = graph.num_edges();
}

EdgeList::EdgeList(std::vector<std::vector<Edge>> out) : out_(std::move(out)) {
  for (const auto& row : out_) num_edges_ += row.size();
}

bool EdgeList::Apply(const powerlog::EdgeMutation& op) {
  std::vector<Edge>& row = out_[op.src];
  switch (op.kind) {
    case powerlog::MutationOp::kInsertEdge:
      row.push_back(Edge{op.dst, op.weight});
      ++num_edges_;
      return true;
    case powerlog::MutationOp::kDeleteEdge: {
      const size_t before = row.size();
      std::erase_if(row, [&](const Edge& e) { return e.dst == op.dst; });
      num_edges_ -= before - row.size();
      return row.size() != before;
    }
    case powerlog::MutationOp::kReweightEdge: {
      bool changed = false;
      for (Edge& e : row) {
        if (e.dst == op.dst && e.weight != op.weight) {
          e.weight = op.weight;
          changed = true;
        }
      }
      return changed;
    }
  }
  return false;
}

powerlog::Graph EdgeList::ToGraph() const {
  powerlog::GraphBuilder builder;
  builder.EnsureVertices(num_vertices());
  for (VertexId v = 0; v < num_vertices(); ++v) {
    for (const Edge& e : out_[v]) builder.AddEdge(v, e.dst, e.weight);
  }
  return std::move(builder).Build().ValueOrDie();
}

std::vector<double> Dijkstra(const EdgeList& edges, VertexId source) {
  std::vector<double> dist(edges.num_vertices(),
                           std::numeric_limits<double>::infinity());
  using Item = std::pair<double, VertexId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> heap;
  dist[source] = 0.0;
  heap.push({0.0, source});
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > dist[u]) continue;
    for (const Edge& e : edges.out(u)) {
      const double nd = d + e.weight;
      if (nd < dist[e.dst]) {
        dist[e.dst] = nd;
        heap.push({nd, e.dst});
      }
    }
  }
  return dist;
}

double PageRankResidual(const EdgeList& edges, const std::vector<double>& x) {
  std::vector<double> in(edges.num_vertices(), kPageRankBase);
  for (VertexId u = 0; u < edges.num_vertices(); ++u) {
    const auto& row = edges.out(u);
    if (row.empty()) continue;
    const double share = (kPageRankDamping * x[u]) / static_cast<double>(row.size());
    for (const Edge& e : row) in[e.dst] += share;
  }
  double l1 = 0.0;
  for (VertexId v = 0; v < edges.num_vertices(); ++v) l1 += std::abs(in[v] - x[v]);
  return l1;
}

PageRankBounds PageRankBoundsFor(double epsilon) {
  return PageRankBounds{epsilon, 2.0 * epsilon / (1.0 - kPageRankDamping)};
}

std::string CheckBitExact(const std::string& what, const std::vector<double>& got,
                          const std::vector<double>& want) {
  if (got.size() != want.size()) {
    return what + ": " + std::to_string(got.size()) + " values, expected " +
           std::to_string(want.size());
  }
  for (size_t v = 0; v < want.size(); ++v) {
    if (std::bit_cast<uint64_t>(got[v]) != std::bit_cast<uint64_t>(want[v])) {
      return what + ": vertex " + std::to_string(v) +
             Format(" holds %.17g, expected %.17g", got[v], want[v]);
    }
  }
  return "";
}

std::string CheckL1Within(const std::string& what, const std::vector<double>& got,
                          const std::vector<double>& want, double bound) {
  if (got.size() != want.size()) {
    return what + ": " + std::to_string(got.size()) + " values, expected " +
           std::to_string(want.size());
  }
  double l1 = 0.0;
  for (size_t v = 0; v < want.size(); ++v) {
    if (!std::isfinite(got[v])) return what + ": vertex " + std::to_string(v) + " is not finite";
    l1 += std::abs(got[v] - want[v]);
  }
  if (!(l1 <= bound)) return what + Format(": L1 distance %.6g exceeds %.6g", l1, bound);
  return "";
}

std::string CheckResidual(const std::string& what, const EdgeList& edges,
                          const std::vector<double>& x, double bound) {
  if (x.size() != edges.num_vertices()) return what + ": wrong number of values";
  const double residual = PageRankResidual(edges, x);
  if (!(residual <= bound)) {
    return what + Format(": fixpoint residual %.6g exceeds %.6g", residual, bound);
  }
  return "";
}

std::string CheckSameEdges(const std::string& what, const EdgeList& snapshot,
                           const EdgeList& own) {
  if (snapshot.num_vertices() != own.num_vertices() ||
      snapshot.num_edges() != own.num_edges()) {
    return what + ": snapshot has " + std::to_string(snapshot.num_edges()) +
           " edges, the benchmark's edge list " + std::to_string(own.num_edges());
  }
  auto key = [](const Edge& e) { return std::pair(e.dst, std::bit_cast<uint64_t>(e.weight)); };
  auto less = [&](const Edge& a, const Edge& b) { return key(a) < key(b); };
  std::vector<Edge> a, b;
  for (VertexId v = 0; v < own.num_vertices(); ++v) {
    a = snapshot.out(v);
    b = own.out(v);
    std::sort(a.begin(), a.end(), less);
    std::sort(b.begin(), b.end(), less);
    const bool same = std::equal(a.begin(), a.end(), b.begin(), b.end(),
                                 [&](const Edge& x, const Edge& y) { return key(x) == key(y); });
    if (!same) return what + ": out-edges of vertex " + std::to_string(v) + " differ";
  }
  return "";
}

std::string CheckCounts(const std::string& what,
                        const std::map<std::string, int64_t>& got,
                        const std::map<std::string, int64_t>& want) {
  for (const auto& [name, count] : want) {
    const auto it = got.find(name);
    const int64_t have = it == got.end() ? 0 : it->second;
    if (have != count) {
      return what + ": " + name + " = " + std::to_string(have) + ", counted " +
             std::to_string(count);
    }
  }
  return "";
}

std::vector<double> TopKValues(const std::vector<double>& values, size_t k,
                               bool ascending) {
  std::vector<double> finite;
  for (const double v : values) {
    if (std::isfinite(v)) finite.push_back(v);
  }
  k = std::min(k, finite.size());
  auto order = [ascending](double a, double b) { return ascending ? a < b : a > b; };
  std::partial_sort(finite.begin(), finite.begin() + static_cast<ptrdiff_t>(k),
                    finite.end(), order);
  finite.resize(k);
  return finite;
}

}  // namespace perfbench
