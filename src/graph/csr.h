#pragma once

// Compressed-sparse-row graph and a builder from edge lists.
//
// The Word2Vec "graph" itself is dense-and-implicit (edges are sampled on the
// fly), but the substrate must be a real graph-analytics framework; CSR is
// the representation the validation algorithms (BFS/SSSP/PageRank/CC) run on.

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace gw2v::graph {

using NodeId = std::uint32_t;
using EdgeId = std::uint64_t;

struct Edge {
  NodeId src;
  NodeId dst;
  float weight = 1.0f;
};

class CSRGraph {
 public:
  CSRGraph() = default;

  /// Build from an (unsorted) edge list over `numNodes` nodes.
  CSRGraph(NodeId numNodes, std::span<const Edge> edges) { build(numNodes, edges); }

  void build(NodeId numNodes, std::span<const Edge> edges) {
    numNodes_ = numNodes;
    rowPtr_.assign(static_cast<std::size_t>(numNodes) + 1, 0);
    for (const Edge& e : edges) {
      if (e.src >= numNodes || e.dst >= numNodes)
        throw std::out_of_range("CSRGraph: edge endpoint out of range");
      ++rowPtr_[e.src + 1];
    }
    for (std::size_t i = 1; i < rowPtr_.size(); ++i) rowPtr_[i] += rowPtr_[i - 1];
    edgeDst_.resize(edges.size());
    edgeWeight_.resize(edges.size());
    std::vector<EdgeId> cursor(rowPtr_.begin(), rowPtr_.end() - 1);
    for (const Edge& e : edges) {
      const EdgeId at = cursor[e.src]++;
      edgeDst_[at] = e.dst;
      edgeWeight_[at] = e.weight;
    }
  }

  NodeId numNodes() const noexcept { return numNodes_; }
  EdgeId numEdges() const noexcept { return edgeDst_.size(); }

  std::span<const NodeId> neighbors(NodeId n) const noexcept {
    return {edgeDst_.data() + rowPtr_[n], edgeDst_.data() + rowPtr_[n + 1]};
  }
  std::span<const float> weights(NodeId n) const noexcept {
    return {edgeWeight_.data() + rowPtr_[n], edgeWeight_.data() + rowPtr_[n + 1]};
  }
  EdgeId degree(NodeId n) const noexcept { return rowPtr_[n + 1] - rowPtr_[n]; }

 private:
  NodeId numNodes_ = 0;
  std::vector<EdgeId> rowPtr_;
  std::vector<NodeId> edgeDst_;
  std::vector<float> edgeWeight_;
};

/// Reverse every edge — the incoming-neighbour view of a directed graph.
inline CSRGraph transpose(const CSRGraph& g) {
  std::vector<Edge> reversed;
  reversed.reserve(g.numEdges());
  for (NodeId u = 0; u < g.numNodes(); ++u) {
    const auto nbrs = g.neighbors(u);
    const auto w = g.weights(u);
    for (std::size_t e = 0; e < nbrs.size(); ++e) reversed.push_back({nbrs[e], u, w[e]});
  }
  return CSRGraph(g.numNodes(), reversed);
}

/// Undirected helper: emit both directions for each input edge.
inline std::vector<Edge> symmetrize(std::span<const Edge> edges) {
  std::vector<Edge> out;
  out.reserve(edges.size() * 2);
  for (const Edge& e : edges) {
    out.push_back(e);
    out.push_back(Edge{e.dst, e.src, e.weight});
  }
  return out;
}

}  // namespace gw2v::graph
