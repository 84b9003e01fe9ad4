#include "graph/csr.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "util/rng.h"

namespace gw2v::graph {
namespace {

TEST(CSRGraph, EmptyGraph) {
  CSRGraph g(0, {});
  EXPECT_EQ(g.numNodes(), 0u);
  EXPECT_EQ(g.numEdges(), 0u);
}

TEST(CSRGraph, NodesWithoutEdges) {
  CSRGraph g(5, {});
  EXPECT_EQ(g.numNodes(), 5u);
  for (NodeId n = 0; n < 5; ++n) EXPECT_EQ(g.degree(n), 0u);
}

TEST(CSRGraph, BuildsAdjacency) {
  const std::vector<Edge> edges{{0, 1, 1.0f}, {0, 2, 2.0f}, {1, 2, 3.0f}};
  CSRGraph g(3, edges);
  EXPECT_EQ(g.numEdges(), 3u);
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.degree(1), 1u);
  EXPECT_EQ(g.degree(2), 0u);
  const auto n0 = g.neighbors(0);
  std::vector<NodeId> sorted(n0.begin(), n0.end());
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<NodeId>{1, 2}));
}

TEST(CSRGraph, WeightsAlignWithNeighbors) {
  const std::vector<Edge> edges{{0, 1, 1.5f}, {0, 2, 2.5f}};
  CSRGraph g(3, edges);
  const auto nbrs = g.neighbors(0);
  const auto w = g.weights(0);
  ASSERT_EQ(nbrs.size(), 2u);
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    if (nbrs[i] == 1) { EXPECT_FLOAT_EQ(w[i], 1.5f); }
    if (nbrs[i] == 2) { EXPECT_FLOAT_EQ(w[i], 2.5f); }
  }
}

TEST(CSRGraph, SelfLoopsAndParallelEdges) {
  const std::vector<Edge> edges{{0, 0, 1.0f}, {0, 1, 1.0f}, {0, 1, 2.0f}};
  CSRGraph g(2, edges);
  EXPECT_EQ(g.degree(0), 3u);
}

TEST(CSRGraph, OutOfRangeEndpointThrows) {
  const std::vector<Edge> bad{{0, 7, 1.0f}};
  EXPECT_THROW(CSRGraph(3, bad), std::out_of_range);
  const std::vector<Edge> bad2{{7, 0, 1.0f}};
  EXPECT_THROW(CSRGraph(3, bad2), std::out_of_range);
}

TEST(CSRGraph, SymmetrizeDoublesEdges) {
  const std::vector<Edge> edges{{0, 1, 4.0f}, {1, 2, 5.0f}};
  const auto sym = symmetrize(edges);
  EXPECT_EQ(sym.size(), 4u);
  CSRGraph g(3, sym);
  EXPECT_EQ(g.degree(1), 2u);
  EXPECT_EQ(g.degree(2), 1u);
  EXPECT_EQ(g.neighbors(2)[0], 1u);
  EXPECT_FLOAT_EQ(g.weights(2)[0], 5.0f);
}

TEST(CSRGraph, TotalDegreeEqualsEdgeCount) {
  std::vector<Edge> edges;
  for (NodeId i = 0; i < 50; ++i) {
    for (NodeId j = 0; j < 50; j += (i % 5) + 1) edges.push_back({i, j, 1.0f});
  }
  CSRGraph g(50, edges);
  EdgeId total = 0;
  for (NodeId n = 0; n < 50; ++n) total += g.degree(n);
  EXPECT_EQ(total, g.numEdges());
}

TEST(Transpose, ReversesEdges) {
  const std::vector<Edge> edges{{0, 1, 2.0f}, {0, 2, 3.0f}, {2, 1, 4.0f}};
  const CSRGraph g(3, edges);
  const CSRGraph t = transpose(g);
  EXPECT_EQ(t.numEdges(), 3u);
  EXPECT_EQ(t.degree(0), 0u);
  EXPECT_EQ(t.degree(1), 2u);  // from 0 and 2
  EXPECT_EQ(t.degree(2), 1u);
  EXPECT_EQ(t.neighbors(2)[0], 0u);
  EXPECT_FLOAT_EQ(t.weights(2)[0], 3.0f);
}

TEST(Transpose, DoubleTransposeIsIdentity) {
  util::Rng rng(5);
  std::vector<Edge> edges;
  for (NodeId u = 0; u < 60; ++u) {
    for (unsigned k = 0; k < 4; ++k) {
      edges.push_back({u, static_cast<NodeId>(rng.bounded(60)), 1.0f + rng.uniformFloat()});
    }
  }
  const CSRGraph g(60, edges);
  const auto tt = transpose(transpose(g));
  ASSERT_EQ(tt.numEdges(), g.numEdges());
  for (NodeId u = 0; u < 60; ++u) {
    auto a = g.neighbors(u);
    auto b = tt.neighbors(u);
    std::vector<NodeId> sa(a.begin(), a.end()), sb(b.begin(), b.end());
    std::sort(sa.begin(), sa.end());
    std::sort(sb.begin(), sb.end());
    EXPECT_EQ(sa, sb) << "node " << u;
  }
}

}  // namespace
}  // namespace gw2v::graph
