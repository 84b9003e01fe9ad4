#pragma once

// Classic graph-analytics kernels on the Galois-lite runtime.
//
// These validate that the substrate GraphWord2Vec sits on is a genuine
// graph-analytics framework (the paper's framing): topology-driven rounds
// (Bellman-Ford SSSP, label-propagation CC, PageRank) and data-driven
// worklists (BFS), all expressed with doAll + atomics exactly as the paper's
// Section 2.4 describes.

#include <cstdint>
#include <limits>
#include <vector>

#include "graph/csr.h"
#include "runtime/thread_pool.h"

namespace gw2v::graph {

inline constexpr std::uint32_t kUnreachedLevel = std::numeric_limits<std::uint32_t>::max();
inline constexpr float kInfDistance = std::numeric_limits<float>::infinity();

/// Level-synchronous parallel BFS; returns per-node level (kUnreachedLevel
/// for unreachable nodes).
std::vector<std::uint32_t> bfs(const CSRGraph& g, NodeId source, runtime::ThreadPool& pool);

/// Bellman-Ford style topology-driven SSSP with relaxation operator.
std::vector<float> sssp(const CSRGraph& g, NodeId source, runtime::ThreadPool& pool);

/// Data-driven (worklist) SSSP; identical results, different schedule.
std::vector<float> ssspWorklist(const CSRGraph& g, NodeId source, runtime::ThreadPool& pool);

/// Topology-driven PageRank with damping d, run until L1 residual < tol or
/// maxIters rounds (push-style over the forward graph).
std::vector<double> pagerank(const CSRGraph& g, runtime::ThreadPool& pool, double d = 0.85,
                             double tol = 1e-9, int maxIters = 100);

/// Connected components by pointer-jumping label propagation (treats the
/// graph as undirected; callers should pass a symmetrized graph).
std::vector<NodeId> connectedComponents(const CSRGraph& g, runtime::ThreadPool& pool);

}  // namespace gw2v::graph
