#pragma once

// Distributed graph analytics on the simulated cluster — the D-Galois/Gemini
// execution model of paper Section 2.4: nodes are partitioned into blocked
// master ranges, every host holds a replica of all labels, each host applies
// the operator to edges whose source it owns, and rounds end with a Gluon
// bulk-synchronization using a MIN reduction. These validate that the exact
// substrate GraphWord2Vec runs on executes classic graph algorithms
// correctly.

#include <cstdint>
#include <vector>

#include "graph/csr.h"
#include "sim/cluster.h"

namespace gw2v::graph {

struct DistributedResult {
  /// Converged label per node (distance / level / component id as float).
  std::vector<float> values;
  sim::ClusterReport cluster;
  std::uint64_t rounds = 0;
};

/// Bellman-Ford SSSP across `numHosts` simulated hosts.
DistributedResult distributedSssp(const CSRGraph& g, NodeId source, unsigned numHosts);

/// BFS levels (SSSP over unit weights, computed on integral level labels).
DistributedResult distributedBfs(const CSRGraph& g, NodeId source, unsigned numHosts);

/// Connected components by min-label propagation; pass a symmetrized graph.
DistributedResult distributedCc(const CSRGraph& g, unsigned numHosts);

struct DistributedPagerankResult {
  std::vector<double> ranks;
  sim::ClusterReport cluster;
  std::uint64_t rounds = 0;
};

/// PageRank with per-round dense sum-allreduce of the partial contribution
/// vectors (the "dense matrix codes map quite efficiently to MPI
/// collectives" pattern of paper Section 4.4). Each host pushes mass along
/// the edges of its owned source range.
DistributedPagerankResult distributedPagerank(const CSRGraph& g, unsigned numHosts,
                                              double damping = 0.85, double tol = 1e-9,
                                              int maxIters = 100);

}  // namespace gw2v::graph
