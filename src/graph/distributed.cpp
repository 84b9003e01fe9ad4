#include "graph/distributed.h"

#include <functional>
#include <limits>

#include "comm/collectives.h"
#include "comm/rank_context.h"
#include "comm/scalar_sync.h"
#include "graph/algorithms.h"
#include "graph/partition.h"
#include "util/bitvector.h"

namespace gw2v::graph {

namespace {

/// Shared BSP driver: `relax(u, values, touched)` applies the operator to
/// one owned node, returning how many labels it improved.
DistributedResult runBsp(const CSRGraph& g, unsigned numHosts,
                         const std::function<void(std::vector<float>&)>& init,
                         const std::function<std::uint64_t(NodeId, std::vector<float>&,
                                                           util::BitVector&)>& relax) {
  const BlockedPartition partition(g.numNodes(), numHosts);
  std::vector<std::vector<float>> replicas(numHosts);
  std::vector<std::uint64_t> roundsOut(numHosts, 0);
  for (auto& r : replicas) {
    r.resize(g.numNodes());
    init(r);
  }

  sim::ClusterOptions copts;
  copts.numHosts = numHosts;
  DistributedResult result;
  result.cluster = sim::runCluster(copts, [&](comm::RankContext& ctx) {
    std::vector<float>& values = replicas[ctx.id()];
    util::BitVector touched(g.numNodes());
    comm::ScalarSyncEngine sync(ctx, values, touched, partition);
    comm::Collectives coll(ctx.transport(), ctx.id(), comm::TagSpace::kGraphAnalytics);
    const auto [lo, hi] = partition.masterRange(ctx.id());

    for (;;) {
      ctx.computeTimer().start();
      std::uint64_t localWork = 0;
      for (NodeId u = lo; u < hi; ++u) localWork += relax(u, values, touched);
      ctx.computeTimer().stop();

      const std::uint64_t received = sync.sync();
      double total[1] = {static_cast<double>(localWork + received)};
      coll.allReduceSum(total);
      if (total[0] == 0.0) break;
    }
    roundsOut[ctx.id()] = sync.rounds();
  });

  result.values = std::move(replicas[0]);
  result.rounds = roundsOut[0];
  return result;
}

}  // namespace

DistributedResult distributedSssp(const CSRGraph& g, NodeId source, unsigned numHosts) {
  return runBsp(
      g, numHosts,
      [&](std::vector<float>& values) {
        std::fill(values.begin(), values.end(), kInfDistance);
        if (source < g.numNodes()) values[source] = 0.0f;
      },
      [&](NodeId u, std::vector<float>& values, util::BitVector& touched) -> std::uint64_t {
        const float du = values[u];
        if (du == kInfDistance) return 0;
        std::uint64_t improved = 0;
        const auto nbrs = g.neighbors(u);
        const auto w = g.weights(u);
        for (std::size_t e = 0; e < nbrs.size(); ++e) {
          const float cand = du + w[e];
          if (cand < values[nbrs[e]]) {
            values[nbrs[e]] = cand;
            touched.set(nbrs[e]);
            ++improved;
          }
        }
        return improved;
      });
}

DistributedResult distributedBfs(const CSRGraph& g, NodeId source, unsigned numHosts) {
  return runBsp(
      g, numHosts,
      [&](std::vector<float>& values) {
        std::fill(values.begin(), values.end(), kInfDistance);
        if (source < g.numNodes()) values[source] = 0.0f;
      },
      [&](NodeId u, std::vector<float>& values, util::BitVector& touched) -> std::uint64_t {
        const float lu = values[u];
        if (lu == kInfDistance) return 0;
        std::uint64_t improved = 0;
        for (const NodeId v : g.neighbors(u)) {
          if (lu + 1.0f < values[v]) {
            values[v] = lu + 1.0f;
            touched.set(v);
            ++improved;
          }
        }
        return improved;
      });
}

DistributedResult distributedCc(const CSRGraph& g, unsigned numHosts) {
  return runBsp(
      g, numHosts,
      [&](std::vector<float>& values) {
        for (NodeId n = 0; n < g.numNodes(); ++n) values[n] = static_cast<float>(n);
      },
      [&](NodeId u, std::vector<float>& values, util::BitVector& touched) -> std::uint64_t {
        std::uint64_t improved = 0;
        float cu = values[u];
        // Pull the min neighbour label into u, then push u's label out.
        for (const NodeId v : g.neighbors(u)) {
          if (values[v] < cu) cu = values[v];
        }
        if (cu < values[u]) {
          values[u] = cu;
          touched.set(u);
          ++improved;
        }
        for (const NodeId v : g.neighbors(u)) {
          if (cu < values[v]) {
            values[v] = cu;
            touched.set(v);
            ++improved;
          }
        }
        return improved;
      });
}

DistributedPagerankResult distributedPagerank(const CSRGraph& g, unsigned numHosts,
                                              double damping, double tol, int maxIters) {
  const BlockedPartition partition(g.numNodes(), numHosts);
  const std::size_t n = g.numNodes();
  std::vector<std::vector<double>> replicaRanks(
      numHosts, std::vector<double>(n, n > 0 ? 1.0 / static_cast<double>(n) : 0.0));
  std::vector<std::uint64_t> roundsOut(numHosts, 0);

  sim::ClusterOptions copts;
  copts.numHosts = numHosts;
  DistributedPagerankResult result;
  result.cluster = sim::runCluster(copts, [&](comm::RankContext& ctx) {
    std::vector<double>& rank = replicaRanks[ctx.id()];
    std::vector<double> partial(n, 0.0);
    comm::Collectives coll(ctx.transport(), ctx.id(), comm::TagSpace::kGraphAnalytics);
    const auto [lo, hi] = partition.masterRange(ctx.id());

    for (int iter = 0; iter < maxIters; ++iter) {
      ctx.computeTimer().start();
      std::fill(partial.begin(), partial.end(), 0.0);
      double dangling = 0.0;
      for (NodeId u = static_cast<NodeId>(lo); u < hi; ++u) {
        const EdgeId deg = g.degree(u);
        if (deg == 0) {
          dangling += rank[u];
          continue;
        }
        const double share = rank[u] / static_cast<double>(deg);
        for (const NodeId v : g.neighbors(u)) partial[v] += share;
      }
      ctx.computeTimer().stop();

      // Dense exchange: contribution vector + dangling mass in one reduce.
      const comm::CommSnapshot before = comm::snapshot(ctx.commStats());
      partial.push_back(dangling);
      coll.allReduceSum(partial);
      ctx.chargeExchange(before);
      const double globalDangling = partial.back();
      partial.pop_back();

      ctx.computeTimer().start();
      const double base = (1.0 - damping) / static_cast<double>(n) +
                          damping * globalDangling / static_cast<double>(n);
      double residual = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const double updated = base + damping * partial[i];
        residual += std::abs(updated - rank[i]);
        rank[i] = updated;
      }
      ctx.computeTimer().stop();
      ++roundsOut[ctx.id()];
      // Every host computed the identical residual from identical data, so
      // the loop exit is consistent without further coordination.
      if (residual < tol) break;
    }
  });

  result.ranks = std::move(replicaRanks[0]);
  result.rounds = roundsOut[0];
  return result;
}

}  // namespace gw2v::graph
