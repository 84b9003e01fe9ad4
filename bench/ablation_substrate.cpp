// Ablation: the graph-analytics substrate itself — distributed BFS/SSSP/
// PageRank scaling across simulated hosts, with correctness checked against
// the shared-memory implementations each time. This backs the paper's
// framing (Section 2.4) that GraphWord2Vec rides on a *general* framework.

#include <cstdio>

#include "bench/common.h"
#include "graph/algorithms.h"
#include "graph/distributed.h"
#include "runtime/thread_pool.h"
#include "util/rng.h"

using namespace gw2v;

int main() {
  constexpr graph::NodeId nodes = 60'000;
  constexpr unsigned degree = 8;

  bench::printHeader("Ablation — distributed graph analytics on the substrate",
                     "Section 2.4 (framework generality)");
  util::Rng rng(23);
  std::vector<graph::Edge> edges;
  edges.reserve(static_cast<std::size_t>(nodes) * degree);
  for (graph::NodeId u = 0; u < nodes; ++u) {
    for (unsigned k = 0; k < degree; ++k) {
      edges.push_back({u, static_cast<graph::NodeId>(rng.bounded(nodes)),
                       0.5f + rng.uniformFloat() * 2.0f});
    }
  }
  const graph::CSRGraph g(nodes, edges);
  runtime::ThreadPool pool(1);
  std::printf("graph: %u nodes, %llu edges\n\n", nodes,
              static_cast<unsigned long long>(g.numEdges()));

  const auto refSssp = graph::sssp(g, 0, pool);
  const auto refPr = graph::pagerank(g, pool);

  std::printf("%-10s %-8s %10s %10s %12s %10s\n", "algorithm", "hosts", "comp(s)",
              "comm(s)", "volume(MB)", "correct");
  bench::Rows rows("ablation_substrate");
  const auto report = [&](const char* algorithm, unsigned hosts, const sim::ClusterReport& c,
                          bool ok) {
    std::printf("%-10s %-8u %10.3f %10.4f %12.1f %10s\n", algorithm, hosts,
                c.maxComputeSeconds(), c.maxModelledCommSeconds(),
                static_cast<double>(c.totalBytes()) / 1e6, ok ? "yes" : "NO");
    const std::string cfg = bench::config({{"algorithm", algorithm}, {"hosts", hosts}});
    rows.add(cfg, "compute_cpu_s", "s", c.maxComputeSeconds());
    rows.add(cfg, "modelled_comm_s", "s", c.maxModelledCommSeconds());
    rows.add(cfg, "wire_bytes", "B", static_cast<double>(c.totalBytes()));
    rows.add(cfg, "correct", "bool", ok ? 1.0 : 0.0);
  };
  for (const unsigned hosts : {1u, 2u, 4u, 8u, 16u}) {
    {
      const auto r = graph::distributedSssp(g, 0, hosts);
      bool ok = true;
      for (graph::NodeId i = 0; i < nodes && ok; ++i) ok = r.values[i] == refSssp[i];
      report("sssp", hosts, r.cluster, ok);
    }
    {
      const auto r = graph::distributedPagerank(g, hosts);
      bool ok = true;
      for (graph::NodeId i = 0; i < nodes && ok; ++i)
        ok = std::abs(r.ranks[i] - refPr[i]) < 1e-9;
      report("pagerank", hosts, r.cluster, ok);
    }
    std::fflush(stdout);
  }
  std::printf("\nexpected shape: computation scales ~1/hosts for both; sssp's sparse\n"
              "MIN-sync volume is far below pagerank's dense allreduce volume.\n");
  return 0;
}
