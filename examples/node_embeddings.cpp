// Node embeddings over a synthetic community graph: generate random walks
// (DeepWalk / node2vec), train them through the distributed Word2Vec stack,
// and score the embedding against held-out edges — the graph workload the
// streaming corpus pipeline was built for.
//
//   ./examples/node_embeddings [options]
//
// Options:
//   -communities N   planted communities            (default 8)
//   -nodes N         nodes per community            (default 48)
//   -hosts N         simulated cluster size         (default 4)
//   -iter N          epochs                         (default 5)
//   -size N          embedding dimensionality       (default 64)
//   -walks N         walks started per node         (default 8)
//   -length N        tokens per walk                (default 30)
//   -p F / -q F      node2vec return / in-out bias  (default 1 1 = DeepWalk)
//   -held F          fraction of edges held out     (default 0.1)
//   -stream 1        pipeline walk generation through bounded rings
//   -nprobe N        IVF lists probed per ANN query (default 8)
//
// After training, the embedding is published as a serving snapshot carrying
// a publish-time IVF index, and nearest-neighbour queries are answered twice
// through the sharded QueryEngine — exact (the recall oracle) and ANN — to
// print the approximate path's recall against brute force.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "comm/rank_context.h"
#include "core/trainer.h"
#include "eval/embedding_view.h"
#include "eval/link_prediction.h"
#include "graph/random_walks.h"
#include "graph/synthetic.h"
#include "runtime/thread_pool.h"
#include "serve/query_engine.h"
#include "serve/snapshot.h"
#include "sim/cluster.h"
#include "text/streaming.h"
#include "util/rng.h"

namespace {

using namespace gw2v;

int usage() {
  std::fprintf(stderr,
               "usage: node_embeddings [-communities N] [-nodes N] [-hosts N] [-iter N]\n"
               "                       [-size N] [-walks N] [-length N] [-p F] [-q F]\n"
               "                       [-held F] [-stream 1] [-nprobe N]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  graph::CommunityGraphSpec spec;
  spec.communities = 8;
  spec.nodesPerCommunity = 48;
  spec.seed = 7;
  graph::WalkOptions wopts;
  wopts.walksPerNode = 8;
  wopts.walkLength = 30;
  wopts.seed = 9;
  core::TrainOptions topts;
  topts.sgns.dim = 64;
  topts.sgns.window = 5;
  topts.sgns.negatives = 5;
  topts.sgns.subsample = 0;
  topts.epochs = 5;
  topts.numHosts = 4;
  topts.trackLoss = false;
  double heldFraction = 0.1;
  bool stream = false;
  std::uint32_t nprobe = 8;

  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* val = argv[i + 1];
    if (flag == "-communities") spec.communities = static_cast<unsigned>(std::atoi(val));
    else if (flag == "-nodes") spec.nodesPerCommunity = static_cast<unsigned>(std::atoi(val));
    else if (flag == "-hosts") topts.numHosts = static_cast<unsigned>(std::atoi(val));
    else if (flag == "-iter") topts.epochs = static_cast<unsigned>(std::atoi(val));
    else if (flag == "-size") topts.sgns.dim = static_cast<std::uint32_t>(std::atoi(val));
    else if (flag == "-walks") wopts.walksPerNode = static_cast<unsigned>(std::atoi(val));
    else if (flag == "-length") wopts.walkLength = static_cast<unsigned>(std::atoi(val));
    else if (flag == "-p") wopts.p = static_cast<float>(std::atof(val));
    else if (flag == "-q") wopts.q = static_cast<float>(std::atof(val));
    else if (flag == "-held") heldFraction = std::atof(val);
    else if (flag == "-stream") stream = std::atoi(val) != 0;
    else if (flag == "-nprobe") nprobe = static_cast<std::uint32_t>(std::atoi(val));
    else {
      std::fprintf(stderr, "unknown option %s\n", flag.c_str());
      return usage();
    }
  }

  // Build the graph, hold out edges, and train on the remainder only.
  const auto cg = graph::makeCommunityGraph(spec);
  std::vector<graph::Edge> undirected;
  for (const auto& e : cg.edges)
    if (e.src < e.dst) undirected.push_back(e);
  const auto split = eval::splitEdges(undirected, heldFraction, spec.seed);
  const auto trainEdges = graph::symmetrize(split.train);
  const graph::CSRGraph g(cg.numNodes, trainEdges);
  const auto nodes = graph::degreeVocabulary(g);
  std::printf("graph: %u nodes (%u communities), %zu train / %zu held edges, vocab %u\n",
              cg.numNodes, spec.communities, split.train.size(), split.held.size(),
              nodes.vocab.size());

  graph::RandomWalkCorpus walks(g, nodes, wopts, topts.numHosts);
  std::printf("walks: %u per node x %u tokens (p=%.2f q=%.2f) = %llu tokens/epoch%s\n",
              wopts.walksPerNode, wopts.walkLength, static_cast<double>(wopts.p),
              static_cast<double>(wopts.q),
              static_cast<unsigned long long>(walks.totalTokensPerEpoch()),
              stream ? ", pipelined" : "");

  const core::GraphWord2Vec trainer(nodes.vocab, topts);
  core::TrainResult result;
  if (stream) {
    const auto source = text::streamSource(walks);
    result = trainer.train(*source);
  } else {
    result = trainer.train(walks);
  }
  std::printf("trained %llu examples on %u host(s); peak resident corpus %llu bytes\n",
              static_cast<unsigned long long>(result.totalExamples), topts.numHosts,
              static_cast<unsigned long long>(result.corpusResidentBytesPeak));

  const eval::EmbeddingView view(result.model, nodes.vocab);
  const double recall = eval::neighborRecallAtK(view, nodes, split.held, 10);
  const double auc = eval::linkAuc(view, nodes, g, split.held, 11);
  std::uint64_t same = 0, total = 0;
  for (graph::NodeId n = 0; n < g.numNodes(); ++n) {
    if (nodes.wordOfNode[n] == text::kInvalidWord) continue;
    for (const auto& nb : view.nearestTo(nodes.wordOfNode[n], 5)) {
      same += cg.communityOf[nodes.nodeOfWord[nb.word]] == cg.communityOf[n] ? 1 : 0;
      ++total;
    }
  }
  std::printf("held-out recall@10 %.3f (random ~%.3f)  link AUC %.3f  "
              "community purity@5 %.3f (random ~%.3f)\n",
              recall, 10.0 / nodes.vocab.size(), auc,
              static_cast<double>(same) / static_cast<double>(total),
              1.0 / spec.communities);

  // Serve the embedding: publish one snapshot with a publish-time IVF index
  // (auto list count = √N) and answer each sampled node's nearest-neighbour
  // query twice through the sharded engine — exact, then ANN. Candidate
  // scores are bit-exact between the modes, so the only possible difference
  // is coverage, reported below as recall against the exact oracle.
  runtime::ThreadPool pool(std::max(1u, std::thread::hardware_concurrency()));
  serve::SnapshotStore store(topts.numHosts + 1);
  store.publish(serve::EmbeddingSnapshot::fromModel(result.model, nullptr, 1,
                                                    serve::AnnBuildOptions{}, &pool));

  constexpr unsigned kNN = 10;
  const auto numWords = static_cast<std::uint32_t>(nodes.vocab.size());
  const std::uint32_t numQueries = std::min<std::uint32_t>(numWords, 64);
  double recallSum = 0.0;
  double probesAvg = 0.0, candRatio = 0.0;
  sim::ClusterOptions copts;
  copts.numHosts = topts.numHosts;
  sim::runCluster(copts, [&](comm::RankContext& ctx) {
    serve::QueryEngine engine(ctx.transport(), ctx.id(), store);
    engine.runWithClient([&](serve::QueryEngine&) {
      serve::QueryOptions qo;
      qo.mode = serve::QueryMode::kAnn;
      qo.nprobe = nprobe;
      const std::uint32_t stride = std::max<std::uint32_t>(1, numWords / numQueries);
      for (std::uint32_t i = 0; i < numQueries; ++i) {
        const auto w = static_cast<text::WordId>((i * stride) % numWords);
        const auto exact = engine.queryWord(w, kNN);
        const auto approx = engine.queryWord(w, kNN, qo);
        if (exact.neighbors.empty()) continue;
        unsigned hit = 0;
        for (const auto& c : approx.neighbors)
          for (const auto& e : exact.neighbors)
            if (c.id == e.id) {
              ++hit;
              break;
            }
        recallSum += static_cast<double>(hit) / static_cast<double>(exact.neighbors.size());
      }
      const auto& m = engine.metrics();
      const std::uint64_t annQ = m.annQueries.load();
      probesAvg = annQ == 0 ? 0.0
                            : static_cast<double>(m.annProbeCount.load()) /
                                  static_cast<double>(annQ);
      candRatio = m.annCandidateRatio();
    });
  });
  std::printf("serve: ANN recall@%u vs exact %.3f over %u queries on %u host(s)  "
              "(nprobe %u, avg probes %.1f, candidate ratio %.3f)\n",
              kNN, recallSum / numQueries, numQueries, topts.numHosts, nprobe, probesAvg,
              candRatio);
  return 0;
}
