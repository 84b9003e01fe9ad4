// Graph-embedding workload characterization: random-walk corpus generation
// over a planted-community graph, trained through the three ingestion paths
// (materialized SpanCorpusSource, inline RandomWalkCorpus pull, and the
// pipelined streamSource ring), then scored against held-out edges. Reports
// walk-generation throughput, per-path wall time and peak resident corpus
// bytes, and embedding quality as bench rows.
//
// Exit status is the CI gate:
//   1. all three ingestion paths produce bit-identical embeddings
//      (the documented contract),
//   2. held-out neighbor-recall@10 >= 0.5 where the random baseline is
//      <= 0.05 (10 / vocab), and link AUC >= 0.9,
//   3. the pipelined path's peak resident corpus is <= 25% of the
//      materialized path's.
//
// Environment knobs:
//   GW2V_SCALE   multiplies the 10 walks per node, keeping at least one
//                (default 1)
//   GW2V_EPOCHS  training epochs            (default 4)

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.h"
#include "eval/link_prediction.h"
#include "graph/random_walks.h"
#include "graph/synthetic.h"
#include "text/streaming.h"

using namespace gw2v;

namespace {

double secondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

bool sameEmbeddings(const graph::ModelGraph& a, const graph::ModelGraph& b) {
  if (a.numNodes() != b.numNodes()) return false;
  for (std::uint32_t n = 0; n < a.numNodes(); ++n) {
    const auto ra = a.row(graph::Label::kEmbedding, n);
    const auto rb = b.row(graph::Label::kEmbedding, n);
    for (std::size_t d = 0; d < ra.size(); ++d)
      if (ra[d] != rb[d]) return false;
  }
  return true;
}

struct PathRun {
  const char* path;
  double wallSeconds;
  std::uint64_t peakCorpusBytes;
  core::TrainResult result;
};

}  // namespace

int main() {
  const double scale = bench::envDouble("GW2V_SCALE", 1.0);

  graph::CommunityGraphSpec spec;
  spec.communities = 32;
  spec.nodesPerCommunity = 12;
  spec.intraEdgesPerNode = 6;
  spec.interEdgesPerNode = 1;
  spec.seed = 31;

  graph::WalkOptions wopts;
  wopts.walksPerNode = std::max(1u, static_cast<unsigned>(10 * scale));
  wopts.walkLength = 50;
  wopts.seed = 33;
  wopts.chunkTokens = 2048;

  core::TrainOptions topts;
  topts.sgns = bench::benchSgns();
  topts.sgns.subsample = 0;  // node "words" should never be downsampled
  topts.sgns.negatives = 5;
  topts.epochs = bench::envUnsigned("GW2V_EPOCHS", 4);
  topts.numHosts = 4;
  topts.syncRoundsPerEpoch = 12;
  topts.trackLoss = false;

  // Graph + held-out split; training only ever sees the train edges.
  const auto cg = graph::makeCommunityGraph(spec);
  std::vector<graph::Edge> undirected;
  for (const auto& e : cg.edges)
    if (e.src < e.dst) undirected.push_back(e);
  const auto split = eval::splitEdges(undirected, 0.1, spec.seed);
  const auto trainEdges = graph::symmetrize(split.train);
  const graph::CSRGraph g(cg.numNodes, trainEdges);
  const auto nodes = graph::degreeVocabulary(g);

  graph::RandomWalkCorpus walks(g, nodes, wopts, topts.numHosts);
  const std::uint64_t tokensPerEpoch = walks.totalTokensPerEpoch();
  const std::uint64_t corpusBytes = tokensPerEpoch * sizeof(text::WordId);

  // Walk-generation throughput: drain one epoch of every shard inline.
  const auto tWalk = std::chrono::steady_clock::now();
  const auto parts = text::materializeShards(walks);
  const double walkSeconds = secondsSince(tWalk);
  const double walkTokensPerSec = static_cast<double>(tokensPerEpoch) / walkSeconds;

  const core::GraphWord2Vec trainer(nodes.vocab, topts);
  std::vector<PathRun> runs;
  {
    text::SpanCorpusSource source(parts);
    const auto t0 = std::chrono::steady_clock::now();
    auto r = trainer.train(source);
    runs.push_back({"materialized", secondsSince(t0), r.corpusResidentBytesPeak, std::move(r)});
  }
  {
    graph::RandomWalkCorpus source(g, nodes, wopts, topts.numHosts);
    const auto t0 = std::chrono::steady_clock::now();
    auto r = trainer.train(source);
    runs.push_back({"inline_pull", secondsSince(t0), r.corpusResidentBytesPeak, std::move(r)});
  }
  {
    graph::RandomWalkCorpus inner(g, nodes, wopts, topts.numHosts);
    text::StreamingCorpus::Options sopts;
    sopts.chunkTokens = wopts.chunkTokens;
    sopts.ringChunks = 2;
    const auto source = text::streamSource(inner, sopts);
    const auto t0 = std::chrono::steady_clock::now();
    auto r = trainer.train(*source);
    runs.push_back({"pipelined", secondsSince(t0), r.corpusResidentBytesPeak, std::move(r)});
  }

  const bool identical = sameEmbeddings(runs[0].result.model, runs[1].result.model) &&
                         sameEmbeddings(runs[0].result.model, runs[2].result.model);

  const eval::EmbeddingView view(runs[0].result.model, nodes.vocab);
  const double recall = eval::neighborRecallAtK(view, nodes, split.held, 10);
  const double auc = eval::linkAuc(view, nodes, g, split.held, 35);
  const double randomRecall = 10.0 / nodes.vocab.size();
  const double memRatio = static_cast<double>(runs[2].peakCorpusBytes) /
                          static_cast<double>(runs[0].peakCorpusBytes);

  bench::Rows rows("graph_embeddings");
  rows.add("", "nodes", "count", cg.numNodes);
  rows.add("", "vocab", "count", nodes.vocab.size());
  rows.add("", "train_edges", "count", static_cast<double>(split.train.size()));
  rows.add("", "held_edges", "count", static_cast<double>(split.held.size()));
  rows.add("", "tokens_per_epoch", "count", static_cast<double>(tokensPerEpoch));
  rows.add("", "corpus_bytes", "B", static_cast<double>(corpusBytes));
  rows.add("", "walk_tokens_per_wall_s", "tokens/s", walkTokensPerSec);
  for (const PathRun& run : runs) {
    const std::string cfg = bench::config({{"path", run.path}});
    rows.add(cfg, "train_wall_s", "s", run.wallSeconds);
    rows.add(cfg, "peak_corpus_bytes", "B", static_cast<double>(run.peakCorpusBytes));
  }
  rows.add("", "bit_identical", "bool", identical ? 1.0 : 0.0);
  rows.add("", "recall_at_10", "ratio", recall);
  rows.add("", "random_recall_at_10", "ratio", randomRecall);
  rows.add("", "link_auc", "ratio", auc);
  rows.add("", "stream_mem_ratio", "ratio", memRatio);

  int failures = 0;
  if (!identical) {
    std::fprintf(stderr, "GATE: ingestion paths disagree bit-wise\n");
    ++failures;
  }
  if (!(randomRecall <= 0.05)) {
    std::fprintf(stderr, "GATE: random baseline %.4f > 0.05 (vocab too small)\n", randomRecall);
    ++failures;
  }
  if (!(recall >= 0.5)) {
    std::fprintf(stderr, "GATE: recall@10 %.4f < 0.5\n", recall);
    ++failures;
  }
  if (!(auc >= 0.9)) {
    std::fprintf(stderr, "GATE: link AUC %.4f < 0.9\n", auc);
    ++failures;
  }
  if (!(memRatio <= 0.25)) {
    std::fprintf(stderr, "GATE: streaming peak corpus %.1f%% of materialized > 25%%\n",
                 memRatio * 100.0);
    ++failures;
  }
  return failures == 0 ? 0 : 1;
}
