// Workload shapes, the setup stage and the training stage.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>

#include "core/sgns_batched.h"
#include "core/trainer.h"
#include "eval/analogy.h"
#include "eval/embedding_view.h"
#include "eval/link_prediction.h"
#include "graph/synthetic.h"
#include "phases.h"
#include "synth/spec.h"
#include "text/corpus.h"
#include "text/sampling.h"
#include "text/streaming.h"
#include "text/tokenizer.h"
#include "util/rng.h"
#include "util/sigmoid_table.h"

namespace gw2v::perfbench {

namespace {

/// Setup repeats until both bounds are met, so that even millisecond
/// set-ups report a median over many repetitions.
constexpr unsigned kMinSetupReps = 3;
constexpr unsigned kMaxSetupReps = 200;
constexpr double kMinSetupSeconds = 1.0;
constexpr unsigned kMinTrainReps = 3;
constexpr unsigned kMinTracedTrainReps = 4;  // two traced, two untraced
/// One epoch per repetition keeps repetitions short, so that a run holds
/// many of them and reports a steady median.
constexpr unsigned kEpochs = 1;
constexpr unsigned kMinCount = 5;
constexpr unsigned kWindow = 5;
constexpr unsigned kAnalogyQuestionsPerCategory = 40;
constexpr unsigned kPairsPerRelation = 20;
// Small communities keep held-out neighbour recall@10 meaningful: a node's
// 15 community peers can fill most of its top 10.
constexpr unsigned kNodesPerCommunity = 16;
constexpr unsigned kIntraEdgesPerNode = 6;
constexpr unsigned kInterEdgesPerNode = 1;
constexpr std::size_t kWalkChunkTokens = 8192;
constexpr std::size_t kStreamRingChunks = 4;
constexpr std::size_t kProbeTokens = 200'000;
constexpr double kMiB = 1024.0 * 1024.0;

core::SgnsParams sgnsParams(const WorkloadSpec& spec) {
  core::SgnsParams p;
  p.dim = spec.dim;
  p.window = kWindow;
  p.negatives = spec.negatives;
  p.subsample = spec.subsample;
  p.alpha = 0.025f;
  return p;
}

core::TrainOptions trainOptions(const WorkloadSpec& spec, std::uint64_t seed) {
  core::TrainOptions t;
  t.sgns = sgnsParams(spec);
  t.epochs = kEpochs;
  t.syncRoundsPerEpoch = spec.syncRoundsPerEpoch;
  t.strategy = comm::SyncStrategy::kRepModelOpt;
  t.reduction = core::Reduction::kModelCombiner;
  t.numHosts = spec.hosts;
  // One worker per host: computeTimer reads the host thread's CPU clock only,
  // so train_modelled_s under-counts compute with pool workers.
  t.workerThreadsPerHost = 1;
  t.seed = subSeed(seed, 4);
  t.trackLoss = false;
  return t;
}

graph::WalkOptions walkOptions(const WorkloadSpec& spec, std::uint64_t seed) {
  graph::WalkOptions w;
  w.walksPerNode = spec.walksPerNode;
  w.walkLength = spec.walkLength;
  w.q = spec.walkQ;
  w.seed = subSeed(seed, 5);
  w.freshWalksPerEpoch = true;
  w.chunkTokens = kWalkChunkTokens;
  return w;
}

/// Quality of a model as a ratio: analogy accuracy (words) or held-out
/// neighbour recall@10 (nodes).
double qualityOf(const Prepared& in, const eval::AnalogyTask* task,
                 const graph::ModelGraph& model) {
  const eval::EmbeddingView view(model, in.vocab());
  if (in.kind == InputKind::kWords) return task->evaluate(view).total / 100.0;
  return eval::neighborRecallAtK(view, in.nodes, in.heldEval, 10);
}

bool allFinite(const graph::ModelGraph& m) {
  for (std::uint32_t n = 0; n < m.numNodes(); ++n) {
    for (const float v : m.row(graph::Label::kEmbedding, n))
      if (!std::isfinite(v)) return false;
  }
  return true;
}

void setLayer(Outcome& out, const std::string& name, double value, const char* unit) {
  out.perLayer[name] = Metric{value, unit};
}

}  // namespace

std::vector<WorkloadSpec> allWorkloads(double scale) {
  const auto scaled = [&](double v, double lo) { return std::max(lo, std::round(v * scale)); };
  std::vector<WorkloadSpec> out;
  {
    WorkloadSpec w;
    w.name = "w2v-sync-h3";
    w.kind = InputKind::kWords;
    w.fillerVocab = 16000;
    w.totalTokens = static_cast<std::uint64_t>(scaled(600'000, 40'000));
    // 3 hosts, not 4: on 4 vCPUs a fourth host left no core for the
    // program's other threads, and sync rounds waited on descheduled hosts.
    w.hosts = 3;
    w.dim = 64;
    w.negatives = 15;
    w.subsample = 1e-3;
    w.syncRoundsPerEpoch = 96;  // the paper's rule at 64 hosts
    w.qualityTarget = 0.20;
    w.qualityFloor = 0.20;
    w.annLists = 128;
    // Each exponent holds the cache hit rate well away from 1/2, where p50
    // would flip between the ~1 us hit path and the ~100 us ANN path.
    w.zipfExponent = 0.6;
    w.trainShare = 0.6;
    out.push_back(w);
  }
  {
    WorkloadSpec w;
    w.name = "node2vec-stream-h2";
    w.kind = InputKind::kNodes;
    w.communities = 128;
    w.walksPerNode = static_cast<unsigned>(scaled(5, 1));
    w.walkLength = 40;
    w.walkQ = 0.5f;
    w.heldEvalEdges = 1000;
    w.hosts = 2;
    w.dim = 128;
    w.negatives = 5;
    w.subsample = 0.0;
    w.qualityTarget = 0.30;
    w.qualityFloor = 0.40;
    w.annLists = 32;
    // Over 2048 rows the cache would answer ~84% of queries. That hit path
    // is a microsecond of work between thread hand-offs, and its
    // throughput swung 3-8x with other load on a shared 4-vCPU machine.
    w.serveCache = false;
    w.trainShare = 0.7;
    out.push_back(w);
  }
  if (scale < 1.0) {
    // Tiny self-test shapes cannot learn enough to meet the quality gates.
    for (auto& w : out) w.qualityTarget = w.qualityFloor = 0.0;
  }
  return out;
}

Prepared runSetup(const WorkloadSpec& spec, std::uint64_t seed, Tracer& tracer, Outcome& out) {
  std::vector<double> total, generate, ingest, encode;
  Prepared in;
  const auto start = Clock::now();
  for (unsigned rep = 0; rep < kMaxSetupReps; ++rep) {
    if (rep >= kMinSetupReps && secondsBetween(start, Clock::now()) >= kMinSetupSeconds) break;
    in = Prepared{};
    in.kind = spec.kind;
    const auto t0 = Clock::now();
    if (spec.kind == InputKind::kWords) {
      synth::CorpusSpec cs;
      cs.name = spec.name;
      cs.relations = synth::defaultRelations(kPairsPerRelation);
      cs.fillerVocab = spec.fillerVocab;
      cs.totalTokens = spec.totalTokens;
      cs.seed = subSeed(seed, 1);
      const synth::CorpusGenerator gen(cs);
      std::string body;
      {
        Tracer::Span span(tracer, "synth.generate");
        body = gen.generateText();
        in.suite = gen.analogySuite(kAnalogyQuestionsPerCategory);
        generate.push_back(span.stop());
      }
      Tracer::Span span(tracer, "text.ingest");
      text::forEachToken(body, [&](std::string_view tok) { in.words.addToken(tok); });
      in.words.finalize(kMinCount);
      {
        Tracer::Span enc(tracer, "text.encode");
        in.corpus = text::encode(body, in.words);
        encode.push_back(enc.stop());
      }
      ingest.push_back(span.stop());
    } else {
      graph::CommunityGraphSpec gs;
      gs.communities = spec.communities;
      gs.nodesPerCommunity = kNodesPerCommunity;
      gs.intraEdgesPerNode = kIntraEdgesPerNode;
      gs.interEdgesPerNode = kInterEdgesPerNode;
      gs.seed = subSeed(seed, 2);
      std::vector<graph::Edge> trainEdges;
      graph::CommunityGraph cg;
      {
        Tracer::Span span(tracer, "graph.generate");
        cg = graph::makeCommunityGraph(gs);
        std::vector<graph::Edge> undirected;
        for (const auto& e : cg.edges)
          if (e.src < e.dst) undirected.push_back(e);
        auto split = eval::splitEdges(undirected, 0.1, subSeed(seed, 3));
        trainEdges = graph::symmetrize(split.train);
        split.held.resize(std::min<std::size_t>(split.held.size(), spec.heldEvalEdges));
        in.heldEval = std::move(split.held);
        generate.push_back(span.stop());
      }
      {
        Tracer::Span span(tracer, "graph.build");
        in.graph.build(cg.numNodes, trainEdges);
        in.nodes = graph::degreeVocabulary(in.graph);
        ingest.push_back(span.stop());
      }
    }
    total.push_back(secondsBetween(t0, Clock::now()));
  }
  out.endToEnd["setup_s"] = Metric{median(total), "s"};
  std::printf("setup: repetitions=%zu median_s=%.6f min_s=%.6f max_s=%.6f\n", total.size(),
              median(total), *std::min_element(total.begin(), total.end()),
              *std::max_element(total.begin(), total.end()));
  setLayer(out, "input.generate_s", median(generate), "s");
  setLayer(out, "input.ingest_s", median(ingest), "s");
  if (spec.kind == InputKind::kWords) {
    setLayer(out, "input.corpus_tokens_per_s",
             static_cast<double>(in.corpus.size()) / median(encode), "tokens/s");
  }
  out.check(in.vocab().size() > 0, "setup produced an empty vocabulary");
  std::printf("inputs: vocab=%u corpus_tokens=%zu graph_nodes=%u graph_edges=%llu held_eval=%zu\n",
              in.vocab().size(), in.corpus.size(), in.graph.numNodes(),
              static_cast<unsigned long long>(in.graph.numEdges()), in.heldEval.size());
  return in;
}

graph::ModelGraph runTraining(const WorkloadSpec& spec, std::uint64_t seed, const Prepared& in,
                              double seconds, Tracer& tracer, Outcome& out) {
  const core::TrainOptions topts = trainOptions(spec, seed);
  const core::GraphWord2Vec trainer(in.vocab(), topts);
  const graph::WalkOptions wopts = walkOptions(spec, seed);
  std::unique_ptr<eval::AnalogyTask> task;
  if (spec.kind == InputKind::kWords) task = std::make_unique<eval::AnalogyTask>(in.suite, in.vocab());

  struct Rep {
    double trainSeconds;  // wall minus evaluation
    double timeToTarget;  // < 0: target not reached
    bool traced;
    sim::ClusterReport cluster;
  };
  std::vector<Rep> reps;
  std::vector<double> evalSeconds;
  std::uint64_t tokensPerEpoch = 0;
  core::TrainResult last;  // only the newest model is kept
  double firstQuality = 0.0;

  const unsigned minReps = tracer.traceRun() ? kMinTracedTrainReps : kMinTrainReps;
  const auto start = Clock::now();
  while (reps.size() < minReps || secondsBetween(start, Clock::now()) < seconds) {
    const bool traced = tracer.traceRun() && reps.size() % 2 == 1;
    tracer.setActive(traced);
    // Sources are rebuilt per repetition (outside the clock) so every
    // repetition trains on identical token streams.
    std::unique_ptr<graph::RandomWalkCorpus> walks;
    std::unique_ptr<text::StreamingCorpus> stream;
    if (spec.kind == InputKind::kNodes) {
      walks = std::make_unique<graph::RandomWalkCorpus>(in.graph, in.nodes, wopts, spec.hosts);
      tokensPerEpoch = walks->totalTokensPerEpoch();
      text::StreamingCorpus::Options sopts;
      sopts.chunkTokens = kWalkChunkTokens;
      sopts.ringChunks = kStreamRingChunks;
      stream = text::streamSource(*walks, sopts);
    } else {
      tokensPerEpoch = in.corpus.size();
    }

    double evalTotal = 0.0;
    double timeToTarget = -1.0;
    unsigned epoch = 0;
    Clock::time_point t0;
    const core::EpochObserver observer = [&](const core::EpochStats&,
                                             const graph::ModelGraph& model) {
      ++epoch;
      if (timeToTarget >= 0.0) return;
      const double trainedSoFar = secondsBetween(t0, Clock::now()) - evalTotal;
      Tracer::Span span(tracer, "eval.quality");
      const double q = qualityOf(in, task.get(), model);
      evalSeconds.push_back(span.stop());
      evalTotal += evalSeconds.back();
      if (reps.empty()) std::printf("train: epoch %u quality %.4f\n", epoch, q);
      if (q >= spec.qualityTarget) timeToTarget = trainedSoFar;
    };

    t0 = Clock::now();
    {
      Tracer::Span span(tracer, "core.train");
      if (stream) {
        last = trainer.train(*stream, observer);
      } else {
        last = trainer.train(std::span<const text::WordId>(in.corpus), observer);
      }
    }
    const double wall = secondsBetween(t0, Clock::now());
    if (reps.empty()) firstQuality = qualityOf(in, task.get(), last.model);
    reps.push_back(Rep{wall - evalTotal, timeToTarget, traced, last.cluster});
  }
  tracer.setActive(tracer.traceRun());
  std::printf("train: repetitions=%zu tokens_per_repetition=%llu seconds=", reps.size(),
              static_cast<unsigned long long>(tokensPerEpoch * kEpochs));
  for (const Rep& rep : reps) std::printf(" %.3f/%.3f", rep.trainSeconds, rep.cluster.maxComputeSeconds());
  std::printf("\n");

  const double tokens = static_cast<double>(tokensPerEpoch) * kEpochs;
  std::vector<double> tps, modelled, ttt, wire, pack, exch, fold, apply, compute, comm, straggle,
      tracedWall, plainWall;
  for (const Rep& rep : reps) {
    const sim::ClusterReport& c = rep.cluster;
    const auto phases = c.maxSyncPhaseSeconds();
    tps.push_back(tokens / rep.trainSeconds);
    modelled.push_back(c.simulatedSeconds());
    wire.push_back(static_cast<double>(c.totalBytes()) / tokens);
    pack.push_back(phases.pack);
    exch.push_back(phases.exchange);
    fold.push_back(phases.fold);
    apply.push_back(phases.apply);
    compute.push_back(c.maxComputeSeconds());
    comm.push_back(c.maxModelledCommSeconds());
    straggle.push_back(phases.exchange / rep.trainSeconds);
    (rep.traced ? tracedWall : plainWall).push_back(rep.trainSeconds);
    out.check(rep.timeToTarget >= 0.0, "training never reached the quality target");
    // A run that misses the target reports its whole training time.
    ttt.push_back(rep.timeToTarget >= 0.0 ? rep.timeToTarget : rep.trainSeconds);
  }

  // Correctness: finite, reproducible, at or above the floor.
  const double quality = qualityOf(in, task.get(), last.model);
  out.check(allFinite(last.model), "final model has non-finite values");
  out.check(quality >= spec.qualityFloor,
            "final quality " + std::to_string(quality) + " below floor " +
                std::to_string(spec.qualityFloor));
  out.check(quality == firstQuality, "repeated training runs disagree on final quality");

  out.endToEnd["train_tokens_per_s"] = Metric{median(tps), "tokens/s"};
  out.endToEnd["train_modelled_s"] = Metric{median(modelled), "s"};
  out.endToEnd["time_to_target_s"] = Metric{median(ttt), "s"};
  out.endToEnd["wire_bytes_per_token"] = Metric{median(wire), "B/token"};
  out.endToEnd["train_quality"] = Metric{quality, "ratio"};

  const unsigned roundsPerEpoch = spec.syncRoundsPerEpoch != 0
                                      ? spec.syncRoundsPerEpoch
                                      : core::defaultSyncRounds(spec.hosts);
  const double rounds = static_cast<double>(roundsPerEpoch) * kEpochs;
  setLayer(out, "text.corpus_resident_peak_mib",
           static_cast<double>(last.corpusResidentBytesPeak) / kMiB, "MiB");
  setLayer(out, "core.pairs_per_token", static_cast<double>(last.totalExamples) / tokens,
           "pairs/token");
  setLayer(out, "core.compute_s", median(compute), "s");
  setLayer(out, "comm.sync_pack_s", median(pack), "s");
  setLayer(out, "comm.sync_exchange_wait_s", median(exch), "s");
  setLayer(out, "comm.sync_fold_s", median(fold), "s");
  setLayer(out, "comm.sync_apply_s", median(apply), "s");
  setLayer(out, "comm.sync_round_ms",
           1e3 * (median(pack) + median(exch) + median(fold) + median(apply)) / rounds, "ms");
  setLayer(out, "comm.bytes_per_round", static_cast<double>(last.cluster.totalBytes()) / rounds,
           "B");
  setLayer(out, "sim.modelled_comm_s", median(comm), "s");
  setLayer(out, "comm.straggler_share", median(straggle), "ratio");
  setLayer(out, "eval.s", median(evalSeconds), "s");
  if (tracer.traceRun())
    setLayer(out, "bench.trace_overhead", median(tracedWall) / median(plainWall) - 1.0, "ratio");
  return std::move(last.model);
}

void runCoreProbe(const WorkloadSpec& spec, std::uint64_t seed, const Prepared& in,
                  Tracer& tracer, Outcome& out) {
  // The workload's own tokens: the encoded corpus, or one epoch of walks
  // drained single-threaded (which also gives the walk production rate).
  std::vector<text::WordId> tokens;
  if (spec.kind == InputKind::kWords) {
    tokens.assign(in.corpus.begin(),
                  in.corpus.begin() + std::min(in.corpus.size(), kProbeTokens));
  } else {
    graph::RandomWalkCorpus walks(in.graph, in.nodes, walkOptions(spec, seed), spec.hosts);
    std::vector<std::vector<text::WordId>> shards;
    {
      Tracer::Span span(tracer, "graph.walks");
      shards = text::materializeShards(walks);
      const double s = span.stop();
      setLayer(out, "input.corpus_tokens_per_s",
               static_cast<double>(walks.totalTokensPerEpoch()) / s, "tokens/s");
    }
    for (const auto& s : shards) {
      const std::size_t take = std::min(s.size(), kProbeTokens - tokens.size());
      tokens.insert(tokens.end(), s.begin(), s.begin() + take);
      if (tokens.size() >= kProbeTokens) break;
    }
  }

  const core::SgnsParams p = sgnsParams(spec);
  const text::SubsampleFilter sub(in.vocab().counts(), p.subsample);
  const text::NegativeSampler neg(in.vocab().counts());
  const std::span<const text::WordId> span(tokens);

  std::uint64_t pairs = 0;
  double sampleSeconds = 0.0;
  {
    util::Rng rng(subSeed(seed, 6));
    Tracer::Span s(tracer, "core.sample_probe");
    core::forEachTrainingBatch(span, p, 1, sub, neg, rng,
                               [&](text::WordId, std::span<const text::WordId> ctx,
                                   std::span<const text::WordId>) { pairs += ctx.size(); });
    sampleSeconds = s.stop();
  }
  double kernelSeconds = 0.0;
  {
    graph::ModelGraph replica(in.vocab().size(), p.dim);
    replica.randomizeEmbeddings(subSeed(seed, 7));
    const util::SigmoidTable sigmoid;
    core::SgnsBatchScratch scratch(p.dim, 1, p.negatives);
    util::Rng rng(subSeed(seed, 6));
    Tracer::Span s(tracer, "core.kernel_probe");
    core::forEachTrainingBatch(span, p, 1, sub, neg, rng,
                               [&](text::WordId center, std::span<const text::WordId> ctx,
                                   std::span<const text::WordId> negs) {
                                 core::sgnsStepBatched(replica, center, ctx, negs, p.alpha,
                                                       sigmoid, scratch);
                               });
    kernelSeconds = s.stop();
  }
  setLayer(out, "core.sample_ns_per_token", 1e9 * sampleSeconds / static_cast<double>(tokens.size()),
           "ns/token");
  setLayer(out, "core.kernel_ns_per_pair",
           1e9 * (kernelSeconds - sampleSeconds) / static_cast<double>(std::max<std::uint64_t>(pairs, 1)),
           "ns/pair");
}

}  // namespace gw2v::perfbench
