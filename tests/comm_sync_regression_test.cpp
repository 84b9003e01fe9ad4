// Regression lock for the model-state refactor: sync payload volumes and
// end-of-training model bits must be identical to the pre-refactor dense
// baseline_ path for SGNS + CBOW at H in {1,2,4,8} under all three
// SyncStrategy variants, plus a scripted per-round SyncEngine drive. A
// second set of entries locks every other trainer that drives the SGNS edge
// stream (hierarchical softmax, shared-memory, column-parallel, async PS).
//
// Goldens in tests/golden/sync_regression.txt were generated by the
// pre-refactor SyncEngine (dense per-label baseline_ copies). Regenerate
// with GW2V_REGEN_GOLDEN=1 only when a change is *meant* to alter payloads
// or training arithmetic — never to paper over an accidental divergence.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/column_parallel.h"
#include "baselines/shared_memory.h"
#include "comm/reducer.h"
#include "comm/sync_engine.h"
#include "core/trainer.h"
#include "ps/trainer.h"
#include "sim/cluster.h"
#include "text/vocabulary.h"
#include "util/rng.h"

namespace gw2v {
namespace {

#ifndef GW2V_GOLDEN_DIR
#define GW2V_GOLDEN_DIR "tests/golden"
#endif

constexpr const char* kGoldenPath = GW2V_GOLDEN_DIR "/sync_regression.txt";

/// FNV-1a over the raw bit patterns of every unpadded row (both labels).
std::uint64_t modelHash(const graph::ModelGraph& m, std::uint64_t h = 0xcbf29ce484222325ULL) {
  const auto mix = [&h](const unsigned char* p, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ULL;
    }
  };
  for (int l = 0; l < graph::kNumLabels; ++l) {
    for (std::uint32_t n = 0; n < m.numNodes(); ++n) {
      const auto row = m.row(static_cast<graph::Label>(l), n);
      mix(reinterpret_cast<const unsigned char*>(row.data()), row.size_bytes());
    }
  }
  return h;
}

struct GoldenEntry {
  std::uint64_t bytes = 0;
  std::uint64_t hash = 0;
};

class Golden {
 public:
  Golden() {
    regen_ = std::getenv("GW2V_REGEN_GOLDEN") != nullptr;
    if (regen_) return;
    std::ifstream in(kGoldenPath);
    EXPECT_TRUE(in.good()) << "missing golden file " << kGoldenPath
                           << " (generate with GW2V_REGEN_GOLDEN=1)";
    std::string name;
    GoldenEntry e;
    while (in >> name >> e.bytes >> std::hex >> e.hash >> std::dec) entries_[name] = e;
    EXPECT_FALSE(entries_.empty());
  }

  void check(const std::string& name, std::uint64_t bytes, std::uint64_t hash) {
    if (regen_) {
      recorded_.emplace_back(name, GoldenEntry{bytes, hash});
      return;
    }
    auto it = entries_.find(name);
    ASSERT_NE(it, entries_.end()) << "no golden entry for " << name;
    EXPECT_EQ(it->second.bytes, bytes) << name << ": payload volume diverged from pre-refactor";
    EXPECT_EQ(it->second.hash, hash) << name << ": model bits diverged from pre-refactor";
  }

  bool regenerating() const noexcept { return regen_; }

  ~Golden() {
    if (!regen_ || recorded_.empty()) return;
    // Append: each test case flushes its own entries (delete the file before
    // a full regeneration run).
    std::ofstream out(kGoldenPath, std::ios::app);
    for (const auto& [name, e] : recorded_) {
      out << name << ' ' << std::dec << e.bytes << ' ' << std::hex << e.hash << std::dec << '\n';
    }
    std::fprintf(stderr, "regenerated %s (%zu entries)\n", kGoldenPath, recorded_.size());
  }

 private:
  bool regen_ = false;
  std::map<std::string, GoldenEntry> entries_;
  std::vector<std::pair<std::string, GoldenEntry>> recorded_;
};

/// Tiny deterministic vocabulary: strictly decreasing counts so word ids are
/// stable under Vocabulary::finalize's (count desc, word asc) order.
text::Vocabulary makeVocab(std::uint32_t words) {
  text::Vocabulary v;
  for (std::uint32_t i = 0; i < words; ++i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "w%04u", i);
    v.addCount(buf, 5000 - 7ULL * i);
  }
  v.finalize(1);
  return v;
}

/// Skewed deterministic corpus over the vocabulary.
std::vector<text::WordId> makeCorpus(std::uint32_t words, std::size_t tokens,
                                     std::uint64_t seed) {
  std::vector<text::WordId> c(tokens);
  util::Rng rng(seed);
  for (auto& t : c) {
    const auto a = static_cast<text::WordId>(rng.bounded(words));
    const auto b = static_cast<text::WordId>(rng.bounded(words));
    t = a < b ? a : b;  // mild skew toward frequent (low) ids
  }
  return c;
}

const comm::SyncStrategy kStrategies[3] = {comm::SyncStrategy::kRepModelNaive,
                                           comm::SyncStrategy::kRepModelOpt,
                                           comm::SyncStrategy::kPullModel};

TEST(SyncRegression, EndToEndTrainingLocked) {
  Golden golden;
  const std::uint32_t kWords = 60;
  const text::Vocabulary vocab = makeVocab(kWords);
  const std::vector<text::WordId> corpus = makeCorpus(kWords, 3000, 99);

  for (const bool cbow : {false, true}) {
    for (const unsigned hosts : {1u, 2u, 4u, 8u}) {
      for (const comm::SyncStrategy strategy : kStrategies) {
        core::TrainOptions o;
        o.sgns.dim = 16;
        o.sgns.window = 3;
        o.sgns.negatives = 5;
        o.sgns.subsample = 0;  // keep the pair stream deterministic and dense
        o.sgns.architecture =
            cbow ? core::Architecture::kCbow : core::Architecture::kSkipGram;
        o.epochs = 2;
        o.numHosts = hosts;
        o.strategy = strategy;
        o.seed = 1234;
        o.trackLoss = false;
        const core::GraphWord2Vec trainer(vocab, o);
        const core::TrainResult r = trainer.train(corpus);
        std::ostringstream name;
        name << (cbow ? "cbow" : "sgns") << "_H" << hosts << "_"
             << comm::syncStrategyName(strategy);
        golden.check(name.str(), r.cluster.totalBytes(), modelHash(r.model));
      }
    }
  }
}

TEST(SyncRegression, BatchedKernelLocked) {
  Golden golden;
  const std::uint32_t kWords = 60;
  const text::Vocabulary vocab = makeVocab(kWords);
  const std::vector<text::WordId> corpus = makeCorpus(kWords, 3000, 77);
  for (const unsigned hosts : {1u, 4u}) {
    core::TrainOptions o;
    o.sgns.dim = 16;
    o.sgns.window = 3;
    o.sgns.negatives = 5;
    o.sgns.subsample = 0;
    o.sgns.batchSize = 4;  // shared-negative batched SGNS path
    o.epochs = 2;
    o.numHosts = hosts;
    o.seed = 4321;
    o.trackLoss = false;
    const core::GraphWord2Vec trainer(vocab, o);
    const core::TrainResult r = trainer.train(corpus);
    std::ostringstream name;
    name << "sgns_b4_H" << hosts << "_Opt";
    golden.check(name.str(), r.cluster.totalBytes(), modelHash(r.model));
  }
}

/// Every other caller of forEachTrainingBatch: hierarchical softmax
/// through GraphWord2Vec, plus the shared-memory, column-parallel and
/// parameter-server trainers. Subsampling and short sentences are on so the
/// sentence fill is locked too. One worker thread per host keeps each run
/// deterministic and race-free; entries without a cluster record 0 bytes.
TEST(SyncRegression, EveryTrainerLocked) {
  Golden golden;
  const std::uint32_t kWords = 60;
  const text::Vocabulary vocab = makeVocab(kWords);
  const std::vector<text::WordId> corpus = makeCorpus(kWords, 3000, 55);
  core::SgnsParams sgns;
  sgns.dim = 16;
  sgns.window = 3;
  sgns.negatives = 5;
  sgns.subsample = 1e-3;
  sgns.maxSentence = 200;

  for (const unsigned hosts : {1u, 2u, 4u}) {
    for (const comm::SyncStrategy strategy : kStrategies) {
      core::TrainOptions o;
      o.sgns = sgns;
      o.sgns.objective = core::Objective::kHierarchicalSoftmax;
      o.epochs = 2;
      o.numHosts = hosts;
      o.strategy = strategy;
      o.seed = 2468;
      o.trackLoss = false;
      const core::TrainResult r = core::GraphWord2Vec(vocab, o).train(corpus);
      std::ostringstream name;
      name << "hs_H" << hosts << "_" << comm::syncStrategyName(strategy);
      golden.check(name.str(), r.cluster.totalBytes(), modelHash(r.model));
    }
  }

  const struct {
    const char* name;
    core::Architecture architecture;
    core::Objective objective;
  } kShared[] = {
      {"shared_sgns_T1", core::Architecture::kSkipGram, core::Objective::kNegativeSampling},
      {"shared_cbow_T1", core::Architecture::kCbow, core::Objective::kNegativeSampling},
      {"shared_hs_T1", core::Architecture::kSkipGram, core::Objective::kHierarchicalSoftmax},
  };
  for (const auto& c : kShared) {
    baselines::SharedMemoryOptions o;
    o.sgns = sgns;
    o.sgns.architecture = c.architecture;
    o.sgns.objective = c.objective;
    o.epochs = 2;
    o.threads = 1;
    o.seed = 1357;
    o.trackLoss = false;
    golden.check(c.name, 0, modelHash(baselines::trainHogwild(vocab, corpus, o).model));
  }

  {
    baselines::BatchedOptions o;
    o.sgns = sgns;
    o.epochs = 2;
    o.batchExamples = 64;
    o.seed = 9753;
    o.trackLoss = false;
    golden.check("batched_sgns", 0, modelHash(baselines::trainBatched(vocab, corpus, o).model));
  }

  {
    baselines::ColumnParallelOptions o;
    o.sgns = sgns;
    o.epochs = 2;
    o.numHosts = 2;
    o.batchExamples = 64;
    o.seed = 8642;
    o.trackLoss = false;
    const auto r = baselines::trainColumnParallel(vocab, corpus, o);
    golden.check("column_sgns_H2", r.cluster.totalBytes(), modelHash(r.model));
  }

  for (const unsigned staleness : {0u, 2u}) {
    ps::PsTrainOptions o;
    o.sgns = sgns;
    o.epochs = 2;
    o.roundsPerEpoch = 4;
    o.numHosts = 4;
    o.staleness = staleness;
    o.codec = comm::SyncCodec::kInt8;
    o.seed = 3141;
    o.trackLoss = false;
    const ps::PsResult r = ps::trainAsyncPs(vocab, corpus, o);
    std::ostringstream name;
    name << "ps_int8_s" << staleness;
    golden.check(name.str(), r.cluster.totalBytes(), modelHash(r.model));
  }
}

/// Scripted SyncEngine drive: deterministic row bumps, every replica hashed
/// after every round, so any change to payload *content* (not just volume)
/// shows up even when the final composed model happens to agree. The bumps
/// run on the host thread, so the worker-thread sweep locks the *sync* path:
/// the parallel pack/fold/apply must reproduce the same golden bytes and
/// bits at every pool size.
TEST(SyncRegression, ScriptedRoundsLocked) {
  Golden golden;
  constexpr std::uint32_t kNodes = 24;
  constexpr std::uint32_t kDim = 8;
  constexpr unsigned kRounds = 3;
  const comm::SumReducer sum;

  for (const unsigned threads : {1u, 2u, 4u}) {
  for (const unsigned hosts : {1u, 2u, 4u, 8u}) {
    for (const comm::SyncStrategy strategy : kStrategies) {
      std::vector<std::unique_ptr<graph::ModelGraph>> replicas(hosts);
      for (unsigned h = 0; h < hosts; ++h) {
        replicas[h] = std::make_unique<graph::ModelGraph>(kNodes, kDim);
        replicas[h]->randomizeEmbeddings(7);
      }
      const graph::BlockedPartition partition(kNodes, hosts);
      std::vector<std::uint64_t> roundHash(hosts, 0xcbf29ce484222325ULL);
      sim::ClusterOptions copts;
      copts.numHosts = hosts;
      copts.workerThreadsPerHost = threads;
      const sim::ClusterReport report = sim::runCluster(copts, [&](sim::HostContext& ctx) {
        graph::ModelGraph& m = *replicas[ctx.id()];
        comm::SyncEngine engine(ctx, m, partition, sum, strategy);
        util::BitVector willAccess(kNodes);
        for (unsigned s = 0; s < kRounds; ++s) {
          // Each host bumps a deterministic, overlapping set of rows.
          util::Rng rng(util::hash64(1000 + ctx.id() * 31 + s));
          for (unsigned k = 0; k < 5; ++k) {
            const auto n = static_cast<std::uint32_t>(rng.bounded(kNodes));
            const auto label = k % 2 == 0 ? graph::Label::kEmbedding : graph::Label::kTraining;
            auto row = m.mutableRow(label, n);
            for (auto& v : row) v += 0.25f * static_cast<float>(k + 1);
            m.markTouched(label, n);
          }
          if (strategy == comm::SyncStrategy::kPullModel) {
            willAccess.reset();
            util::Rng arng(util::hash64(2000 + ctx.id() * 17 + s));
            for (unsigned k = 0; k < 8; ++k)
              willAccess.set(arng.bounded(kNodes));
            engine.sync(willAccess);
          } else {
            engine.sync();
          }
          roundHash[ctx.id()] = modelHash(m, roundHash[ctx.id()]);
        }
      });
      std::uint64_t combined = 0xcbf29ce484222325ULL;
      for (const std::uint64_t h : roundHash) combined = (combined ^ h) * 0x100000001b3ULL;
      std::ostringstream name;
      name << "scripted_H" << hosts << "_" << comm::syncStrategyName(strategy);
      // One golden entry per (H, strategy); every thread count must hit it.
      if (threads == 1 || !golden.regenerating()) {
        golden.check(name.str(), report.totalBytes(), combined);
      }
    }
  }
  }
}

}  // namespace
}  // namespace gw2v
