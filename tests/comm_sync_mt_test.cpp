// Multithreaded sync-path coverage. Four angles:
//
//   1. Determinism: worker threads issue disjoint-row updates (exercising the
//      DeltaLog's concurrent first-touch capture), then the engine syncs —
//      replica bits must be identical at every thread count for all three
//      strategies. This suite is TSan-clean: the only concurrency is the
//      capture path and the engine's row-disjoint pack/fold/apply.
//   2. Phase accounting: a pack/exchange/fold/apply breakdown surfaces in
//      ClusterReport.
//   3. Scratch reuse: with a stable dirty-set shape, the engine's scratch
//      growth counter must go quiet after warmup — steady-state rounds make
//      no engine-side allocations.
//   4. End-to-end Hogwild training with workerThreadsPerHost > 1 (test names
//      carry "Hogwild": racy by design, excluded from TSan in
//      ci/sanitize.sh): payload volume must be run-to-run deterministic and
//      the model finite, across Naive/Opt/Pull for SGNS and CBOW.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "comm/reducer.h"
#include "comm/sync_engine.h"
#include "core/trainer.h"
#include "sim/cluster.h"
#include "text/vocabulary.h"
#include "util/rng.h"

namespace gw2v {
namespace {

using graph::Label;
using graph::ModelGraph;

/// Deterministic sparse updates, partitioned over workers by row stride so
/// writes are row-disjoint and the touched set / values are independent of
/// the thread count.
void applyRoundUpdates(ModelGraph& m, runtime::ThreadPool& pool, unsigned host,
                       unsigned round) {
  const unsigned T = pool.numThreads();
  pool.onEach([&](unsigned tid) {
    for (std::uint32_t n = tid; n < m.numNodes(); n += T) {
      for (int l = 0; l < graph::kNumLabels; ++l) {
        const std::uint64_t key = util::hash64(
            (static_cast<std::uint64_t>(round) << 40) ^ (static_cast<std::uint64_t>(host) << 28) ^
            (static_cast<std::uint64_t>(n) << 2) ^ static_cast<std::uint64_t>(l));
        if (key % 100 >= 35) continue;  // ~35% dirty
        auto row = m.mutableRow(static_cast<Label>(l), n);
        util::Rng rng(key ^ 0xabcdULL);
        for (auto& v : row) v += rng.uniformFloat(-0.1f, 0.1f);
      }
    }
  });
}

std::uint64_t modelBits(const ModelGraph& m) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (int l = 0; l < graph::kNumLabels; ++l) {
    for (std::uint32_t n = 0; n < m.numNodes(); ++n) {
      const auto row = m.row(static_cast<Label>(l), n);
      const auto* p = reinterpret_cast<const unsigned char*>(row.data());
      for (std::size_t i = 0; i < row.size_bytes(); ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
      }
    }
  }
  return h;
}

struct MtRun {
  std::vector<std::uint64_t> replicaBits;
  std::uint64_t totalBytes = 0;
  sim::ClusterReport report;
};

MtRun runScripted(unsigned hosts, unsigned threads, comm::SyncStrategy strategy,
                  comm::SyncOptions sopts, unsigned rounds = 3,
                  std::uint32_t nodes = 37, std::uint32_t dim = 6) {
  const comm::SumReducer sum;
  std::vector<std::unique_ptr<ModelGraph>> replicas(hosts);
  for (unsigned h = 0; h < hosts; ++h) {
    replicas[h] = std::make_unique<ModelGraph>(nodes, dim);
    replicas[h]->randomizeEmbeddings(11);
  }
  const graph::BlockedPartition partition(nodes, hosts);
  sim::ClusterOptions copts;
  copts.numHosts = hosts;
  copts.workerThreadsPerHost = threads;
  MtRun run;
  run.report = sim::runCluster(copts, [&](sim::HostContext& ctx) {
    ModelGraph& m = *replicas[ctx.id()];
    comm::SyncEngine engine(ctx, m, partition, sum, strategy, sopts);
    util::BitVector willAccess(nodes);
    for (unsigned r = 0; r < rounds; ++r) {
      applyRoundUpdates(m, ctx.pool(), ctx.id(), r);
      if (strategy == comm::SyncStrategy::kPullModel) {
        willAccess.reset();
        util::Rng arng(util::hash64(500 + ctx.id() * 13 + r));
        for (unsigned k = 0; k < 12; ++k) willAccess.set(arng.bounded(nodes));
        engine.sync(willAccess);
      } else {
        engine.sync();
      }
    }
  });
  run.totalBytes = run.report.totalBytes();
  run.replicaBits.reserve(hosts);
  for (const auto& r : replicas) run.replicaBits.push_back(modelBits(*r));
  return run;
}

const comm::SyncStrategy kStrategies[3] = {comm::SyncStrategy::kRepModelNaive,
                                           comm::SyncStrategy::kRepModelOpt,
                                           comm::SyncStrategy::kPullModel};

TEST(SyncMt, BitIdenticalAcrossThreadCounts) {
  for (const unsigned hosts : {2u, 4u}) {
    for (const comm::SyncStrategy strategy : kStrategies) {
      const MtRun ref = runScripted(hosts, 1, strategy, {});
      for (const unsigned threads : {2u, 4u}) {
        const MtRun got = runScripted(hosts, threads, strategy, {});
        EXPECT_EQ(ref.totalBytes, got.totalBytes)
            << comm::syncStrategyName(strategy) << " H" << hosts << " T" << threads;
        EXPECT_EQ(ref.replicaBits, got.replicaBits)
            << comm::syncStrategyName(strategy) << " H" << hosts << " T" << threads;
      }
    }
  }
}

TEST(SyncMt, PhaseBreakdownSurfacedInClusterReport) {
  const MtRun run = runScripted(4, 2, comm::SyncStrategy::kRepModelOpt, {});
  const comm::SyncPhaseSeconds worst = run.report.maxSyncPhaseSeconds();
  EXPECT_GT(worst.pack, 0.0);
  EXPECT_GT(worst.fold, 0.0);
  EXPECT_GT(worst.apply, 0.0);
  EXPECT_GT(worst.exchange, 0.0);
  for (const auto& h : run.report.hosts) {
    EXPECT_GT(h.sync.total(), 0.0);
  }
}

TEST(SyncMt, ScratchGoesQuietAfterWarmup) {
  constexpr unsigned kHosts = 4;
  constexpr std::uint32_t kNodes = 64;
  constexpr std::uint32_t kDim = 8;
  const comm::SumReducer sum;
  for (const comm::SyncStrategy strategy :
       {comm::SyncStrategy::kRepModelNaive, comm::SyncStrategy::kRepModelOpt}) {
    std::vector<std::unique_ptr<ModelGraph>> replicas(kHosts);
    for (auto& r : replicas) r = std::make_unique<ModelGraph>(kNodes, kDim);
    const graph::BlockedPartition partition(kNodes, kHosts);
    std::vector<std::uint64_t> growAfterWarmup(kHosts, 0), growAtEnd(kHosts, 0);
    sim::ClusterOptions copts;
    copts.numHosts = kHosts;
    copts.workerThreadsPerHost = 2;
    sim::runCluster(copts, [&](sim::HostContext& ctx) {
      ModelGraph& m = *replicas[ctx.id()];
      comm::SyncEngine engine(ctx, m, partition, sum, strategy);
      // The same rows go dirty every round, so payload sizes are stable and
      // the recycled buffers must satisfy every acquire after warmup.
      for (unsigned r = 0; r < 8; ++r) {
        for (std::uint32_t n = ctx.id(); n < kNodes; n += 3) {
          for (int l = 0; l < graph::kNumLabels; ++l) {
            auto row = m.mutableRow(static_cast<Label>(l), n);
            row[r % kDim] += 0.5f;
          }
        }
        engine.sync();
        if (r == 2) growAfterWarmup[ctx.id()] = engine.scratchGrowEvents();
      }
      growAtEnd[ctx.id()] = engine.scratchGrowEvents();
    });
    for (unsigned h = 0; h < kHosts; ++h) {
      EXPECT_EQ(growAfterWarmup[h], growAtEnd[h])
          << comm::syncStrategyName(strategy) << " host " << h
          << ": steady-state sync rounds grew engine scratch";
    }
  }
}

// ---- End-to-end multithreaded training ("Hogwild" in the name => excluded
// from the TSan job: the compute phase races on shared rows by design). ----

text::Vocabulary mtVocab(std::uint32_t words) {
  text::Vocabulary v;
  for (std::uint32_t i = 0; i < words; ++i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "w%03u", i);
    v.addCount(buf, 4000 - 11ULL * i);
  }
  v.finalize(1);
  return v;
}

std::vector<text::WordId> mtCorpus(std::uint32_t words, std::size_t tokens) {
  std::vector<text::WordId> c(tokens);
  util::Rng rng(321);
  for (auto& t : c) t = static_cast<text::WordId>(rng.bounded(words));
  return c;
}

TEST(SyncMtHogwild, TrainingVolumeDeterministicAndFinite) {
  const std::uint32_t kWords = 40;
  const text::Vocabulary vocab = mtVocab(kWords);
  const std::vector<text::WordId> corpus = mtCorpus(kWords, 1500);

  for (const bool cbow : {false, true}) {
    for (const comm::SyncStrategy strategy : kStrategies) {
      for (const unsigned threads : {2u, 4u}) {
        core::TrainOptions o;
        o.sgns.dim = 8;
        o.sgns.window = 2;
        o.sgns.negatives = 3;
        o.sgns.subsample = 0;
        o.sgns.architecture =
            cbow ? core::Architecture::kCbow : core::Architecture::kSkipGram;
        o.epochs = 1;
        o.numHosts = 2;
        o.workerThreadsPerHost = threads;
        o.strategy = strategy;
        o.seed = 99;
        o.trackLoss = false;
        const core::GraphWord2Vec trainer(vocab, o);
        const core::TrainResult a = trainer.train(corpus);
        const core::TrainResult b = trainer.train(corpus);
        // Values race (benign lost updates), but which rows a worker touches
        // is deterministic, so sync payload volume must be reproducible.
        EXPECT_EQ(a.cluster.totalBytes(), b.cluster.totalBytes())
            << (cbow ? "cbow" : "sgns") << " " << comm::syncStrategyName(strategy) << " T"
            << threads;
        for (std::uint32_t n = 0; n < a.model.numNodes(); ++n) {
          for (const float v : a.model.row(Label::kEmbedding, n)) {
            ASSERT_TRUE(std::isfinite(v)) << "node " << n;
          }
        }
        EXPECT_GT(a.cluster.maxSyncPhaseSeconds().total(), 0.0);
      }
    }
  }
}

}  // namespace
}  // namespace gw2v
