// IVF ANN index tests: full-probe searches must equal the brute-force
// oracle bitwise (candidate scoring shares the SIMD dot kernels), recall at
// modest nprobe must clear a floor on clustered data, and the build must be
// invariant to thread-pool size while searches stay invariant to host count
// — the two determinism contracts ann_index.h promises. The engine-level
// tests drive QueryOptions::kAnn end-to-end on the simulated cluster.

#include "serve/ann_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <set>
#include <vector>

#include "comm/transport.h"
#include "graph/model_graph.h"
#include "graph/partition.h"
#include "runtime/thread_pool.h"
#include "serve/query_engine.h"
#include "serve/sharded_index.h"
#include "serve/snapshot.h"
#include "sim/cluster.h"
#include "text/vocabulary.h"
#include "util/rng.h"
#include "util/simd.h"

namespace gw2v::serve {
namespace {

constexpr std::uint32_t kRows = 400;
constexpr std::uint32_t kDim = 16;
constexpr std::uint32_t kClusters = 8;

/// Gaussian-mixture embeddings: rows scatter around `kClusters` random unit
/// centers, so cluster pruning has real structure to find (a uniform cloud
/// would make recall-at-low-nprobe meaningless).
graph::ModelGraph makeClusteredModel(std::uint64_t seed, float noise = 0.25f,
                                     std::uint32_t numRows = kRows) {
  util::Rng rng(seed);
  std::vector<std::vector<double>> centers(kClusters, std::vector<double>(kDim));
  for (auto& c : centers) {
    double n2 = 0.0;
    for (auto& x : c) {
      x = rng.normal();
      n2 += x * x;
    }
    for (auto& x : c) x /= std::sqrt(n2);
  }
  graph::ModelGraph model(numRows, kDim);
  for (std::uint32_t w = 0; w < numRows; ++w) {
    const auto& c = centers[w % kClusters];
    auto row = model.mutableRow(graph::Label::kEmbedding, w);
    for (std::uint32_t d = 0; d < kDim; ++d)
      row[d] = static_cast<float>(c[d] + noise * rng.normal());
  }
  return model;
}

/// A query from the same mixture as the rows, L2-normalized.
std::vector<float> makeQuery(util::Rng& rng, const EmbeddingSnapshot& snap) {
  const auto base = snap.row(static_cast<text::WordId>(rng.bounded(snap.vocabSize())));
  std::vector<float> q(base.begin(), base.end());
  for (auto& x : q) x += 0.1f * static_cast<float>(rng.normal());
  return normalizedCopy(q);
}

std::vector<Candidate> bruteForce(const EmbeddingSnapshot& snap, const TopKQuery& q) {
  return topkScore(snap.rows(), snap.rowStride(), snap.vocabSize(), 0, snap.dim(),
                   std::span<const TopKQuery>(&q, 1))[0];
}

double recallAgainst(const std::vector<Candidate>& oracle,
                     const std::vector<Candidate>& got) {
  if (oracle.empty()) return 1.0;
  std::set<text::WordId> ids;
  for (const auto& c : got) ids.insert(c.id);
  std::size_t hit = 0;
  for (const auto& c : oracle) hit += ids.count(c.id);
  return static_cast<double>(hit) / static_cast<double>(oracle.size());
}

void expectSameCandidates(const std::vector<Candidate>& a, const std::vector<Candidate>& b,
                          const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].id, b[i].id) << what << " pos=" << i;
    ASSERT_EQ(a[i].score, b[i].score) << what << " pos=" << i;
  }
}

TEST(IvfIndex, FullProbeEqualsBruteForceBitwise) {
  const auto model = makeClusteredModel(7);
  AnnBuildOptions opts;
  const auto snap = EmbeddingSnapshot::fromModel(model, nullptr, 1, opts);
  const auto* idx = snap->annIndex();
  ASSERT_NE(idx, nullptr);
  EXPECT_EQ(idx->snapshotVersion(), 1u);
  EXPECT_EQ(idx->numRows(), kRows);

  util::Rng rng(99);
  for (int t = 0; t < 12; ++t) {
    const auto qv = makeQuery(rng, *snap);
    const std::vector<text::WordId> excl = {5, 9, 123};
    const TopKQuery q{qv.data(), 10, excl};
    // Probing every list scores every row: the answer must be the oracle's,
    // bit for bit — scores included (the dot4/dot contract).
    const auto got = idx->search(q, idx->numLists(), 0, kRows);
    expectSameCandidates(bruteForce(*snap, q), got, "query " + std::to_string(t));
  }
}

TEST(IvfIndex, RecallClearsFloorAtModestNprobe) {
  const auto model = makeClusteredModel(21);
  AnnBuildOptions opts;
  const auto snap = EmbeddingSnapshot::fromModel(model, nullptr, 1, opts);
  const auto* idx = snap->annIndex();
  ASSERT_NE(idx, nullptr);

  util::Rng rng(5);
  double recallSum = 0.0;
  std::uint64_t candSum = 0;
  constexpr int kQueries = 50;
  for (int t = 0; t < kQueries; ++t) {
    const auto qv = makeQuery(rng, *snap);
    const TopKQuery q{qv.data(), 10, {}};
    AnnSearchStats stats;
    const auto got = idx->search(q, 6, 0, kRows, &stats);
    recallSum += recallAgainst(bruteForce(*snap, q), got);
    candSum += stats.candidates;
    EXPECT_EQ(stats.probes, 6u);
  }
  EXPECT_GE(recallSum / kQueries, 0.9) << "recall@10 at nprobe=6 of " << idx->numLists();
  // Pruning must be real: 6 of ~20 lists ⇒ well under half the rows scored.
  EXPECT_LT(static_cast<double>(candSum) / (kQueries * kRows), 0.6);
}

TEST(IvfIndex, BuildIsThreadCountInvariant) {
  const auto model = makeClusteredModel(33);
  const auto snap = EmbeddingSnapshot::fromModel(model, nullptr, 1);
  AnnBuildOptions opts;

  runtime::ThreadPool pool4(4);
  const IvfIndex serial(snap->rows(), snap->rowStride(), kRows, kDim, 1, opts, nullptr);
  const IvfIndex parallel(snap->rows(), snap->rowStride(), kRows, kDim, 1, opts, &pool4);

  ASSERT_EQ(serial.numLists(), parallel.numLists());
  for (std::uint32_t r = 0; r < kRows; ++r)
    ASSERT_EQ(serial.assignmentOf(r), parallel.assignmentOf(r)) << "row " << r;
  for (std::uint32_t l = 0; l < serial.numLists(); ++l) {
    const auto cs = serial.centroid(l);
    const auto cp = parallel.centroid(l);
    for (std::uint32_t d = 0; d < kDim; ++d)
      ASSERT_EQ(cs[d], cp[d]) << "centroid " << l << " dim " << d;
  }

  util::Rng rng(3);
  const auto qv = makeQuery(rng, *snap);
  const TopKQuery q{qv.data(), 10, {}};
  expectSameCandidates(serial.search(q, 4, 0, kRows), parallel.search(q, 4, 0, kRows),
                       "pool-size search");
}

TEST(IvfIndex, ShardedSearchIsHostCountInvariant) {
  const auto model = makeClusteredModel(51);
  AnnBuildOptions opts;
  const auto snap = EmbeddingSnapshot::fromModel(model, nullptr, 1, opts);

  util::Rng rng(8);
  for (int t = 0; t < 8; ++t) {
    const auto qv = makeQuery(rng, *snap);
    const TopKQuery q{qv.data(), 10, {}};
    const ShardedIndex whole(*snap, 0, 1);
    const auto oneHost = whole.annTopk(q, 3);

    for (const unsigned numHosts : {2u, 3u, 4u}) {
      std::vector<std::vector<Candidate>> parts(numHosts);
      for (unsigned h = 0; h < numHosts; ++h) {
        const ShardedIndex shard(*snap, h, numHosts);
        parts[h] = shard.annTopk(q, 3);
      }
      expectSameCandidates(oneHost, mergeTopK(parts, q.k),
                           "H=" + std::to_string(numHosts) + " t=" + std::to_string(t));
    }
  }
}

TEST(IvfIndex, IncrementalRebuildReusesCentroidsAndMatchesFullReassignment) {
  auto model = makeClusteredModel(63);
  model.clearTouched();  // as a sync round would; v1's "changed since" baseline
  AnnBuildOptions opts;
  const auto v1 = EmbeddingSnapshot::fromModel(model, nullptr, 1, opts);
  const auto* idx1 = v1->annIndex();
  ASSERT_NE(idx1, nullptr);
  EXPECT_FALSE(idx1->reusedCentroids());
  model.clearTouched();

  const std::vector<std::uint32_t> touched = {3, 17, 31, 200};
  for (const auto w : touched) {
    auto row = model.mutableRow(graph::Label::kEmbedding, w);
    for (std::uint32_t d = 0; d < kDim; ++d) row[d] = -row[d];
  }
  model.clearTouched();

  const auto v2 = EmbeddingSnapshot::fromModel(model, nullptr, 2, *v1, opts);
  const auto* idx2 = v2->annIndex();
  ASSERT_NE(idx2, nullptr);
  EXPECT_TRUE(idx2->reusedCentroids());
  EXPECT_EQ(idx2->snapshotVersion(), 2u);

  // Centroids come over verbatim…
  ASSERT_EQ(idx2->numLists(), idx1->numLists());
  for (std::uint32_t l = 0; l < idx1->numLists(); ++l) {
    const auto c1 = idx1->centroid(l);
    const auto c2 = idx2->centroid(l);
    for (std::uint32_t d = 0; d < kDim; ++d) ASSERT_EQ(c1[d], c2[d]);
  }
  // …and the incremental assignment equals reassigning *every* row of the
  // new matrix against those centroids (unchanged rows cannot move).
  std::vector<std::uint32_t> all(kRows);
  for (std::uint32_t r = 0; r < kRows; ++r) all[r] = r;
  const IvfIndex ref(*idx1, v2->rows(), v2->rowStride(), kRows, kDim, 2, all, nullptr);
  for (std::uint32_t r = 0; r < kRows; ++r)
    ASSERT_EQ(idx2->assignmentOf(r), ref.assignmentOf(r)) << "row " << r;

  util::Rng rng(4);
  const auto qv = makeQuery(rng, *v2);
  const TopKQuery q{qv.data(), 10, {}};
  expectSameCandidates(bruteForce(*v2, q), idx2->search(q, idx2->numLists(), 0, kRows),
                       "incremental full-probe");
}

TEST(IvfIndex, RetrainThresholdForcesFullKmeans) {
  auto model = makeClusteredModel(75);
  model.clearTouched();
  AnnBuildOptions opts;
  const auto v1 = EmbeddingSnapshot::fromModel(model, nullptr, 1, opts);
  model.clearTouched();

  // Touch three rows in four, past IvfIndex::kRetrainFraction.
  for (std::uint32_t w = 0; w < kRows; ++w)
    if (w % 4 != 0) model.mutableRow(graph::Label::kEmbedding, w)[0] += 1.0f;
  model.clearTouched();

  const auto v2 = EmbeddingSnapshot::fromModel(model, nullptr, 2, *v1, opts);
  const auto* idx2 = v2->annIndex();
  ASSERT_NE(idx2, nullptr);
  EXPECT_FALSE(idx2->reusedCentroids());
}

TEST(IvfIndex, EdgeCases) {
  const auto model = makeClusteredModel(91, 0.25f, 10);
  AnnBuildOptions one;
  one.numLists = 1;
  const auto snap = EmbeddingSnapshot::fromModel(model, nullptr, 1, one);
  const auto* idx = snap->annIndex();
  ASSERT_NE(idx, nullptr);
  EXPECT_EQ(idx->numLists(), 1u);

  util::Rng rng(2);
  const auto qv = makeQuery(rng, *snap);
  // One list degenerates to brute force.
  const TopKQuery q{qv.data(), 4, {}};
  expectSameCandidates(bruteForce(*snap, q), idx->search(q, 1, 0, 10), "one-list");
  // k = 0 and empty shard ranges return nothing.
  const TopKQuery q0{qv.data(), 0, {}};
  EXPECT_TRUE(idx->search(q0, 1, 0, 10).empty());
  EXPECT_TRUE(idx->search(q, 1, 5, 5).empty());
  // nprobe = 0 is clamped to 1, not an empty scan.
  AnnSearchStats stats;
  (void)idx->search(q, 0, 0, 10, &stats);
  EXPECT_EQ(stats.probes, 1u);

  // Zero-row index: searchable, empty.
  AnnBuildOptions opts;
  const IvfIndex empty(nullptr, 0, 0, kDim, 1, opts, nullptr);
  EXPECT_TRUE(empty.search(q, 4, 0, 0).empty());
}

TEST(IvfIndex, CandidateScoresBitExactAcrossSimdTiers) {
  const auto model = makeClusteredModel(101);
  const auto original = util::simd::activeTier();
  for (const auto tier :
       {util::simd::Tier::kScalar, util::simd::Tier::kAvx2, util::simd::Tier::kAvx512}) {
    if (util::simd::forceTierForTesting(tier) != tier) continue;  // not on this CPU
    AnnBuildOptions opts;
    const auto snap = EmbeddingSnapshot::fromModel(model, nullptr, 1, opts);
    const auto* idx = snap->annIndex();
    ASSERT_NE(idx, nullptr);
    util::Rng rng(6);
    const auto qv = makeQuery(rng, *snap);
    const TopKQuery q{qv.data(), 10, {}};
    // Within each tier, the ANN candidate path must reproduce the oracle's
    // scores exactly — the dot4-vs-dot contract holds tier by tier.
    expectSameCandidates(bruteForce(*snap, q), idx->search(q, idx->numLists(), 0, kRows),
                         std::string("tier ") + util::simd::tierName(tier));
  }
  util::simd::forceTierForTesting(original);
}

// ---- Engine-level ANN mode on the simulated cluster. -----------------------

text::Vocabulary makeVocab(std::uint32_t n) {
  text::Vocabulary v;
  for (std::uint32_t i = 0; i < n; ++i) v.addCount("w" + std::to_string(i), 100000 - i);
  v.finalize(1);
  return v;
}

/// Runs `client` on a rank-0 client thread against an H-host engine.
void runServe(unsigned numHosts, const SnapshotStore& store, ServeOptions opts,
              const std::function<void(QueryEngine&)>& client) {
  sim::ClusterOptions copts;
  copts.numHosts = numHosts;
  sim::runCluster(copts, [&](comm::RankContext& ctx) {
    QueryEngine(ctx.transport(), ctx.id(), store, opts).runWithClient(client);
  });
}

TEST(ServeAnnEngine, AnnModeClearsRecallFloorAndIsHostCountInvariant) {
  const auto model = makeClusteredModel(113);
  const auto vocab = makeVocab(kRows);
  AnnBuildOptions ann;

  QueryOptions qo;
  qo.mode = QueryMode::kAnn;
  qo.nprobe = 6;

  std::vector<std::vector<Candidate>> firstRun;  // H=1 answers, the yardstick
  for (const unsigned numHosts : {1u, 2u, 3u}) {
    SnapshotStore store(8);
    store.publish(EmbeddingSnapshot::fromModel(model, &vocab, 1, ann));
    ServeOptions opts;
    opts.cacheCapacity = 0;
    runServe(numHosts, store, opts, [&](QueryEngine& engine) {
      double recallSum = 0.0;
      unsigned n = 0;
      for (text::WordId w = 0; w < kRows; w += 11, ++n) {
        const auto approx = engine.queryWord(w, 10, qo);
        const auto exact = engine.queryWord(w, 10);
        recallSum += recallAgainst(exact.neighbors, approx.neighbors);
        if (numHosts == 1) {
          firstRun.push_back(approx.neighbors);
        } else {
          expectSameCandidates(firstRun[n], approx.neighbors,
                               "H=" + std::to_string(numHosts) + " w=" + std::to_string(w));
        }
      }
      EXPECT_GE(recallSum / n, 0.9) << "H=" << numHosts;
      const auto& m = engine.metrics();
      EXPECT_GT(m.annQueries.load(), 0u);
      EXPECT_GT(m.exactScanQueries.load(), 0u);
      EXPECT_EQ(m.annFallbacks.load(), 0u);
      EXPECT_GT(m.annProbeCount.load(), 0u);
      EXPECT_GT(m.annCandidates.load(), 0u);
      EXPECT_GT(m.annCandidateRatio(), 0.0);
      EXPECT_LT(m.annCandidateRatio(), 1.0);
    });
  }
}

TEST(ServeAnnEngine, AnnAgainstIndexlessSnapshotFallsBackToExact) {
  const auto model = makeClusteredModel(131);
  const auto vocab = makeVocab(kRows);
  SnapshotStore store(8);
  store.publish(EmbeddingSnapshot::fromModel(model, &vocab, 1));  // no index

  QueryOptions qo;
  qo.mode = QueryMode::kAnn;
  qo.nprobe = 4;
  ServeOptions opts;
  opts.cacheCapacity = 0;
  runServe(2, store, opts, [&](QueryEngine& engine) {
    const auto approx = engine.queryWord(7, 10, qo);
    const auto exact = engine.queryWord(7, 10);
    expectSameCandidates(exact.neighbors, approx.neighbors, "fallback");
    const auto& m = engine.metrics();
    EXPECT_GT(m.annFallbacks.load(), 0u);
    EXPECT_EQ(m.annQueries.load(), 0u);
  });
}

TEST(ServeAnnEngine, CacheKeysSeparateModesAndKnobs) {
  const auto model = makeClusteredModel(151);
  const auto vocab = makeVocab(kRows);
  AnnBuildOptions ann;
  SnapshotStore store(8);
  store.publish(EmbeddingSnapshot::fromModel(model, &vocab, 1, ann));

  ServeOptions opts;
  opts.cacheCapacity = 64;
  runServe(2, store, opts, [&](QueryEngine& engine) {
    QueryOptions qo;
    qo.mode = QueryMode::kAnn;
    qo.nprobe = 4;
    EXPECT_FALSE(engine.queryWord(5, 10).cacheHit);        // exact, miss
    EXPECT_TRUE(engine.queryWord(5, 10).cacheHit);         // exact, hit
    EXPECT_FALSE(engine.queryWord(5, 10, qo).cacheHit);    // ann ≠ exact key
    EXPECT_TRUE(engine.queryWord(5, 10, qo).cacheHit);     // same knobs hit
    qo.nprobe = 5;
    EXPECT_FALSE(engine.queryWord(5, 10, qo).cacheHit);    // knob change, miss
  });
}

}  // namespace
}  // namespace gw2v::serve
