// Property: sharded top-k (per-shard topkScore + mergeTopK) is identical —
// same ids, same order, ties broken by word id — to the single-host
// eval::EmbeddingView::nearest, across host counts, k values and exclude
// lists. This is the determinism contract the serving tier's scatter-gather
// relies on (ISSUE acceptance: recall@k = 1.0 by construction).

#include "serve/topk.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "eval/embedding_view.h"
#include "graph/model_graph.h"
#include "graph/partition.h"
#include "serve/sharded_index.h"
#include "serve/snapshot.h"
#include "text/vocabulary.h"
#include "util/rng.h"

namespace gw2v::serve {
namespace {

text::Vocabulary makeVocab(std::uint32_t n) {
  text::Vocabulary v;
  for (std::uint32_t i = 0; i < n; ++i) v.addCount("w" + std::to_string(i), 1000 - i);
  v.finalize(1);
  return v;
}

std::vector<Candidate> shardedTopK(const EmbeddingSnapshot& snap, unsigned numHosts,
                                   const TopKQuery& q) {
  std::vector<std::vector<Candidate>> parts;
  for (unsigned h = 0; h < numHosts; ++h) {
    ShardedIndex shard(snap, h, numHosts);
    auto lists = shard.topk({&q, 1});
    parts.push_back(std::move(lists[0]));
  }
  return mergeTopK(parts, q.k);
}

TEST(ServeTopK, ShardedMatchesSingleHostAcrossHostsAndK) {
  constexpr std::uint32_t kVocab = 97;
  constexpr std::uint32_t kDim = 17;
  graph::ModelGraph model(kVocab, kDim);
  model.randomizeEmbeddings(11);
  const text::Vocabulary vocab = makeVocab(kVocab);
  const eval::EmbeddingView view(model, vocab);
  const EmbeddingSnapshot& snap = *view.snapshot();

  util::Rng rng(42);
  for (const unsigned numHosts : {1u, 2u, 4u, 8u}) {
    for (const unsigned k : {1u, 10u, 100u}) {
      for (int trial = 0; trial < 4; ++trial) {
        std::vector<float> raw(kDim);
        for (auto& x : raw) x = rng.uniformFloat(-1.0f, 1.0f);
        // Exclude a random sorted subset (sometimes empty).
        std::vector<text::WordId> exclude;
        if (trial % 2 == 1) {
          for (int e = 0; e < 7; ++e)
            exclude.push_back(static_cast<text::WordId>(rng.bounded(kVocab)));
          std::sort(exclude.begin(), exclude.end());
          exclude.erase(std::unique(exclude.begin(), exclude.end()), exclude.end());
        }

        const std::vector<float> q = normalizedCopy(raw);
        const TopKQuery tq{q.data(), k, exclude};
        const auto sharded = shardedTopK(snap, numHosts, tq);
        const auto reference = view.nearest(raw, k, exclude);

        ASSERT_EQ(sharded.size(), reference.size())
            << "H=" << numHosts << " k=" << k << " trial=" << trial;
        for (std::size_t i = 0; i < sharded.size(); ++i) {
          EXPECT_EQ(sharded[i].id, reference[i].word)
              << "H=" << numHosts << " k=" << k << " pos=" << i;
          EXPECT_EQ(sharded[i].score, reference[i].similarity);
        }
      }
    }
  }
}

TEST(ServeTopK, TiesBreakTowardLowerWordId) {
  // 16 words but only 4 distinct vectors -> every score is a 4-way tie; the
  // deterministic total order must list tied ids ascending, on every shard
  // split.
  constexpr std::uint32_t kVocab = 16;
  constexpr std::uint32_t kDim = 8;
  graph::ModelGraph model(kVocab, kDim);
  for (std::uint32_t w = 0; w < kVocab; ++w) {
    auto row = model.mutableRow(graph::Label::kEmbedding, w);
    for (std::uint32_t d = 0; d < kDim; ++d)
      row[d] = (d == w % 4) ? 1.0f : 0.1f * static_cast<float>(w % 4);
  }
  const EmbeddingSnapshot snap(model, nullptr, 1);

  std::vector<float> q(kDim, 0.0f);
  q[2] = 1.0f;
  const std::vector<float> nq = normalizedCopy(q);
  const TopKQuery tq{nq.data(), 12, {}};

  const auto single = topkScore(snap.rows(), snap.rowStride(), kVocab, 0, kDim, {&tq, 1})[0];
  ASSERT_EQ(single.size(), 12u);
  for (std::size_t i = 1; i < single.size(); ++i) {
    ASSERT_FALSE(better(single[i], single[i - 1]));
    if (single[i].score == single[i - 1].score) {
      EXPECT_LT(single[i - 1].id, single[i].id);
    }
  }
  for (const unsigned numHosts : {2u, 3u, 5u, 8u}) {
    const auto sharded = shardedTopK(snap, numHosts, tq);
    ASSERT_EQ(sharded.size(), single.size()) << "H=" << numHosts;
    for (std::size_t i = 0; i < single.size(); ++i) {
      EXPECT_EQ(sharded[i].id, single[i].id) << "H=" << numHosts << " pos=" << i;
      EXPECT_EQ(sharded[i].score, single[i].score);
    }
  }
}

TEST(ServeTopK, KLargerThanVocabReturnsEverything) {
  graph::ModelGraph model(5, 4);
  model.randomizeEmbeddings(3);
  const EmbeddingSnapshot snap(model, nullptr, 1);
  const std::vector<float> q = normalizedCopy(snap.row(0));
  const TopKQuery tq{q.data(), 100, {}};
  const auto lists = topkScore(snap.rows(), snap.rowStride(), 5, 0, 4, {&tq, 1});
  EXPECT_EQ(lists[0].size(), 5u);
}

TEST(ServeTopK, KZeroReturnsNothing) {
  graph::ModelGraph model(5, 4);
  model.randomizeEmbeddings(3);
  const EmbeddingSnapshot snap(model, nullptr, 1);
  const std::vector<float> q = normalizedCopy(snap.row(0));
  const TopKQuery tq{q.data(), 0, {}};
  EXPECT_TRUE(topkScore(snap.rows(), snap.rowStride(), 5, 0, 4, {&tq, 1})[0].empty());
}

TEST(ServeTopK, ExcludedIdsNeverAppear) {
  constexpr std::uint32_t kVocab = 40;
  graph::ModelGraph model(kVocab, 6);
  model.randomizeEmbeddings(9);
  const EmbeddingSnapshot snap(model, nullptr, 1);
  std::vector<text::WordId> exclude = {0, 3, 7, 19, 39};
  const std::vector<float> q = normalizedCopy(snap.row(3));
  const TopKQuery tq{q.data(), kVocab, exclude};
  const auto top = topkScore(snap.rows(), snap.rowStride(), kVocab, 0, 6, {&tq, 1})[0];
  EXPECT_EQ(top.size(), kVocab - exclude.size());
  for (const auto& c : top)
    EXPECT_FALSE(std::binary_search(exclude.begin(), exclude.end(), c.id));
}

TEST(ServeTopK, BatchedQueriesMatchOneByOne) {
  // dot4 blocking (5 queries = one quad + tail) must give the same answers
  // as five independent single-query scans.
  constexpr std::uint32_t kVocab = 64;
  constexpr std::uint32_t kDim = 24;
  graph::ModelGraph model(kVocab, kDim);
  model.randomizeEmbeddings(21);
  const EmbeddingSnapshot snap(model, nullptr, 1);

  std::vector<std::vector<float>> qs;
  for (std::uint32_t w = 0; w < 5; ++w) qs.push_back(normalizedCopy(snap.row(w * 7)));
  std::vector<TopKQuery> batch;
  for (const auto& q : qs) batch.push_back({q.data(), 8, {}});

  const auto together = topkScore(snap.rows(), snap.rowStride(), kVocab, 0, kDim, batch);
  ASSERT_EQ(together.size(), 5u);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto alone =
        topkScore(snap.rows(), snap.rowStride(), kVocab, 0, kDim, {&batch[i], 1})[0];
    ASSERT_EQ(together[i].size(), alone.size());
    for (std::size_t j = 0; j < alone.size(); ++j) {
      EXPECT_EQ(together[i][j].id, alone[j].id);
      EXPECT_EQ(together[i][j].score, alone[j].score);
    }
  }
}

TEST(ServeTopK, MergeOfEmptyPartsIsEmpty) {
  std::vector<std::vector<Candidate>> parts(4);
  EXPECT_TRUE(mergeTopK(parts, 10).empty());
}

TEST(ServeTopK, NormalizedCopyZeroVectorPassesThrough) {
  const std::vector<float> z(8, 0.0f);
  const auto out = normalizedCopy(z);
  for (const float x : out) EXPECT_EQ(x, 0.0f);
}

TEST(ServeTopK, ShardRangesCoverVocabularyExactly) {
  graph::ModelGraph model(101, 4);
  const EmbeddingSnapshot snap(model, nullptr, 1);
  for (const unsigned numHosts : {1u, 2u, 4u, 8u}) {
    std::uint32_t covered = 0;
    std::uint32_t prevHi = 0;
    for (unsigned h = 0; h < numHosts; ++h) {
      ShardedIndex shard(snap, h, numHosts);
      EXPECT_EQ(shard.lo(), prevHi);
      covered += shard.numRows();
      prevHi = shard.hi();
    }
    EXPECT_EQ(covered, 101u);
    EXPECT_EQ(prevHi, 101u);
  }
}

}  // namespace
}  // namespace gw2v::serve
