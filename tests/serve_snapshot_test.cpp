#include "serve/snapshot.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>

#include "graph/model_io.h"
#include "serve/query_engine.h"
#include "sim/cluster.h"
#include "text/vocabulary.h"
#include "util/rng.h"

namespace gw2v::serve {
namespace {

std::string tempPath(const char* name) { return ::testing::TempDir() + "/" + name; }

text::Vocabulary makeVocab(std::uint32_t n) {
  text::Vocabulary v;
  for (std::uint32_t i = 0; i < n; ++i) v.addCount("w" + std::to_string(i), 1000 - i);
  v.finalize(1);
  return v;
}

TEST(EmbeddingSnapshot, NormalizesRowsIntoPaddedAlignedMatrix) {
  graph::ModelGraph model(5, 7);
  model.randomizeEmbeddings(2);
  const EmbeddingSnapshot snap(model, nullptr, 3);

  EXPECT_EQ(snap.version(), 3u);
  EXPECT_EQ(snap.vocabSize(), 5u);
  EXPECT_EQ(snap.dim(), 7u);
  EXPECT_EQ(snap.rowStride() % 16, 0u);  // 64B-aligned stride
  EXPECT_GE(snap.rowStride(), 7u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(snap.rows()) % 64, 0u);
  EXPECT_EQ(snap.matrixBytes(), 5u * snap.rowStride() * sizeof(float));

  for (std::uint32_t w = 0; w < 5; ++w) {
    double n2 = 0.0;
    for (const float x : snap.row(w)) n2 += static_cast<double>(x) * x;
    EXPECT_NEAR(n2, 1.0, 1e-5) << "row " << w;
  }
  EXPECT_FALSE(snap.hasVocab());
  EXPECT_THROW(snap.vocab(), std::logic_error);
}

TEST(EmbeddingSnapshot, ZeroRowSurvivesNormalization) {
  graph::ModelGraph model(2, 4);  // rows default to zero
  const EmbeddingSnapshot snap(model, nullptr, 1);
  for (const float x : snap.row(0)) EXPECT_EQ(x, 0.0f);
}

TEST(EmbeddingSnapshot, CarriesVocabularyWhenGiven) {
  graph::ModelGraph model(6, 4);
  const text::Vocabulary vocab = makeVocab(6);
  const EmbeddingSnapshot snap(model, &vocab, 1);
  ASSERT_TRUE(snap.hasVocab());
  EXPECT_EQ(snap.vocab().size(), 6u);
  EXPECT_EQ(snap.vocab().wordOf(0), "w0");
}

TEST(EmbeddingSnapshot, VocabSizeMismatchThrows) {
  graph::ModelGraph model(6, 4);
  const text::Vocabulary vocab = makeVocab(4);
  EXPECT_THROW(EmbeddingSnapshot(model, &vocab, 1), std::invalid_argument);
}

TEST(EmbeddingSnapshot, FromCheckpointFileRoundTrips) {
  graph::ModelGraph model(9, 5);
  model.randomizeEmbeddings(8);
  const text::Vocabulary vocab = makeVocab(9);
  const std::string path = tempPath("gw2v_serve_snap.bin");
  graph::saveCheckpoint(path, model, &vocab);

  const auto snap = EmbeddingSnapshot::fromCheckpointFile(path, 7);
  EXPECT_EQ(snap->version(), 7u);
  EXPECT_EQ(snap->vocabSize(), 9u);
  EXPECT_EQ(snap->dim(), 5u);
  ASSERT_TRUE(snap->hasVocab());
  EXPECT_EQ(snap->vocab().idOf("w3"), std::optional<text::WordId>(3u));

  // Rows equal an in-memory snapshot of the same model, bit for bit.
  const EmbeddingSnapshot direct(model, nullptr, 7);
  for (std::uint32_t w = 0; w < 9; ++w) {
    const auto a = snap->row(w);
    const auto b = direct.row(w);
    for (std::uint32_t d = 0; d < 5; ++d) ASSERT_EQ(a[d], b[d]);
  }
  std::remove(path.c_str());
}

TEST(EmbeddingSnapshot, FromCheckpointFileRejectsVocabLessFile) {
  graph::ModelGraph model(4, 3);
  const std::string path = tempPath("gw2v_serve_snap_novocab.bin");
  graph::saveCheckpoint(path, model);  // v2 but no vocab section
  try {
    EmbeddingSnapshot::fromCheckpointFile(path, 1);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("vocabulary"), std::string::npos);
  }
  std::remove(path.c_str());
}

void expectMatricesBitIdentical(const EmbeddingSnapshot& a, const EmbeddingSnapshot& b) {
  ASSERT_EQ(a.vocabSize(), b.vocabSize());
  ASSERT_EQ(a.rowStride(), b.rowStride());
  ASSERT_EQ(0, std::memcmp(a.rows(), b.rows(), a.matrixBytes()));
}

TEST(EmbeddingSnapshot, IncrementalBuildMatchesFullBuild) {
  graph::ModelGraph model(40, 6);
  model.randomizeEmbeddings(11);
  auto prev = EmbeddingSnapshot::fromModel(model, nullptr, 1);
  model.clearTouched();  // as a sync round would

  for (std::uint32_t n = 0; n < 40; n += 3) model.mutableRow(graph::Label::kEmbedding, n)[0] += 0.5f;
  model.clearTouched();

  const auto inc = EmbeddingSnapshot::fromModel(model, nullptr, 2, *prev);
  const auto full = EmbeddingSnapshot::fromModel(model, nullptr, 2);
  EXPECT_EQ(inc->version(), 2u);
  EXPECT_EQ(inc->modelTableVersion(), full->modelTableVersion());
  expectMatricesBitIdentical(*full, *inc);
}

/// Property: chained incremental publishes over random dirty sets — with
/// builds landing both between and in the middle of rounds — stay
/// bit-identical to from-scratch builds.
TEST(EmbeddingSnapshot, IncrementalChainOverRandomDirtySetsMatchesFromScratch) {
  constexpr std::uint32_t kWords = 300;
  constexpr std::uint32_t kDim = 12;
  graph::ModelGraph model(kWords, kDim);
  model.randomizeEmbeddings(3);
  util::Rng rng(0xabcdefULL);

  auto prev = EmbeddingSnapshot::fromModel(model, nullptr, 1);
  for (std::uint64_t round = 0; round < 12; ++round) {
    const unsigned touches = static_cast<unsigned>(rng.bounded(2 * kWords));
    for (unsigned k = 0; k < touches; ++k) {
      const auto n = static_cast<std::uint32_t>(rng.bounded(kWords));
      const auto label = rng.bounded(2) == 0 ? graph::Label::kEmbedding : graph::Label::kTraining;
      auto row = model.mutableRow(label, n);
      row[rng.bounded(kDim)] += rng.uniformFloat(-0.3f, 0.3f);
    }
    // Half the builds land mid-round (dirty set populated), half after the
    // round's clearTouched — both must be safe for the next incremental.
    if (rng.bounded(2) == 0) model.clearTouched();
    const auto inc = EmbeddingSnapshot::fromModel(model, nullptr, round + 2, *prev);
    const auto full = EmbeddingSnapshot::fromModel(model, nullptr, round + 2);
    expectMatricesBitIdentical(*full, *inc);
    prev = inc;
  }
}

TEST(EmbeddingSnapshot, IncrementalFallsBackToFullOnShapeMismatch) {
  graph::ModelGraph small(8, 4);
  small.randomizeEmbeddings(1);
  const auto prev = EmbeddingSnapshot::fromModel(small, nullptr, 1);

  graph::ModelGraph big(16, 4);
  big.randomizeEmbeddings(2);
  const auto inc = EmbeddingSnapshot::fromModel(big, nullptr, 2, *prev);
  const auto full = EmbeddingSnapshot::fromModel(big, nullptr, 2);
  expectMatricesBitIdentical(*full, *inc);
}

/// A diverged model: one element of embedding row `row` set to `bad`.
void poisonRow(graph::ModelGraph& model, std::uint32_t row, float bad) {
  model.mutableRow(graph::Label::kEmbedding, row)[2] = bad;
  model.clearTouched();
}

void expectRejectsRow(const std::function<void()>& build, const std::string& what) {
  try {
    build();
    ADD_FAILURE() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos) << e.what();
  }
}

const float kNonFinite[] = {std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity()};

TEST(EmbeddingSnapshot, NonFiniteRowFailsTheFullBuild) {
  for (const float bad : kNonFinite) {
    graph::ModelGraph model(12, 6);
    model.randomizeEmbeddings(5);
    poisonRow(model, 7, bad);
    expectRejectsRow([&] { (void)EmbeddingSnapshot::fromModel(model, nullptr, 4); },
                     "row 7 of version 4");
    expectRejectsRow(
        [&] { (void)EmbeddingSnapshot::fromModel(model, nullptr, 4, AnnBuildOptions{}); },
        "row 7 of version 4");
  }
}

TEST(EmbeddingSnapshot, NonFiniteRowFailsTheIncrementalBuild) {
  for (const float bad : kNonFinite) {
    graph::ModelGraph model(12, 6);
    model.randomizeEmbeddings(5);
    const auto prev = EmbeddingSnapshot::fromModel(model, nullptr, 1);
    model.clearTouched();
    poisonRow(model, 9, bad);
    expectRejectsRow([&] { (void)EmbeddingSnapshot::fromModel(model, nullptr, 2, *prev); },
                     "row 9 of version 2");
  }
}

TEST(EmbeddingSnapshot, OverflowingSquaresFailTheBuild) {
  graph::ModelGraph model(4, 3);
  model.randomizeEmbeddings(5);
  auto row = model.mutableRow(graph::Label::kEmbedding, 1);
  for (float& x : row) x = 1e20f;  // finite, but x*x is not
  expectRejectsRow([&] { (void)EmbeddingSnapshot::fromModel(model, nullptr, 3); },
                   "row 1 of version 3");
}

TEST(EmbeddingSnapshot, NonFiniteRowFailsTheCheckpointBuild) {
  graph::ModelGraph model(6, 4);
  model.randomizeEmbeddings(8);
  poisonRow(model, 4, std::numeric_limits<float>::quiet_NaN());
  const text::Vocabulary vocab = makeVocab(6);
  const std::string path = tempPath("gw2v_serve_snap_nan.bin");
  graph::saveCheckpoint(path, model, &vocab);
  expectRejectsRow([&] { (void)EmbeddingSnapshot::fromCheckpointFile(path, 5); },
                   "row 4 of version 5");
  std::remove(path.c_str());
}

TEST(SnapshotStore, RejectedBuildLeavesThePreviousVersionServing) {
  graph::ModelGraph model(30, 6);
  model.randomizeEmbeddings(21);
  const text::Vocabulary vocab = makeVocab(30);
  SnapshotStore store(4);
  store.publish(EmbeddingSnapshot::fromModel(model, &vocab, 1));
  model.clearTouched();

  ServeOptions opts;
  opts.cacheCapacity = 0;  // every query runs a round against the pinned version
  sim::ClusterOptions copts;
  copts.numHosts = 2;
  sim::runCluster(copts, [&](comm::RankContext& ctx) {
    QueryEngine(ctx.transport(), ctx.id(), store, opts).runWithClient([&](QueryEngine& engine) {
      const QueryResult before = engine.queryWord(3, 5);
      ASSERT_EQ(before.version, 1u);

      poisonRow(model, 11, std::numeric_limits<float>::quiet_NaN());
      EXPECT_THROW(store.publish(EmbeddingSnapshot::fromModel(model, &vocab, 2, *store.current())),
                   std::invalid_argument);
      EXPECT_EQ(store.currentVersion(), 1u);
      EXPECT_EQ(store.pin(2)->version(), 1u);

      const QueryResult after = engine.queryWord(3, 5);
      EXPECT_EQ(after.version, 1u);
      ASSERT_EQ(after.neighbors.size(), before.neighbors.size());
      for (std::size_t i = 0; i < before.neighbors.size(); ++i) {
        EXPECT_EQ(after.neighbors[i].id, before.neighbors[i].id);
        EXPECT_EQ(after.neighbors[i].score, before.neighbors[i].score);
      }
      EXPECT_EQ(engine.queryWord(11, 5).version, 1u);
    });
  });
}

TEST(SnapshotStore, CurrentReturnsThePublishedSnapshot) {
  SnapshotStore store(2);
  EXPECT_EQ(store.current(), nullptr);
  graph::ModelGraph model(5, 4);
  model.randomizeEmbeddings(9);
  store.publish(EmbeddingSnapshot::fromModel(model, nullptr, 1));
  auto cur = store.current();
  ASSERT_NE(cur, nullptr);
  EXPECT_EQ(cur->version(), 1u);

  // The natural incremental chain: current() as prev for the next publish.
  model.mutableRow(graph::Label::kEmbedding, 2)[1] += 1.0f;
  model.clearTouched();
  store.publish(EmbeddingSnapshot::fromModel(model, nullptr, 2, *cur));
  EXPECT_EQ(store.current()->version(), 2u);
  expectMatricesBitIdentical(*EmbeddingSnapshot::fromModel(model, nullptr, 2),
                             *store.current());
}

TEST(SnapshotStore, PinBeforePublishIsEmpty) {
  SnapshotStore store(4);
  EXPECT_EQ(store.currentVersion(), 0u);
  auto pin = store.pin(0);
  EXPECT_FALSE(pin);
  EXPECT_EQ(pin.get(), nullptr);
}

TEST(SnapshotStore, PublishAndPin) {
  SnapshotStore store(4);
  graph::ModelGraph model(3, 4);
  store.publish(std::make_shared<const EmbeddingSnapshot>(model, nullptr, 1));
  EXPECT_EQ(store.currentVersion(), 1u);
  auto pin = store.pin(2);
  ASSERT_TRUE(pin);
  EXPECT_EQ(pin->version(), 1u);
  EXPECT_EQ(store.retainedCount(), 1u);
}

TEST(SnapshotStore, PublishRequiresStrictlyIncreasingVersions) {
  SnapshotStore store(2);
  graph::ModelGraph model(3, 4);
  store.publish(std::make_shared<const EmbeddingSnapshot>(model, nullptr, 5));
  EXPECT_THROW(store.publish(std::make_shared<const EmbeddingSnapshot>(model, nullptr, 5)),
               std::invalid_argument);
  EXPECT_THROW(store.publish(std::make_shared<const EmbeddingSnapshot>(model, nullptr, 4)),
               std::invalid_argument);
  EXPECT_THROW(store.publish(nullptr), std::invalid_argument);
}

TEST(SnapshotStore, PinnedRetireeSurvivesPublishUnpinnedIsReclaimed) {
  SnapshotStore store(4);
  graph::ModelGraph model(3, 4);
  store.publish(std::make_shared<const EmbeddingSnapshot>(model, nullptr, 1));

  auto pin = store.pin(0);
  ASSERT_TRUE(pin);
  const EmbeddingSnapshot* v1 = pin.get();

  store.publish(std::make_shared<const EmbeddingSnapshot>(model, nullptr, 2));
  // v1 is pinned: still retained; the pinned pointer still reads version 1.
  EXPECT_EQ(store.retainedCount(), 2u);
  EXPECT_EQ(pin->version(), 1u);
  EXPECT_EQ(pin.get(), v1);
  // A fresh pin sees version 2.
  EXPECT_EQ(store.pin(1)->version(), 2u);

  pin.release();
  EXPECT_FALSE(pin);
  // The next publish reclaims the now-unpinned v1 (and unpinned v2).
  store.publish(std::make_shared<const EmbeddingSnapshot>(model, nullptr, 3));
  EXPECT_EQ(store.retainedCount(), 1u);
}

TEST(SnapshotStore, PinIsValidatedAgainstReaderRange) {
  SnapshotStore store(2);
  EXPECT_THROW(store.pin(2), std::invalid_argument);
  EXPECT_THROW(SnapshotStore(0), std::invalid_argument);
}

TEST(SnapshotStore, MovedPinTransfersTheHazard) {
  SnapshotStore store(2);
  graph::ModelGraph model(3, 4);
  store.publish(std::make_shared<const EmbeddingSnapshot>(model, nullptr, 1));
  auto a = store.pin(0);
  auto b = std::move(a);
  EXPECT_FALSE(a);
  ASSERT_TRUE(b);
  EXPECT_EQ(b->version(), 1u);
  b.release();
  // Slot is free again: re-pinning with the same readerId must work.
  auto c = store.pin(0);
  EXPECT_TRUE(c);
}

}  // namespace
}  // namespace gw2v::serve
