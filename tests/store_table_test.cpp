#include "store/stored_table.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "graph/model_graph.h"
#include "graph/model_io.h"
#include "serve/snapshot.h"
#include "util/rng.h"

namespace gw2v::store {
namespace {

std::string tempPath(const char* name) { return ::testing::TempDir() + "/" + name; }

/// Two identically-seeded tables so in-RAM and spilled runs start equal.
model::EmbeddingTable randomTable(std::uint32_t rows, std::uint32_t dim, std::uint64_t seed) {
  model::EmbeddingTable t(rows, dim);
  util::Rng rng(seed);
  for (std::uint32_t r = 0; r < rows; ++r) {
    auto row = t.untrackedRow(r);
    for (auto& v : row) v = rng.uniformFloat(-1.0f, 1.0f);
  }
  return t;
}

/// Tight budget so eviction is actually exercised (small blocks, floor 8).
StoreOptions tightOpts(const std::string& path, EvictionPolicy policy = EvictionPolicy::kLru) {
  StoreOptions so;
  so.path = path;
  so.rowsPerBlock = 2;
  so.budgetBytes = 0;  // floored to kMinAttachedBlocks
  so.policy = policy;
  return so;
}

void expectTablesEqual(const model::EmbeddingTable& a, const model::EmbeddingTable& b) {
  ASSERT_EQ(a.numRows(), b.numRows());
  ASSERT_EQ(a.dim(), b.dim());
  for (std::uint32_t r = 0; r < a.numRows(); ++r) {
    const auto ra = a.row(r);
    const auto rb = b.row(r);
    for (std::uint32_t d = 0; d < a.dim(); ++d)
      ASSERT_EQ(ra[d], rb[d]) << "row " << r << " dim " << d;
  }
}

std::vector<char> fileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(StoredTable, SpilledReadsBitIdentical) {
  const std::string path = tempPath("st_reads.blocks");
  model::EmbeddingTable ram = randomTable(50, 7, 11);
  model::EmbeddingTable spilled = ram;
  StoredEmbeddingTable* backend = spillTable(spilled, tightOpts(path));
  ASSERT_TRUE(spilled.spilled());
  ASSERT_NE(backend, nullptr);
  EXPECT_EQ(backend->cache().budgetBlocks(), StoredEmbeddingTable::kMinAttachedBlocks);
  expectTablesEqual(ram, spilled);
  // 25 blocks through 8 frames: the sweep above must have evicted.
  EXPECT_GT(backend->metrics().evictions.load(), 0u);
  std::remove(path.c_str());
}

TEST(StoredTable, TrackingMatchesInRamTwin) {
  const std::string path = tempPath("st_tracking.blocks");
  model::EmbeddingTable ram = randomTable(40, 5, 7);
  model::EmbeddingTable spilled = ram;
  spillTable(spilled, tightOpts(path, EvictionPolicy::kZipfPinned));

  // Same tracked edits on both; interleave reads to force eviction churn.
  auto edit = [](model::EmbeddingTable& t) {
    for (std::uint32_t r = 0; r < 40; r += 3) {
      auto row = t.mutableRow(r);
      row[0] += 1.5f;
      row[t.dim() - 1] = static_cast<float>(r);
      for (std::uint32_t probe = 39; probe >= 7; probe -= 7) (void)t.row(probe);
    }
  };
  edit(ram);
  edit(spilled);

  expectTablesEqual(ram, spilled);
  EXPECT_EQ(ram.dirtyCount(), spilled.dirtyCount());
  // Baselines (DeltaLog captures) must agree too — first-touch capture read
  // the faulted bits, not stale ones.
  for (std::uint32_t r = 0; r < 40; ++r) {
    ASSERT_EQ(ram.isDirty(r), spilled.isDirty(r));
    const auto ba = ram.baselineRow(r);
    const auto bb = spilled.baselineRow(r);
    for (std::uint32_t d = 0; d < 5; ++d) ASSERT_EQ(ba[d], bb[d]);
  }
  // And the delta walk the sync layer does.
  std::vector<float> deltaA, deltaB;
  ram.forEachDelta([&](std::uint32_t, std::span<const float> o, std::span<const float> c) {
    deltaA.insert(deltaA.end(), o.begin(), o.end());
    deltaA.insert(deltaA.end(), c.begin(), c.end());
  });
  spilled.forEachDelta([&](std::uint32_t, std::span<const float> o, std::span<const float> c) {
    deltaB.insert(deltaB.end(), o.begin(), o.end());
    deltaB.insert(deltaB.end(), c.begin(), c.end());
  });
  EXPECT_EQ(deltaA, deltaB);

  // Rebaseline and keep going: round 2 behaves identically as well.
  ram.clearDirty();
  spilled.clearDirty();
  edit(ram);
  edit(spilled);
  expectTablesEqual(ram, spilled);
  EXPECT_EQ(ram.version(), spilled.version());
  std::remove(path.c_str());
}

TEST(StoredTable, DetachRematerializesInRam) {
  const std::string path = tempPath("st_detach.blocks");
  model::EmbeddingTable ram = randomTable(30, 6, 3);
  model::EmbeddingTable spilled = ram;
  spillTable(spilled, tightOpts(path));
  spilled.mutableRow(17)[2] = 99.0f;
  ram.mutableRow(17)[2] = 99.0f;

  spilled.detachStore();
  EXPECT_FALSE(spilled.spilled());
  expectTablesEqual(ram, spilled);
  // Still writable and trackable after detach.
  spilled.mutableRow(3)[0] = 1.0f;
  EXPECT_TRUE(spilled.isDirty(3));
  std::remove(path.c_str());
}

TEST(StoredTable, CopyOfSpilledTableIsInRam) {
  const std::string path = tempPath("st_copy.blocks");
  model::EmbeddingTable spilled = randomTable(20, 4, 9);
  spillTable(spilled, tightOpts(path));
  spilled.mutableRow(5)[1] = -2.0f;

  model::EmbeddingTable copy = spilled;  // deep copy, materialized
  EXPECT_FALSE(copy.spilled());
  EXPECT_TRUE(spilled.spilled());
  expectTablesEqual(spilled, copy);
  EXPECT_TRUE(copy.isDirty(5));
  // Independent storage: writing the copy leaves the original alone.
  copy.untrackedRow(0)[0] = 123.0f;
  EXPECT_NE(spilled.row(0)[0], 123.0f);
  std::remove(path.c_str());
}

TEST(StoredTable, SpillModelSplitsBudgetAcrossLabels) {
  const std::string dir = tempPath("st_model_spill");
  graph::ModelGraph model(64, 4);
  model.randomizeEmbeddings(5);
  StoreOptions so;
  so.rowsPerBlock = 2;
  so.budgetBytes = 1 << 20;
  const ModelSpill spill = spillModel(model, dir, so);
  ASSERT_NE(spill.embedding, nullptr);
  ASSERT_NE(spill.training, nullptr);
  EXPECT_TRUE(model.table(graph::Label::kEmbedding).spilled());
  EXPECT_TRUE(model.table(graph::Label::kTraining).spilled());
  EXPECT_TRUE(std::filesystem::exists(dir + "/embedding.blocks"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/training.blocks"));
  // 1 MB across two labels of 32 blocks each: both clamp to whole-file.
  EXPECT_EQ(spill.embedding->cache().budgetBlocks(), 32u);
  EXPECT_EQ(spill.training->cache().budgetBlocks(), 32u);
  std::filesystem::remove_all(dir);
}

TEST(StoredTable, CheckpointSaveFromSpilledModelIsByteIdentical) {
  const std::string dir = tempPath("st_ckpt_spill");
  graph::ModelGraph ram(48, 6);
  ram.randomizeEmbeddings(21);
  graph::ModelGraph spilled = ram;
  StoreOptions so;
  so.rowsPerBlock = 2;
  spillModel(spilled, dir, so);

  const std::string fromRam = tempPath("st_ckpt_ram.bin");
  const std::string fromSpill = tempPath("st_ckpt_spill.bin");
  graph::saveCheckpoint(fromRam, ram);
  graph::saveCheckpoint(fromSpill, spilled);
  EXPECT_EQ(fileBytes(fromRam), fileBytes(fromSpill));

  std::remove(fromRam.c_str());
  std::remove(fromSpill.c_str());
  std::filesystem::remove_all(dir);
}

TEST(StoredTable, SnapshotFromPartiallyResidentModel) {
  const std::string dir = tempPath("st_snap_spill");
  graph::ModelGraph ram(40, 8);
  ram.randomizeEmbeddings(33);
  graph::ModelGraph spilled = ram;
  StoreOptions so;
  so.rowsPerBlock = 2;
  spillModel(spilled, dir, so);
  // Touch a few rows so the cache holds a strict subset when the snapshot
  // walks every row (partially-resident build).
  for (std::uint32_t r = 0; r < 40; r += 5) (void)spilled.row(graph::Label::kEmbedding, r);

  const auto a = serve::EmbeddingSnapshot::fromModel(ram, nullptr, 1);
  const auto b = serve::EmbeddingSnapshot::fromModel(spilled, nullptr, 1);
  ASSERT_EQ(a->vocabSize(), b->vocabSize());
  const std::size_t floats = static_cast<std::size_t>(a->vocabSize()) * a->rowStride();
  for (std::size_t i = 0; i < floats; ++i) ASSERT_EQ(a->rows()[i], b->rows()[i]);

  // Incremental rebuild after tracked edits stays identical too.
  ram.mutableRow(graph::Label::kEmbedding, 7)[0] += 0.25f;
  spilled.mutableRow(graph::Label::kEmbedding, 7)[0] += 0.25f;
  const auto a2 = serve::EmbeddingSnapshot::fromModel(ram, nullptr, 2, *a);
  const auto b2 = serve::EmbeddingSnapshot::fromModel(spilled, nullptr, 2, *b);
  for (std::size_t i = 0; i < floats; ++i) ASSERT_EQ(a2->rows()[i], b2->rows()[i]);
  std::filesystem::remove_all(dir);
}

TEST(StoredTable, FlushMakesFileCurrent) {
  const std::string path = tempPath("st_flush.blocks");
  model::EmbeddingTable spilled = randomTable(20, 4, 13);
  StoredEmbeddingTable* backend = spillTable(spilled, tightOpts(path));
  spilled.mutableRow(2)[0] = 77.0f;
  backend->flush();

  // The file alone now reproduces the table.
  BlockFile reopened = BlockFile::open(path);
  std::vector<float> block(reopened.blockFloats());
  reopened.readBlock(reopened.blockOfRow(2), block.data());
  EXPECT_EQ(block[0], 77.0f);
  std::remove(path.c_str());
}

TEST(StoredTable, RejectsBadSpills) {
  model::EmbeddingTable empty;
  EXPECT_THROW(spillTable(empty, tightOpts(tempPath("st_bad.blocks"))), std::invalid_argument);
  model::EmbeddingTable t(4, 4);
  StoreOptions noPath;
  EXPECT_THROW(spillTable(t, noPath), std::invalid_argument);
}

}  // namespace
}  // namespace gw2v::store
