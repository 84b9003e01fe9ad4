#include "graph/model_io.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <vector>

#include "text/vocabulary.h"

namespace gw2v::graph {
namespace {

std::string tempPath(const char* name) { return ::testing::TempDir() + "/" + name; }

TEST(ModelIo, RoundTripBitExact) {
  ModelGraph model(17, 5);
  model.randomizeEmbeddings(3);
  for (std::uint32_t n = 0; n < 17; ++n) {
    auto t = model.mutableRow(Label::kTraining, n);
    for (std::uint32_t d = 0; d < 5; ++d) t[d] = static_cast<float>(n) * 0.1f + d;
  }
  const std::string path = tempPath("gw2v_ckpt_roundtrip.bin");
  saveCheckpoint(path, model);
  const ModelGraph loaded = loadCheckpoint(path);
  ASSERT_EQ(loaded.numNodes(), 17u);
  ASSERT_EQ(loaded.dim(), 5u);
  for (int l = 0; l < kNumLabels; ++l) {
    for (std::uint32_t n = 0; n < 17; ++n) {
      const auto a = model.row(static_cast<Label>(l), n);
      const auto b = loaded.row(static_cast<Label>(l), n);
      for (std::uint32_t d = 0; d < 5; ++d) ASSERT_EQ(a[d], b[d]);
    }
  }
  std::remove(path.c_str());
}

TEST(ModelIo, MissingFileThrows) {
  EXPECT_THROW(loadCheckpoint("/nonexistent/gw2v.ckpt"), std::runtime_error);
}

TEST(ModelIo, BadMagicThrows) {
  const std::string path = tempPath("gw2v_ckpt_badmagic.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "NOTMAGIC0123456789";
  }
  EXPECT_THROW(loadCheckpoint(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(ModelIo, TruncatedThrows) {
  ModelGraph model(8, 4);
  model.randomizeEmbeddings(1);
  const std::string path = tempPath("gw2v_ckpt_trunc.bin");
  saveCheckpoint(path, model);
  // Chop the last 10 bytes.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  EXPECT_EQ(truncate(path.c_str(), size - 10), 0);
  EXPECT_THROW(loadCheckpoint(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(ModelIo, TrailingBytesThrow) {
  ModelGraph model(2, 2);
  const std::string path = tempPath("gw2v_ckpt_trailing.bin");
  saveCheckpoint(path, model);
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "junk";
  }
  EXPECT_THROW(loadCheckpoint(path), std::runtime_error);
  std::remove(path.c_str());
}

// ---- v2: embedded vocabulary section ----

text::Vocabulary makeVocab(std::uint32_t n) {
  text::Vocabulary v;
  for (std::uint32_t i = 0; i < n; ++i) v.addCount("w" + std::to_string(i), 1000 - i);
  v.finalize(1);
  return v;
}

void patchBytes(const std::string& path, long offset, const void* data, std::size_t n) {
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  ASSERT_EQ(std::fwrite(data, 1, n, f), n);
  std::fclose(f);
}

TEST(ModelIoV2, VocabRoundTrips) {
  ModelGraph model(9, 4);
  model.randomizeEmbeddings(7);
  const text::Vocabulary vocab = makeVocab(9);
  const std::string path = tempPath("gw2v_ckpt_v2.bin");
  saveCheckpoint(path, model, &vocab);

  const Checkpoint ck = loadCheckpointFull(path);
  ASSERT_TRUE(ck.vocab.has_value());
  ASSERT_EQ(ck.vocab->size(), 9u);
  for (std::uint32_t w = 0; w < 9; ++w) {
    EXPECT_EQ(ck.vocab->wordOf(w), vocab.wordOf(w));
    EXPECT_EQ(ck.vocab->countOf(w), vocab.countOf(w));
  }
  for (std::uint32_t n = 0; n < 9; ++n) {
    const auto a = model.row(Label::kEmbedding, n);
    const auto b = ck.model.row(Label::kEmbedding, n);
    for (std::uint32_t d = 0; d < 4; ++d) ASSERT_EQ(a[d], b[d]);
  }
  // Model-only loads still work on a v2-with-vocab file.
  EXPECT_EQ(loadCheckpoint(path).numNodes(), 9u);
  std::remove(path.c_str());
}

TEST(ModelIoV2, ModelOnlySaveHasNoVocab) {
  ModelGraph model(4, 3);
  const std::string path = tempPath("gw2v_ckpt_v2_novocab.bin");
  saveCheckpoint(path, model);
  EXPECT_FALSE(loadCheckpointFull(path).vocab.has_value());
  std::remove(path.c_str());
}

TEST(ModelIoV2, VocabSizeMismatchThrows) {
  ModelGraph model(9, 4);
  const text::Vocabulary vocab = makeVocab(5);
  EXPECT_THROW(saveCheckpoint(tempPath("gw2v_ckpt_v2_mismatch.bin"), model, &vocab),
               std::invalid_argument);
}

TEST(ModelIoV2, Version1FileStillLoads) {
  // Handwritten v1 image: magic, version=1, nodes=3, dim=2, then the row
  // payload with NO vocab flag between header and rows.
  const std::string path = tempPath("gw2v_ckpt_v1.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out.write("GW2VCKPT", 8);
    const std::uint32_t header[3] = {1, 3, 2};  // version, nodes, dim
    out.write(reinterpret_cast<const char*>(header), sizeof(header));
    float rows[kNumLabels * 3 * 2];
    for (std::size_t i = 0; i < std::size(rows); ++i) rows[i] = static_cast<float>(i);
    out.write(reinterpret_cast<const char*>(rows), sizeof(rows));
  }
  const Checkpoint ck = loadCheckpointFull(path);
  EXPECT_FALSE(ck.vocab.has_value());
  ASSERT_EQ(ck.model.numNodes(), 3u);
  ASSERT_EQ(ck.model.dim(), 2u);
  EXPECT_EQ(ck.model.row(Label::kEmbedding, 0)[0], 0.0f);
  EXPECT_EQ(ck.model.row(Label::kTraining, 2)[1], 11.0f);
  std::remove(path.c_str());
}

// Byte layout of the v2 preamble (see model_io.cpp): magic 8 + version 4 +
// nodes 4 + dim 4 + hasVocab 4 = 24, then per word: len u32, bytes, count u64.
constexpr long kVocabSectionStart = 24;

TEST(ModelIoV2, DuplicateWordInVocabSectionThrows) {
  ModelGraph model(2, 2);
  text::Vocabulary vocab;
  vocab.addCount("aa", 10);
  vocab.addCount("bb", 5);
  vocab.finalize(1);
  const std::string path = tempPath("gw2v_ckpt_v2_dup.bin");
  saveCheckpoint(path, model, &vocab);
  // Word records: "aa" at 24 (len 4 + 2 bytes + count 8), "bb"'s characters
  // at 24 + 14 + 4. Turning "bb" into "aa" makes finalize() merge the two
  // entries, so the rebuilt vocabulary can't reproduce the stored section.
  patchBytes(path, kVocabSectionStart + 14 + 4, "aa", 2);
  EXPECT_THROW(loadCheckpointFull(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(ModelIoV2, ZeroCountInVocabSectionThrows) {
  ModelGraph model(2, 2);
  text::Vocabulary vocab;
  vocab.addCount("aa", 10);
  vocab.addCount("bb", 5);
  vocab.finalize(1);
  const std::string path = tempPath("gw2v_ckpt_v2_zerocount.bin");
  saveCheckpoint(path, model, &vocab);
  const std::uint64_t zero = 0;
  patchBytes(path, kVocabSectionStart + 4 + 2, &zero, sizeof(zero));  // "aa"'s count
  EXPECT_THROW(loadCheckpointFull(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(ModelIoV2, TruncatedVocabSectionThrows) {
  ModelGraph model(2, 2);
  text::Vocabulary vocab;
  vocab.addCount("aa", 10);
  vocab.addCount("bb", 5);
  vocab.finalize(1);
  const std::string path = tempPath("gw2v_ckpt_v2_truncvocab.bin");
  saveCheckpoint(path, model, &vocab);
  // Cut inside the second word record (before any embedding rows).
  EXPECT_EQ(truncate(path.c_str(), kVocabSectionStart + 14 + 2), 0);
  EXPECT_THROW(loadCheckpointFull(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(ModelIo, Version3IsUnsupported) {
  // Version 3 (a blocked payload layout) is retired: such a file is refused
  // before any payload is read.
  ModelGraph model(4, 2);
  const std::string path = tempPath("gw2v_ckpt_v3.bin");
  saveCheckpoint(path, model);
  const std::uint32_t version = 3;
  patchBytes(path, 8, &version, sizeof(version));  // right after the magic
  try {
    (void)loadCheckpoint(path);
    ADD_FAILURE() << "a version-3 checkpoint loaded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported version"), std::string::npos) << e.what();
  }
  std::remove(path.c_str());
}

TEST(ModelIo, ZeroNodeModelRoundTrips) {
  ModelGraph model(0, 3);
  const std::string path = tempPath("gw2v_ckpt_empty.bin");
  saveCheckpoint(path, model);
  const ModelGraph loaded = loadCheckpoint(path);
  EXPECT_EQ(loaded.numNodes(), 0u);
  EXPECT_EQ(loaded.dim(), 3u);
  std::remove(path.c_str());
}

// ---- crash safety: atomic tmp+rename saves ----

std::vector<char> fileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(ModelIoCrash, TornHeaderThrows) {
  // A file cut mid-header (valid magic, incomplete version field) — the
  // state a non-atomic writer could have left behind.
  const std::string path = tempPath("gw2v_ckpt_torn.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out.write("GW2VCKPT\x02", 9);
  }
  EXPECT_THROW(loadCheckpoint(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(ModelIoCrash, SaveLeavesNoTmpBehind) {
  ModelGraph model(6, 3);
  model.randomizeEmbeddings(4);
  const std::string path = tempPath("gw2v_ckpt_atomic.bin");
  saveCheckpoint(path, model);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(ModelIoCrash, PartialWriteThenRenameRecovery) {
  // Simulated crash mid-save: a good checkpoint at `path` plus a partial
  // .tmp from a writer that died before its rename. The good file must load
  // untouched, and a fresh save must clobber the stray .tmp.
  ModelGraph model(6, 3);
  model.randomizeEmbeddings(4);
  const std::string path = tempPath("gw2v_ckpt_crash.bin");
  saveCheckpoint(path, model);
  const auto goodBytes = fileBytes(path);
  {
    std::ofstream out(path + ".tmp", std::ios::binary);
    out.write("GW2VCKPT\x02\x00\x00\x00 partial", 20);
  }
  EXPECT_EQ(loadCheckpoint(path).numNodes(), 6u);
  EXPECT_EQ(fileBytes(path), goodBytes);

  saveCheckpoint(path, model);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_EQ(fileBytes(path), goodBytes);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gw2v::graph
