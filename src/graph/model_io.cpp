#include "graph/model_io.h"

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <vector>

namespace gw2v::graph {

namespace {
constexpr char kMagic[8] = {'G', 'W', '2', 'V', 'C', 'K', 'P', 'T'};
constexpr std::uint32_t kVersion = 2;
/// Longest word the vocabulary section will accept; anything bigger is a
/// corrupt length field, not a plausible token.
constexpr std::uint32_t kMaxWordBytes = 1u << 16;

struct FileCloser {
  void operator()(std::FILE* f) const noexcept { std::fclose(f); }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

void writeOrThrow(std::FILE* f, const void* data, std::size_t bytes) {
  if (bytes != 0 && std::fwrite(data, 1, bytes, f) != bytes)
    throw std::runtime_error("saveCheckpoint: write failed");
}

void readOrThrow(std::FILE* f, void* data, std::size_t bytes, const std::string& path) {
  if (bytes != 0 && std::fread(data, 1, bytes, f) != bytes)
    throw std::runtime_error("loadCheckpoint: truncated file " + path);
}

/// Magic, version, shape, optional vocabulary.
void writePrefix(std::FILE* f, const ModelGraph& model, const text::Vocabulary* vocab) {
  const std::uint32_t header[2] = {model.numNodes(), model.dim()};
  const std::uint32_t hasVocab = vocab != nullptr ? 1 : 0;
  writeOrThrow(f, kMagic, sizeof(kMagic));
  writeOrThrow(f, &kVersion, sizeof(kVersion));
  writeOrThrow(f, header, sizeof(header));
  writeOrThrow(f, &hasVocab, sizeof(hasVocab));
  if (vocab != nullptr) {
    for (text::WordId w = 0; w < vocab->size(); ++w) {
      const std::string& word = vocab->wordOf(w);
      const std::uint32_t len = static_cast<std::uint32_t>(word.size());
      const std::uint64_t count = vocab->countOf(w);
      writeOrThrow(f, &len, sizeof(len));
      writeOrThrow(f, word.data(), word.size());
      writeOrThrow(f, &count, sizeof(count));
    }
  }
}

/// Crash-safe writer shell: stage at path+".tmp", fsync, rename over path.
template <typename Body>
void saveAtomically(const std::string& path, const Body& body) {
  const std::string tmp = path + ".tmp";
  {
    File f(std::fopen(tmp.c_str(), "wb"));
    if (!f) throw std::runtime_error("saveCheckpoint: cannot open " + tmp);
    body(f.get());
    if (std::fflush(f.get()) != 0 || ::fsync(::fileno(f.get())) != 0)
      throw std::runtime_error("saveCheckpoint: fsync failed for " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0)
    throw std::runtime_error("saveCheckpoint: rename to " + path + " failed");
}

void checkVocabShape(const ModelGraph& model, const text::Vocabulary* vocab) {
  if (vocab != nullptr && vocab->size() != model.numNodes()) {
    throw std::invalid_argument("saveCheckpoint: vocabulary size " +
                                std::to_string(vocab->size()) + " != model nodes " +
                                std::to_string(model.numNodes()));
  }
}
}  // namespace

void saveCheckpoint(const std::string& path, const ModelGraph& model,
                    const text::Vocabulary* vocab) {
  checkVocabShape(model, vocab);
  saveAtomically(path, [&](std::FILE* f) {
    writePrefix(f, model, vocab);
    for (int l = 0; l < kNumLabels; ++l) {
      for (std::uint32_t n = 0; n < model.numNodes(); ++n) {
        const auto row = model.row(static_cast<Label>(l), n);
        writeOrThrow(f, row.data(), row.size_bytes());
      }
    }
  });
}

Checkpoint loadCheckpointFull(const std::string& path) {
  File f(std::fopen(path.c_str(), "rb"));
  if (!f) throw std::runtime_error("loadCheckpoint: cannot open " + path);
  char magic[8];
  std::uint32_t version = 0;
  std::uint32_t header[2] = {0, 0};
  if (std::fread(magic, 1, sizeof(magic), f.get()) != sizeof(magic) ||
      std::memcmp(magic, kMagic, sizeof(magic)) != 0) {
    throw std::runtime_error("loadCheckpoint: bad magic in " + path);
  }
  readOrThrow(f.get(), &version, sizeof(version), path);
  if (version == 0 || version > kVersion)
    throw std::runtime_error("loadCheckpoint: unsupported version in " + path);
  readOrThrow(f.get(), header, sizeof(header), path);
  if (header[1] == 0) throw std::runtime_error("loadCheckpoint: bad header in " + path);

  Checkpoint ck{ModelGraph(header[0], header[1]), std::nullopt};

  if (version >= 2) {
    std::uint32_t hasVocab = 0;
    readOrThrow(f.get(), &hasVocab, sizeof(hasVocab), path);
    if (hasVocab > 1)
      throw std::runtime_error("loadCheckpoint: corrupt vocabulary flag in " + path);
    if (hasVocab == 1) {
      std::vector<std::string> words(header[0]);
      text::Vocabulary vocab;
      for (std::uint32_t w = 0; w < header[0]; ++w) {
        std::uint32_t len = 0;
        readOrThrow(f.get(), &len, sizeof(len), path);
        if (len == 0 || len > kMaxWordBytes)
          throw std::runtime_error("loadCheckpoint: corrupt vocabulary section in " + path);
        words[w].resize(len);
        readOrThrow(f.get(), words[w].data(), len, path);
        std::uint64_t count = 0;
        readOrThrow(f.get(), &count, sizeof(count), path);
        if (count == 0)
          throw std::runtime_error("loadCheckpoint: corrupt vocabulary section in " + path);
        vocab.addCount(words[w], count);
      }
      vocab.finalize(1);
      // finalize() re-sorts by (count desc, word asc) — the exact order ids
      // were assigned in, so a well-formed section reproduces itself.
      // Duplicated or reordered words cannot, and mean corruption.
      if (vocab.size() != header[0])
        throw std::runtime_error("loadCheckpoint: corrupt vocabulary section in " + path);
      for (std::uint32_t w = 0; w < header[0]; ++w) {
        if (vocab.wordOf(w) != words[w])
          throw std::runtime_error("loadCheckpoint: corrupt vocabulary section in " + path);
      }
      ck.vocab = std::move(vocab);
    }
  }

  // Bulk load into a fresh model: nothing to track, no deltas to capture.
  for (int l = 0; l < kNumLabels; ++l) {
    for (std::uint32_t n = 0; n < ck.model.numNodes(); ++n) {
      auto row = ck.model.untrackedRow(static_cast<Label>(l), n);
      readOrThrow(f.get(), row.data(), row.size_bytes(), path);
    }
  }
  // Any trailing bytes indicate corruption.
  char extra;
  if (std::fread(&extra, 1, 1, f.get()) == 1)
    throw std::runtime_error("loadCheckpoint: trailing bytes in " + path);
  return ck;
}

ModelGraph loadCheckpoint(const std::string& path) {
  return loadCheckpointFull(path).model;
}

}  // namespace gw2v::graph
