// A word2vec.c-style command-line tool on top of the library: train from a
// plain-text file on a simulated cluster, save vectors in the word2vec text
// format, and query nearest neighbours interactively from a saved file.
//
//   ./examples/word2vec_cli train <corpus.txt> <vectors.txt> [options]
//   ./examples/word2vec_cli nn <vectors.txt> <word> [k]
//
// Train options (word2vec.c-compatible spellings where applicable):
//   -size N     embedding dimensionality      (default 100)
//   -window N   context window                (default 5)
//   -negative N negatives; 0 selects HS       (default 5)
//   -sample F   subsampling threshold         (default 1e-4)
//   -alpha F    initial learning rate         (default 0.025)
//   -iter N     epochs                        (default 5)
//   -min-count N                              (default 5)
//   -hosts N    simulated cluster size        (default 1)
//   -cbow 1     CBOW instead of skip-gram     (default 0)
//   -spill-dir D  out-of-core mode: spill each replica's model to block
//                 files under D (src/store/), training bit-identical
//   -cache-mb N   block-cache budget per replica in MB (default 64;
//                 only meaningful with -spill-dir)
//   -stream 1   stream the corpus from disk each epoch through bounded
//               per-host rings instead of materializing it in RAM; same
//               token streams, so same model bits

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/trainer.h"
#include "store/stored_table.h"
#include "eval/embedding_view.h"
#include "eval/vectors_io.h"
#include "text/corpus.h"
#include "text/streaming.h"
#include "text/tokenizer.h"
#include "text/vocabulary.h"

namespace {

using namespace gw2v;

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  word2vec_cli train <corpus.txt> <vectors.txt> [-size N] [-window N]\n"
               "                [-negative N] [-sample F] [-alpha F] [-iter N]\n"
               "                [-min-count N] [-hosts N] [-cbow 1]\n"
               "                [-spill-dir D] [-cache-mb N] [-stream 1]\n"
               "  word2vec_cli nn <vectors.txt> <word> [k]\n");
  return 2;
}

int runTrain(int argc, char** argv) {
  if (argc < 4) return usage();
  const std::string corpusPath = argv[2];
  const std::string vectorsPath = argv[3];

  core::TrainOptions opts;
  opts.sgns.dim = 100;
  opts.sgns.negatives = 5;
  opts.epochs = 5;
  std::uint64_t minCount = 5;
  std::string spillDir;
  std::uint64_t cacheMb = 64;
  bool stream = false;
  for (int i = 4; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* val = argv[i + 1];
    if (flag == "-size") opts.sgns.dim = static_cast<std::uint32_t>(std::atoi(val));
    else if (flag == "-window") opts.sgns.window = static_cast<unsigned>(std::atoi(val));
    else if (flag == "-negative") opts.sgns.negatives = static_cast<unsigned>(std::atoi(val));
    else if (flag == "-sample") opts.sgns.subsample = std::atof(val);
    else if (flag == "-alpha") opts.sgns.alpha = static_cast<float>(std::atof(val));
    else if (flag == "-iter") opts.epochs = static_cast<unsigned>(std::atoi(val));
    else if (flag == "-min-count") minCount = static_cast<std::uint64_t>(std::atoll(val));
    else if (flag == "-hosts") opts.numHosts = static_cast<unsigned>(std::atoi(val));
    else if (flag == "-spill-dir") spillDir = val;
    else if (flag == "-cache-mb") cacheMb = static_cast<std::uint64_t>(std::atoll(val));
    else if (flag == "-stream") stream = std::atoi(val) != 0;
    else if (flag == "-cbow" && std::atoi(val) != 0)
      opts.sgns.architecture = core::Architecture::kCbow;
    else {
      std::fprintf(stderr, "unknown option %s\n", flag.c_str());
      return usage();
    }
  }
  if (opts.sgns.negatives == 0) {
    opts.sgns.objective = core::Objective::kHierarchicalSoftmax;
    std::printf("negative=0: using hierarchical softmax\n");
  }

  // Pass 1: stream the file to build the vocabulary (Algorithm 1 line 3).
  text::Vocabulary vocab;
  const std::uint64_t rawTokens = text::forEachFileToken(
      corpusPath, [&](std::string_view tok) { vocab.addToken(tok); });
  vocab.finalize(minCount);
  if (vocab.size() == 0) {
    std::fprintf(stderr, "no words above min-count %llu\n",
                 static_cast<unsigned long long>(minCount));
    return 1;
  }
  // Pass 2: encode into RAM — or, with -stream, skip materialization and let
  // per-host producer threads re-read + encode the file every epoch.
  std::vector<text::WordId> corpus;
  if (!stream) {
    corpus.reserve(rawTokens);
    text::forEachFileToken(corpusPath, [&](std::string_view tok) {
      if (const auto id = vocab.idOf(tok)) corpus.push_back(*id);
    });
  }
  std::printf("vocab %u words, %llu/%llu tokens kept%s\n", vocab.size(),
              static_cast<unsigned long long>(vocab.totalTokens()),
              static_cast<unsigned long long>(rawTokens), stream ? " (streaming)" : "");

  // Out-of-core mode: every replica trains against a block-cached spill
  // file instead of an in-RAM matrix — same model bits, bounded memory.
  store::StoreMetrics storeMetrics;
  if (!spillDir.empty()) {
    opts.replicaHook = [&](unsigned host, graph::ModelGraph& model) {
      store::StoreOptions so;
      so.budgetBytes = cacheMb << 20;
      so.policy = store::EvictionPolicy::kZipfPinned;
      so.metrics = &storeMetrics;
      store::spillModel(model, spillDir + "/host" + std::to_string(host), so);
    };
    std::printf("spilling replicas under %s (cache %llu MB/replica)\n", spillDir.c_str(),
                static_cast<unsigned long long>(cacheMb));
  }

  const core::GraphWord2Vec trainer(vocab, opts);
  const auto observer = [](const core::EpochStats& st, const graph::ModelGraph&) {
    std::printf("epoch %2u  loss %.4f  alpha %.5f\n", st.epoch, st.avgLoss,
                static_cast<double>(st.alphaEnd));
  };
  core::TrainResult result;
  if (stream) {
    const auto source =
        text::streamTextFile(corpusPath, vocab, vocab.totalTokens(), opts.numHosts);
    result = trainer.train(*source, observer);
  } else {
    result = trainer.train(corpus, observer);
  }
  std::printf("trained %llu examples on %u host(s); simulated time %.2fs\n",
              static_cast<unsigned long long>(result.totalExamples), opts.numHosts,
              result.cluster.simulatedSeconds());
  if (stream) {
    std::printf("peak resident corpus: %llu bytes (materialized would be %llu)\n",
                static_cast<unsigned long long>(result.corpusResidentBytesPeak),
                static_cast<unsigned long long>(vocab.totalTokens() * sizeof(text::WordId)));
  }
  if (!spillDir.empty()) {
    std::printf("store: hit-rate %.4f (%llu hits, %llu misses, %llu write-backs)\n",
                storeMetrics.hitRate(),
                static_cast<unsigned long long>(storeMetrics.hits.load()),
                static_cast<unsigned long long>(storeMetrics.misses.load()),
                static_cast<unsigned long long>(storeMetrics.writeBacks.load()));
  }

  eval::saveTextVectors(vectorsPath, result.model, vocab);
  std::printf("wrote %s\n", vectorsPath.c_str());
  return 0;
}

int runNearest(int argc, char** argv) {
  if (argc < 4) return usage();
  const auto loaded = eval::loadTextVectors(argv[2]);
  const std::string word = argv[3];
  const unsigned k = argc > 4 ? static_cast<unsigned>(std::atoi(argv[4])) : 10;
  const auto id = loaded.vocab.idOf(word);
  if (!id) {
    std::fprintf(stderr, "'%s' not in vocabulary\n", word.c_str());
    return 1;
  }
  const eval::EmbeddingView view(loaded.model, loaded.vocab);
  for (const auto& nb : view.nearestTo(*id, k)) {
    std::printf("%-24s %.4f\n", loaded.vocab.wordOf(nb.word).c_str(), nb.similarity);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  if (std::strcmp(argv[1], "train") == 0) return runTrain(argc, argv);
  if (std::strcmp(argv[1], "nn") == 0) return runNearest(argc, argv);
  return usage();
}
