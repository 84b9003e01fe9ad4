// Table 1: datasets and their properties (vocabulary words, training words,
// size on disk). Prints the paper's figures next to the synthetic stand-ins
// actually used by the other benches.

#include "bench/common.h"

using namespace gw2v;

int main() {
  const double scale = bench::envDouble("GW2V_SCALE", 1.0);
  bench::printHeader("Table 1 — datasets and their properties", "Table 1");
  bench::Rows rows("table1_datasets");

  std::printf("%-12s | %-28s | %-40s\n", "", "paper dataset", "synthetic stand-in (this run)");
  std::printf("%-12s | %10s %10s %6s | %12s %14s %10s\n", "dataset", "vocab", "tokens",
              "size", "vocab words", "train tokens", "text size");
  std::printf("-------------+------------------------------+---------------------------------"
              "\n");

  for (const auto& info : synth::datasetCatalog(scale)) {
    const synth::CorpusGenerator gen(info.spec);
    const std::string body = gen.generateText();
    text::Vocabulary vocab;
    text::forEachToken(body, [&](std::string_view tok) { vocab.addToken(tok); });
    vocab.finalize(5);
    const auto corpus = text::encode(body, vocab);
    std::printf("%-12s | %10s %10s %6s | %12u %14zu %8.1fMB\n", info.paperName.c_str(),
                info.paperVocab.c_str(), info.paperTokens.c_str(), info.paperSize.c_str(),
                vocab.size(), corpus.size(), static_cast<double>(body.size()) / 1e6);
    const std::string cfg = bench::config({{"dataset", info.paperName}});
    rows.add(cfg, "vocab_words", "count", vocab.size());
    rows.add(cfg, "train_tokens", "count", static_cast<double>(corpus.size()));
    rows.add(cfg, "text_bytes", "B", static_cast<double>(body.size()));
  }
  std::printf("\nstand-ins preserve the relative ordering (wiki >> news > 1-billion) at\n"
              "~1/1000 vocabulary and ~1/2000 token scale; see DESIGN.md.\n");
  return 0;
}
