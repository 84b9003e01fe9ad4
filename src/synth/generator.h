#pragma once

// Synthetic corpus generator (see spec.h for the model).

#include <cstdint>
#include <string>
#include <vector>

#include "synth/spec.h"

namespace gw2v::synth {

/// One analogy question a : b :: c : expected.
struct AnalogyQuestion {
  std::string a, b, c, expected;
};

struct AnalogyCategory {
  std::string name;
  bool semantic = true;
  std::vector<AnalogyQuestion> questions;
};

class CorpusGenerator {
 public:
  explicit CorpusGenerator(CorpusSpec spec);

  /// Generate the whole corpus as whitespace-separated text (exercises the
  /// same streaming-tokenize -> vocab -> encode path a file corpus would).
  std::string generateText() const;

  /// Analogy evaluation suite derived from the planted relations: all
  /// ordered pairs (i, j), i != j, within each relation, capped per category.
  std::vector<AnalogyCategory> analogySuite(unsigned maxQuestionsPerCategory = 240) const;

  const CorpusSpec& spec() const noexcept { return spec_; }

  // Planted word surface forms (exposed for tests).
  std::string aWord(unsigned relation, unsigned pair) const;
  std::string bWord(unsigned relation, unsigned pair) const;
  std::string contextWord(unsigned relation, char side, unsigned k) const;
  std::string identityWord(unsigned relation, unsigned pair, unsigned k) const;
  std::string fillerWord(std::uint32_t rank) const;

 private:
  CorpusSpec spec_;
};

}  // namespace gw2v::synth
