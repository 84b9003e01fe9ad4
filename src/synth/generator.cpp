#include "synth/generator.h"

#include <cmath>
#include <stdexcept>

#include "util/alias_sampler.h"
#include "util/rng.h"

namespace gw2v::synth {

std::vector<RelationSpec> defaultRelations(unsigned pairsPerRelation) {
  // Names follow question-words.txt's 14 categories.
  const std::pair<const char*, bool> cats[] = {
      {"capital-common-countries", true},
      {"capital-world", true},
      {"currency", true},
      {"city-in-state", true},
      {"family", true},
      {"gram1-adjective-to-adverb", false},
      {"gram2-opposite", false},
      {"gram3-comparative", false},
      {"gram4-superlative", false},
      {"gram5-present-participle", false},
      {"gram6-nationality-adjective", false},
      {"gram7-past-tense", false},
      {"gram8-plural", false},
      {"gram9-plural-verbs", false},
  };
  std::vector<RelationSpec> out;
  out.reserve(std::size(cats));
  for (const auto& [name, semantic] : cats) {
    out.push_back(RelationSpec{name, semantic, pairsPerRelation});
  }
  return out;
}

CorpusGenerator::CorpusGenerator(CorpusSpec spec) : spec_(std::move(spec)) {
  if (spec_.relations.empty()) throw std::invalid_argument("CorpusGenerator: no relations");
  if (spec_.fillerVocab == 0) throw std::invalid_argument("CorpusGenerator: fillerVocab == 0");
}

std::string CorpusGenerator::aWord(unsigned r, unsigned p) const {
  return "r" + std::to_string(r) + "a" + std::to_string(p);
}
std::string CorpusGenerator::bWord(unsigned r, unsigned p) const {
  return "r" + std::to_string(r) + "b" + std::to_string(p);
}
std::string CorpusGenerator::contextWord(unsigned r, char side, unsigned k) const {
  return "r" + std::to_string(r) + "c" + std::string(1, side) + std::to_string(k);
}
std::string CorpusGenerator::identityWord(unsigned r, unsigned p, unsigned k) const {
  return "r" + std::to_string(r) + "i" + std::to_string(p) + "x" + std::to_string(k);
}
std::string CorpusGenerator::fillerWord(std::uint32_t rank) const {
  return "w" + std::to_string(rank);
}

std::string CorpusGenerator::generateText() const {
  util::Rng rng(spec_.seed);

  // Zipf alias over the filler vocabulary.
  std::vector<double> zipf(spec_.fillerVocab);
  for (std::uint32_t i = 0; i < spec_.fillerVocab; ++i) {
    zipf[i] = 1.0 / std::pow(static_cast<double>(i) + 1.0, spec_.zipfExponent);
  }
  const util::AliasSampler fillerDist{std::span<const double>(zipf)};

  std::string out;
  out.reserve(spec_.totalTokens * 8);
  std::uint64_t emitted = 0;
  const auto emit = [&](const std::string& word) {
    out += word;
    out += ' ';
    ++emitted;
  };
  const auto emitFiller = [&] { emit(fillerWord(fillerDist.sample(rng))); };

  const unsigned numRelations = static_cast<unsigned>(spec_.relations.size());
  const unsigned ctxN = spec_.contextWordsPerSide;
  const unsigned idN = spec_.identityWordsPerPair;

  while (emitted < spec_.totalTokens) {
    if (rng.uniformDouble() < spec_.factProbability) {
      // Fact sentence: ~12 tokens binding (a_i, b_i) to the relation's
      // shared side contexts and the pair's identity words. The token order
      // keeps a_i within window of A-side words and b_i within window of
      // B-side words, with the identity words bridging both.
      const unsigned r = static_cast<unsigned>(rng.bounded(numRelations));
      const unsigned p = static_cast<unsigned>(rng.bounded(spec_.relations[r].pairs));
      const auto ctx = [&](char side) {
        return contextWord(r, side, static_cast<unsigned>(rng.bounded(ctxN)));
      };
      const auto ident = [&] {
        return identityWord(r, p, static_cast<unsigned>(rng.bounded(idN)));
      };
      // Layout keeps the A-segment and B-segment more than a max window
      // (5) apart so e(a) absorbs only A-side context and e(b) only B-side;
      // the shared identity words appear in both segments and bind the pair.
      emitFiller();
      emit(ctx('a'));
      emit(aWord(r, p));
      emit(ident());
      emit(ctx('a'));
      emitFiller();
      emitFiller();
      emitFiller();
      emitFiller();
      emit(ctx('b'));
      emit(bWord(r, p));
      emit(ident());
      emit(ctx('b'));
      emitFiller();
    } else {
      // Background sentence: 12 Zipf tokens.
      for (int k = 0; k < 12; ++k) emitFiller();
    }
    out.back() = '\n';  // sentence boundary (cosmetic; training re-chunks)
  }
  return out;
}

std::vector<AnalogyCategory> CorpusGenerator::analogySuite(
    unsigned maxQuestionsPerCategory) const {
  std::vector<AnalogyCategory> suite;
  suite.reserve(spec_.relations.size());
  for (unsigned r = 0; r < spec_.relations.size(); ++r) {
    const RelationSpec& rel = spec_.relations[r];
    AnalogyCategory cat;
    cat.name = rel.name;
    cat.semantic = rel.semantic;
    for (unsigned i = 0; i < rel.pairs && cat.questions.size() < maxQuestionsPerCategory; ++i) {
      for (unsigned j = 0; j < rel.pairs && cat.questions.size() < maxQuestionsPerCategory; ++j) {
        if (i == j) continue;
        cat.questions.push_back(
            AnalogyQuestion{aWord(r, i), bWord(r, i), aWord(r, j), bWord(r, j)});
      }
    }
    suite.push_back(std::move(cat));
  }
  return suite;
}

}  // namespace gw2v::synth
