#include <gtest/gtest.h>

#include <set>
#include <string>

#include "synth/catalog.h"
#include "synth/generator.h"
#include "text/tokenizer.h"
#include "text/vocabulary.h"

namespace gw2v::synth {
namespace {

CorpusSpec tinySpec() {
  CorpusSpec spec;
  spec.totalTokens = 20'000;
  spec.fillerVocab = 200;
  spec.relations = defaultRelations(5);
  spec.seed = 9;
  return spec;
}

TEST(Relations, FourteenCategoriesFiveSemantic) {
  const auto rels = defaultRelations();
  EXPECT_EQ(rels.size(), 14u);
  unsigned semantic = 0;
  for (const auto& r : rels) semantic += r.semantic ? 1 : 0;
  EXPECT_EQ(semantic, 5u);
  EXPECT_EQ(rels[0].name, "capital-common-countries");
  EXPECT_EQ(rels[13].name, "gram9-plural-verbs");
}

TEST(Generator, RejectsDegenerateSpecs) {
  CorpusSpec noRel = tinySpec();
  noRel.relations.clear();
  EXPECT_THROW(CorpusGenerator{noRel}, std::invalid_argument);
  CorpusSpec noFiller = tinySpec();
  noFiller.fillerVocab = 0;
  EXPECT_THROW(CorpusGenerator{noFiller}, std::invalid_argument);
}

TEST(Generator, TokenCountApproximatelyRequested) {
  const CorpusGenerator gen(tinySpec());
  const std::string text = gen.generateText();
  std::uint64_t tokens = 0;
  text::forEachToken(text, [&](std::string_view) { ++tokens; });
  EXPECT_GE(tokens, 20'000u);
  EXPECT_LT(tokens, 20'000u + 32u);  // at most one sentence of overshoot
}

TEST(Generator, DeterministicForSeed) {
  const CorpusGenerator a(tinySpec()), b(tinySpec());
  EXPECT_EQ(a.generateText(), b.generateText());
  CorpusSpec other = tinySpec();
  other.seed = 10;
  EXPECT_NE(a.generateText(), CorpusGenerator(other).generateText());
}

TEST(Generator, PlantedWordsAppearInCorpus) {
  const CorpusGenerator gen(tinySpec());
  const std::string text = gen.generateText();
  text::Vocabulary vocab;
  text::forEachToken(text, [&](std::string_view tok) { vocab.addToken(tok); });
  vocab.finalize(1);
  // Every pair word of every relation should occur (20k tokens, 5 pairs * 5
  // relations... actually 14 relations * 5 pairs = 70 pairs; ~800 facts).
  unsigned present = 0, totalWords = 0;
  for (unsigned r = 0; r < 14; ++r) {
    for (unsigned p = 0; p < 5; ++p) {
      totalWords += 2;
      present += vocab.idOf(gen.aWord(r, p)).has_value() ? 1 : 0;
      present += vocab.idOf(gen.bWord(r, p)).has_value() ? 1 : 0;
    }
  }
  EXPECT_GT(present, totalWords * 9 / 10);
}

TEST(Generator, AnalogySuiteShape) {
  const CorpusGenerator gen(tinySpec());
  const auto suite = gen.analogySuite(12);
  ASSERT_EQ(suite.size(), 14u);
  for (const auto& cat : suite) {
    EXPECT_LE(cat.questions.size(), 12u);
    EXPECT_GT(cat.questions.size(), 0u);
    for (const auto& q : cat.questions) {
      EXPECT_NE(q.a, q.c);  // i != j
      EXPECT_NE(q.b, q.expected);
    }
  }
}

TEST(Generator, AnalogyQuestionsConsistentWithPlantedPairs) {
  const CorpusGenerator gen(tinySpec());
  const auto suite = gen.analogySuite(200);
  // For relation r, every question is (a_i, b_i, a_j, b_j).
  const auto& cat = suite[0];
  for (const auto& q : cat.questions) {
    EXPECT_EQ(q.a[0], 'r');
    EXPECT_NE(q.a.find('a'), std::string::npos);
    EXPECT_NE(q.b.find('b'), std::string::npos);
    // a and b of the same question share the pair index.
    const auto pairOfA = q.a.substr(q.a.find('a') + 1);
    const auto pairOfB = q.b.substr(q.b.find('b') + 1);
    EXPECT_EQ(pairOfA, pairOfB);
  }
}

TEST(Generator, WordNamingDistinct) {
  const CorpusGenerator gen(tinySpec());
  std::set<std::string> names;
  for (unsigned r = 0; r < 3; ++r) {
    for (unsigned p = 0; p < 5; ++p) {
      names.insert(gen.aWord(r, p));
      names.insert(gen.bWord(r, p));
      names.insert(gen.identityWord(r, p, 0));
    }
    names.insert(gen.contextWord(r, 'a', 0));
    names.insert(gen.contextWord(r, 'b', 0));
  }
  EXPECT_EQ(names.size(), 3u * 5u * 3u + 3u * 2u);
}

TEST(Catalog, ThreeDatasetsMirrorTable1) {
  const auto cat = datasetCatalog(1.0);
  ASSERT_EQ(cat.size(), 3u);
  EXPECT_EQ(cat[0].paperName, "1-billion");
  EXPECT_EQ(cat[1].paperName, "news");
  EXPECT_EQ(cat[2].paperName, "wiki");
  // Relative ordering preserved: wiki largest in vocab and tokens.
  EXPECT_GT(cat[2].spec.fillerVocab, cat[1].spec.fillerVocab);
  EXPECT_GT(cat[1].spec.fillerVocab, cat[0].spec.fillerVocab);
  EXPECT_GT(cat[2].spec.totalTokens, cat[1].spec.totalTokens);
  EXPECT_GE(cat[1].spec.totalTokens, cat[0].spec.totalTokens);
}

TEST(Catalog, ScaleMultipliesTokens) {
  const auto full = datasetByName("wiki", 1.0);
  const auto half = datasetByName("wiki", 0.5);
  EXPECT_NEAR(static_cast<double>(half.spec.totalTokens),
              static_cast<double>(full.spec.totalTokens) * 0.5,
              static_cast<double>(full.spec.totalTokens) * 0.01);
}

TEST(Catalog, ScaleFloorsAtMinimum) {
  const auto tiny = datasetByName("1-billion", 1e-9);
  EXPECT_GE(tiny.spec.totalTokens, 20'000u);
}

TEST(Catalog, UnknownNameThrows) {
  EXPECT_THROW(datasetByName("imagenet"), std::invalid_argument);
}

}  // namespace
}  // namespace gw2v::synth
