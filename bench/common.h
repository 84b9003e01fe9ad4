#pragma once

// Shared scaffolding for the table/figure reproduction harnesses.
//
// Every bench binary regenerates one table or figure of the paper on the
// synthetic datasets (DESIGN.md documents the substitutions). Beside its
// human-readable table it prints machine-readable results through Rows
// (below). Environment knobs:
//   GW2V_SCALE   — multiplies dataset token counts (default harness-specific)
//   GW2V_EPOCHS  — overrides training epochs
//   GW2V_HOSTS   — simulated hosts, where a harness runs one host count
//   GW2V_THREADS — Hogwild worker threads per host (default 1)
//   GW2V_BATCH   — shared-negative minibatch size B (default 1 = per-pair)
//   GW2V_SYNC_CODEC — comma-separated wire codecs to sweep (fp32,fp16,int8;
//                     default fp32 only)

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/trainer.h"
#include "eval/analogy.h"
#include "eval/embedding_view.h"
#include "synth/catalog.h"
#include "synth/generator.h"
#include "text/corpus.h"
#include "text/tokenizer.h"
#include "text/vocabulary.h"
#include "util/simd.h"

namespace gw2v::bench {

/// One key=value field of a row's config; integers print exactly, other
/// numbers with %g ("0.1", "0.99"). The stamp's knob values print the same.
struct Field {
  Field(const char* k, std::string v) : key(k), value(std::move(v)) {}
  template <typename T>
    requires std::is_arithmetic_v<T>
  Field(const char* k, T v) : key(k) {
    if constexpr (std::is_integral_v<T>) {
      value = std::to_string(v);
    } else {
      char num[32];
      std::snprintf(num, sizeof num, "%g", static_cast<double>(v));
      value = num;
    }
  }
  const char* key;
  std::string value;
};

/// Every knob this run has read, by name, with the value it used (the
/// harness's default when unset); the stamp records them. Knobs are read on
/// the main thread.
inline std::map<std::string, std::string>& knobsRead() {
  static std::map<std::string, std::string> knobs;
  return knobs;
}

template <typename T>
T noteKnob(const char* name, T value) {
  knobsRead()[name] = Field(name, value).value;
  return value;
}

inline double envDouble(const char* name, double fallback) {
  const char* v = std::getenv(name);
  return noteKnob(name, v != nullptr ? std::atof(v) : fallback);
}

inline unsigned envUnsigned(const char* name, unsigned fallback) {
  const char* v = std::getenv(name);
  return noteKnob(name, v != nullptr ? static_cast<unsigned>(std::atoi(v)) : fallback);
}

inline std::string envString(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return noteKnob(name, std::string(v != nullptr ? v : fallback));
}

/// Comma-separated items of environment variable `name`, empty items
/// skipped; `fallback`'s items when that leaves none.
inline std::vector<std::string> envList(const char* name, const char* fallback) {
  const auto split = [](const std::string& list) {
    std::vector<std::string> out;
    std::istringstream in(list);
    for (std::string item; std::getline(in, item, ',');)
      if (!item.empty()) out.push_back(item);
    return out;
  };
  std::vector<std::string> items = split(envString(name, ""));
  if (items.empty()) items = split(noteKnob(name, std::string(fallback)));
  return items;
}

/// Wire codecs to sweep, from GW2V_SYNC_CODEC ("fp32,fp16,int8"); defaults
/// to fp32 only so plain bench runs stay on the historical protocol.
/// Unknown names are reported on stderr and skipped.
inline std::vector<comm::SyncCodec> envCodecs() {
  std::vector<comm::SyncCodec> out;
  for (const std::string& name : envList("GW2V_SYNC_CODEC", "fp32")) {
    comm::SyncCodec c;
    if (comm::parseSyncCodec(name, c)) {
      out.push_back(c);
    } else {
      std::fprintf(stderr, "GW2V_SYNC_CODEC: unknown codec '%s' skipped\n", name.c_str());
    }
  }
  if (out.empty()) out.push_back(comm::SyncCodec::kFp32);
  return out;
}

/// A dataset prepared for training: vocabulary, encoded corpus, analogy task.
struct PreparedDataset {
  synth::DatasetInfo info;
  text::Vocabulary vocab;
  std::vector<text::WordId> corpus;
  std::vector<synth::AnalogyCategory> suite;

  eval::AnalogyTask task() const { return eval::AnalogyTask(suite, vocab); }
};

inline PreparedDataset prepare(const synth::DatasetInfo& info,
                               unsigned questionsPerCategory = 40) {
  PreparedDataset d;
  d.info = info;
  const synth::CorpusGenerator gen(info.spec);
  const std::string body = gen.generateText();
  text::forEachToken(body, [&](std::string_view tok) { d.vocab.addToken(tok); });
  d.vocab.finalize(/*minCount=*/5);
  d.corpus = text::encode(body, d.vocab);
  d.suite = gen.analogySuite(questionsPerCategory);
  return d;
}

/// SGNS parameters used across benches: the paper's hyper-parameters
/// (window 5, 15 negatives, alpha 0.025) with two scale adjustments
/// documented in DESIGN.md/EXPERIMENTS.md: dimensionality 32 (vs 200) to fit
/// the simulation budget, and subsample threshold 1e-3 (vs 1e-4) because the
/// threshold is a *relative-frequency* knob — our corpora are ~3000x smaller
/// than the paper's, so content-bearing words sit at frequencies where 1e-4
/// would downsample them like stop words and erase the learnable signal.
inline core::SgnsParams benchSgns() {
  core::SgnsParams p;
  p.dim = 32;
  p.window = 5;
  p.negatives = 15;
  p.subsample = 1e-3;
  p.alpha = 0.025f;
  p.batchSize = envUnsigned("GW2V_BATCH", 1);
  return p;
}

inline double accuracyOf(const eval::AnalogyTask& task, const graph::ModelGraph& model,
                         const text::Vocabulary& vocab) {
  const eval::EmbeddingView view(model, vocab);
  return task.evaluate(view).total;
}

/// JSON string literal of `s`, with `"`, `\` and control bytes escaped.
inline std::string jsonString(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char esc[8];
      std::snprintf(esc, sizeof esc, "\\u%04x", static_cast<unsigned>(c));
      out += esc;
    } else {
      out += c;
    }
  }
  return out + '"';
}

/// The once-per-run line naming the machine and build every row came from
/// (perfbench's stamp keys) and the knobs the run read, as an object of
/// strings in name order.
inline std::string stampLine(std::string_view bench) {
  std::string knobs;
  for (const auto& [name, value] : knobsRead())
    knobs += (knobs.empty() ? "" : ", ") + jsonString(name) + ": " + jsonString(value);
  return "stamp: {\"bench\": " + jsonString(bench) +
         ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"simd_tier\": " + jsonString(util::simd::tierName(util::simd::activeTier())) +
         ", \"build_type\": " + jsonString(BENCH_BUILD_TYPE) +
         ", \"compiler\": " + jsonString(BENCH_COMPILER) +
         ", \"knobs\": {" + knobs + "}}";
}

/// One measured value. %.17g round-trips a double exactly; NaN and the
/// infinities are not JSON numbers and print as null.
inline std::string rowLine(std::string_view bench, std::string_view config,
                           std::string_view metric, std::string_view unit, double value) {
  char num[32] = "null";
  if (std::isfinite(value)) std::snprintf(num, sizeof num, "%.17g", value);
  return "row: {\"bench\": " + jsonString(bench) + ", \"config\": " + jsonString(config) +
         ", \"metric\": " + jsonString(metric) + ", \"unit\": " + jsonString(unit) +
         ", \"value\": " + num + "}";
}

/// A row's config: the fields that identify its cell, as key=value pairs
/// joined by commas, in a fixed order per harness.
inline std::string config(std::initializer_list<Field> fields) {
  std::string out;
  for (const Field& f : fields) {
    if (!out.empty()) out += ',';
    out += f.key;
    out += '=';
    out += f.value;
  }
  return out;
}

/// The result format every harness shares. Rows collect as the harness
/// measures and print on stdout after its tables, when the harness returns:
/// one stamp line, then one row line per value.
///   stamp: {"bench", "nproc", "simd_tier", "build_type", "compiler", "knobs"}
///   row: {"bench", "config", "metric", "unit", "value"}
/// A metric's name says what kind of number it is: `modelled_*` for the
/// simulated fabric's seconds, `*_cpu_s` for measured CPU time, `*_wall_*`
/// for measured wall time.
class Rows {
 public:
  explicit Rows(std::string bench) : bench_(std::move(bench)) {}
  Rows(const Rows&) = delete;
  Rows& operator=(const Rows&) = delete;
  ~Rows() {
    std::printf("%s\n", stampLine(bench_).c_str());
    for (const std::string& row : rows_) std::printf("%s\n", row.c_str());
  }

  void add(std::string_view config, std::string_view metric, std::string_view unit,
           double value) {
    rows_.push_back(rowLine(bench_, config, metric, unit, value));
  }

 private:
  std::string bench_;
  std::vector<std::string> rows_;
};

inline void printHeader(const char* title, const char* paperRef) {
  std::printf("================================================================\n");
  std::printf("%s\n", title);
  std::printf("reproduces: %s\n", paperRef);
  std::printf("================================================================\n");
}

}  // namespace gw2v::bench
