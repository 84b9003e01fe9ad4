#pragma once

// The three pipeline stages of every workload (see bench.h).

#include <cstdint>
#include <vector>

#include "bench.h"
#include "graph/csr.h"
#include "graph/model_graph.h"
#include "graph/random_walks.h"
#include "synth/generator.h"
#include "text/vocabulary.h"
#include "util/rng.h"

namespace gw2v::perfbench {

/// Independent stream seed for one use of the workload seed.
inline std::uint64_t subSeed(std::uint64_t seed, std::uint64_t salt) {
  return util::hash64(seed * 0x9e3779b97f4a7c15ULL + salt);
}

/// Inputs generated from the seed and ingested by setup. Training sources
/// hold references into it, so it stays in place for the whole run.
struct Prepared {
  InputKind kind = InputKind::kWords;

  // kWords
  text::Vocabulary words;
  std::vector<text::WordId> corpus;
  std::vector<synth::AnalogyCategory> suite;

  // kNodes
  graph::CSRGraph graph;
  graph::NodeVocabulary nodes;
  std::vector<graph::Edge> heldEval;  // held-out edges scored for quality

  const text::Vocabulary& vocab() const noexcept {
    return kind == InputKind::kWords ? words : nodes.vocab;
  }
};

/// Generate and ingest the workload's inputs several times; setup_s is the
/// median. Returns the last repetition's inputs.
Prepared runSetup(const WorkloadSpec& spec, std::uint64_t seed, Tracer& tracer, Outcome& out);

/// Train repeatedly for about `seconds` (at least three repetitions) and
/// report the training metrics. Returns the trained model.
graph::ModelGraph runTraining(const WorkloadSpec& spec, std::uint64_t seed, const Prepared& in,
                              double seconds, Tracer& tracer, Outcome& out);

/// Single-threaded probes of the core layer on the workload's tokens
/// (sampling cost per token, kernel cost per pair). Traced runs only.
void runCoreProbe(const WorkloadSpec& spec, std::uint64_t seed, const Prepared& in,
                  Tracer& tracer, Outcome& out);

/// Publish the trained model and serve closed-loop Zipf ANN traffic for
/// about `seconds` while a publisher republishes incremental snapshots;
/// then check exact answers against a single-host reference.
void runServing(const WorkloadSpec& spec, std::uint64_t seed, graph::ModelGraph model,
                const text::Vocabulary& vocab, double seconds, Tracer& tracer, Outcome& out);

}  // namespace gw2v::perfbench
