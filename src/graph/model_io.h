#pragma once

// Binary checkpointing of the full model graph (both labels), so long
// training runs can snapshot after any epoch and resume or ship the exact
// state elsewhere.
//
// Format v2: magic, version, numNodes, dim, hasVocab flag, optional
// vocabulary section (per word: u32 length, bytes, u64 count, in id order),
// then embedding rows and training rows (unpadded little-endian float32).
// The vocabulary section makes a checkpoint self-contained for the serving
// tier (serve::EmbeddingSnapshot::fromCheckpointFile). v1 files (no flag, no
// vocabulary) still load; loadCheckpointFull reports their vocabulary as
// absent and serving rejects them with a clear error. Any other version is
// rejected as unsupported.
//
// Saves are crash-safe: the file is staged at path + ".tmp",
// fsynced, and atomically renamed into place, so a crash mid-save leaves the
// previous checkpoint (or nothing) — never a torn file.

#include <optional>
#include <string>

#include "graph/model_graph.h"
#include "text/vocabulary.h"

namespace gw2v::graph {

/// Writes format v2. Passing a vocabulary (its size must equal the model's
/// node count) embeds it so the checkpoint can feed the serving tier.
void saveCheckpoint(const std::string& path, const ModelGraph& model,
                    const text::Vocabulary* vocab = nullptr);

/// Model only (v1 or v2 input; an embedded vocabulary is validated but
/// dropped). Throws std::runtime_error on missing/corrupt/truncated files.
ModelGraph loadCheckpoint(const std::string& path);

struct Checkpoint {
  ModelGraph model;
  /// Present iff the file carried a vocabulary section.
  std::optional<text::Vocabulary> vocab;
};

/// Model + embedded vocabulary (when present). Same error behaviour as
/// loadCheckpoint.
Checkpoint loadCheckpointFull(const std::string& path);

}  // namespace gw2v::graph
