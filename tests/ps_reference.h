#pragma once

// Serial in-process oracle for the async parameter server (src/ps/): drives
// the same ServerCore/ClientCore through the deterministic lockstep
// schedule. Model bits, loss, and examples are bit-identical to
// ps::trainAsyncPs; modelled time is not computed.

#include <span>

#include "ps/trainer.h"
#include "text/vocabulary.h"

namespace gw2v::ps {

PsResult trainPsReference(const text::Vocabulary& vocab, std::span<const text::WordId> corpus,
                          const PsTrainOptions& opts);

}  // namespace gw2v::ps
