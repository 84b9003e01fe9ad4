#include "comm/collectives.h"

namespace gw2v::comm {

const char* collectiveAlgoName(CollectiveAlgo a) noexcept {
  switch (a) {
    case CollectiveAlgo::kAuto: return "auto";
    case CollectiveAlgo::kRing: return "ring";
    case CollectiveAlgo::kTree: return "tree";
  }
  return "?";
}

const char* tagSpaceName(TagSpace s) noexcept {
  switch (s) {
    case TagSpace::kDefault: return "default";
    case TagSpace::kModelSync: return "model-sync";
    case TagSpace::kScalarSync: return "scalar-sync";
    case TagSpace::kGraphAnalytics: return "graph-analytics";
    case TagSpace::kTrainer: return "trainer";
    case TagSpace::kBaseline: return "baseline";
    case TagSpace::kTest: return "test";
    case TagSpace::kBench: return "bench";
    case TagSpace::kServe: return "serve";
    case TagSpace::kPs: return "ps";
  }
  return "?";
}

std::vector<std::vector<std::uint8_t>> Collectives::gatherv(std::vector<std::uint8_t> mine,
                                                            RankId root,
                                                            sim::CommPhase phase) {
  std::vector<std::vector<std::uint8_t>> out;
  if (numRanks_ == 1) {
    out.resize(1);
    out[0] = std::move(mine);
    return out;
  }
  const int tag = nextTag();
  if (me_ == root) {
    out.resize(numRanks_);
    out[root] = std::move(mine);
    for (unsigned k = 1; k < numRanks_; ++k) {
      auto [src, payload] = t_.recvAny(me_, tag, phase);
      out[src] = std::move(payload);
    }
    recordRounds(numRanks_ - 1);
  } else {
    t_.send(me_, root, tag, std::move(mine), phase);
    recordRounds(1);
  }
  return out;
}

std::vector<std::vector<std::uint8_t>> Collectives::allGatherv(std::vector<std::uint8_t> mine,
                                                               sim::CommPhase phase) {
  std::vector<std::vector<std::uint8_t>> out(numRanks_);
  out[me_] = std::move(mine);
  if (numRanks_ == 1) return out;
  const int tag = nextTag();
  const RankId right = (me_ + 1) % numRanks_;
  const RankId left = (me_ + numRanks_ - 1) % numRanks_;
  // Step s: forward the block picked up last step (starting with our own);
  // every block crosses every link exactly once.
  for (unsigned s = 0; s < numRanks_ - 1; ++s) {
    const unsigned sendB = (me_ + numRanks_ - s) % numRanks_;
    const unsigned recvB = (me_ + numRanks_ - s - 1) % numRanks_;
    t_.send(me_, right, tag, out[sendB], phase);
    out[recvB] = t_.recv(me_, left, tag, phase);
  }
  recordRounds(numRanks_ - 1);
  return out;
}

void Collectives::allToAllv(std::vector<std::vector<std::uint8_t>>& toPeer,
                            std::vector<std::vector<std::uint8_t>>& from,
                            sim::CommPhase phase) {
  if (toPeer.size() != numRanks_ || from.size() != numRanks_)
    throw std::invalid_argument("allToAllv: need exactly one payload slot per rank");
  if (numRanks_ == 1) return;
  const int tag = nextTag();
  for (RankId p = 0; p < numRanks_; ++p) {
    if (p == me_) continue;
    t_.send(me_, p, tag, std::move(toPeer[p]), phase);
  }
  for (unsigned k = 1; k < numRanks_; ++k) {
    auto [src, payload] = t_.recvAny(me_, tag, phase);
    from[src] = std::move(payload);
  }
  recordRounds(numRanks_ - 1);
}

}  // namespace gw2v::comm
