#include "comm/collectives.h"

#include <algorithm>
#include <cstring>
#include <string>

namespace gw2v::comm {

namespace {

unsigned ceilLog2(unsigned v) noexcept {
  unsigned r = 0;
  while ((1u << r) < v) ++r;
  return r;
}

std::vector<std::uint8_t> bytesOf(std::span<const double> v) {
  std::vector<std::uint8_t> bytes(v.size_bytes());
  if (!bytes.empty()) std::memcpy(bytes.data(), v.data(), bytes.size());
  return bytes;
}

/// `bytes` read as exactly `n` doubles; a peer that disagrees on the size is
/// an error, never a partial read.
std::vector<double> doublesOf(const std::vector<std::uint8_t>& bytes, std::size_t n,
                              const char* op) {
  if (bytes.size() != n * sizeof(double))
    throw std::runtime_error(std::string(op) + ": size mismatch across ranks");
  std::vector<double> out(n);
  if (n != 0) std::memcpy(out.data(), bytes.data(), bytes.size());
  return out;
}

/// Chunk c of H near-equal chunks of `v`.
std::span<double> chunkOf(std::span<double> v, unsigned c, unsigned H) noexcept {
  const std::size_t lo = v.size() * c / H;
  const std::size_t hi = v.size() * (c + 1) / H;
  return v.subspan(lo, hi - lo);
}

}  // namespace

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

void Collectives::allReduceSum(std::span<double> values, CollectiveAlgo algo) {
  if (numRanks_ <= 1 || values.empty()) return;
  // Ring needs >= 1 element per chunk to beat the tree; tiny payloads take
  // the 2·ceil(log2 H)-round tree instead. Deterministic in (n, H) so all
  // ranks agree without coordination.
  if (algo == CollectiveAlgo::kAuto)
    algo = values.size() >= 2 * static_cast<std::size_t>(numRanks_) ? CollectiveAlgo::kRing
                                                                      : CollectiveAlgo::kTree;
  if (algo == CollectiveAlgo::kRing) {
    ringAllReduceSum(values);
    return;
  }
  treeReduceSum(values);
  const std::vector<std::uint8_t> root =
      broadcast(me_ == 0 ? bytesOf(values) : std::vector<std::uint8_t>{}, 0);
  if (me_ != 0) {
    const std::vector<double> in = doublesOf(root, values.size(), "broadcast");
    std::copy(in.begin(), in.end(), values.begin());
  }
}

// Ring reduce-scatter + all-gather: step s, rank i sends chunk (i−s) mod H
// right and folds chunk (i−s−1) mod H from the left; after H−1 steps rank i
// owns the fully-reduced chunk (i+1) mod H, which the all-gather circulates.
void Collectives::ringAllReduceSum(std::span<double> v) {
  const unsigned H = numRanks_;
  const int tag = nextTag();
  const RankId right = (me_ + 1) % H;
  const RankId left = (me_ + H - 1) % H;
  for (unsigned s = 0; s < H - 1; ++s) {
    t_.send(me_, right, tag, bytesOf(chunkOf(v, (me_ + H - s) % H, H)));
    const auto dst = chunkOf(v, (me_ + H - s - 1) % H, H);
    const std::vector<double> in =
        doublesOf(t_.recv(me_, left, tag), dst.size(), "ring allreduce");
    for (std::size_t i = 0; i < dst.size(); ++i) dst[i] += in[i];
  }
  for (unsigned s = 0; s < H - 1; ++s) {
    t_.send(me_, right, tag + 1, bytesOf(chunkOf(v, (me_ + 1 + H - s) % H, H)));
    const auto dst = chunkOf(v, (me_ + H - s) % H, H);
    const std::vector<double> in =
        doublesOf(t_.recv(me_, left, tag + 1), dst.size(), "ring allgather");
    std::copy(in.begin(), in.end(), dst.begin());
  }
  recordRounds(2 * (H - 1));
}

// Binomial tree to rank 0: a rank folds its children (me + mask for each low
// zero bit of me) and then sends to its parent at its lowest set bit.
void Collectives::treeReduceSum(std::span<double> v) {
  const unsigned H = numRanks_;
  const int tag = nextTag();
  for (unsigned mask = 1; mask < H; mask <<= 1) {
    if ((me_ & mask) != 0) {
      t_.send(me_, me_ - mask, tag, bytesOf(v));
      break;
    }
    if (me_ + mask < H) {
      const std::vector<double> in =
          doublesOf(t_.recv(me_, me_ + mask, tag), v.size(), "reduce");
      for (std::size_t i = 0; i < v.size(); ++i) v[i] += in[i];
    }
  }
  recordRounds(ceilLog2(H));
}

// Binomial tree rooted at `root`, standard MPICH rank relabelling
// vr = (me − root) mod H: receive from the parent at the lowest set bit of
// vr, then forward to the children at the remaining lower bits.
std::vector<std::uint8_t> Collectives::broadcast(std::vector<std::uint8_t> bytes, RankId root) {
  const unsigned H = numRanks_;
  if (H <= 1) return bytes;
  const int tag = nextTag();
  const unsigned vr = (me_ + H - root) % H;
  unsigned mask = 1;
  while (mask < H) {
    if ((vr & mask) != 0) {
      bytes = t_.recv(me_, (vr - mask + root) % H, tag);
      break;
    }
    mask <<= 1;
  }
  for (mask >>= 1; mask > 0; mask >>= 1) {
    if (vr + mask < H) t_.send(me_, (vr + mask + root) % H, tag, bytes);
  }
  recordRounds(ceilLog2(H));
  return bytes;
}

std::vector<std::vector<std::uint8_t>> Collectives::gatherv(std::vector<std::uint8_t> mine,
                                                            RankId root) {
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
      auto [src, payload] = t_.recvAny(me_, tag);
      out[src] = std::move(payload);
    }
    recordRounds(numRanks_ - 1);
  } else {
    t_.send(me_, root, tag, std::move(mine));
    recordRounds(1);
  }
  return out;
}

std::vector<std::vector<std::uint8_t>> Collectives::allGatherv(std::vector<std::uint8_t> mine) {
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
    t_.send(me_, right, tag, out[sendB]);
    out[recvB] = t_.recv(me_, left, tag);
  }
  recordRounds(numRanks_ - 1);
  return out;
}

void Collectives::allToAllv(std::vector<std::vector<std::uint8_t>>& toPeer,
                            std::vector<std::vector<std::uint8_t>>& from) {
  if (toPeer.size() != numRanks_ || from.size() != numRanks_)
    throw std::invalid_argument("allToAllv: need exactly one payload slot per rank");
  if (numRanks_ == 1) return;
  const int tag = nextTag();
  for (RankId p = 0; p < numRanks_; ++p) {
    if (p == me_) continue;
    t_.send(me_, p, tag, std::move(toPeer[p]));
  }
  for (unsigned k = 1; k < numRanks_; ++k) {
    auto [src, payload] = t_.recvAny(me_, tag);
    from[src] = std::move(payload);
  }
  recordRounds(numRanks_ - 1);
}

}  // namespace gw2v::comm
