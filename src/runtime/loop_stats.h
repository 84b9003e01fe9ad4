#pragma once

// Per-phase wall-clock buckets for the sync critical path, in the per-thread
// style of Galois' LoopStatistics. Aggregated across threads on demand.

#include <cstdint>

#include "runtime/per_thread.h"

namespace gw2v::runtime {

/// Stages of a model-sync round (comm::SyncEngine); also the bucket order of
/// SyncPhaseSeconds below.
enum class SyncPhase : int { kPack = 0, kExchange = 1, kFold = 2, kApply = 3 };
inline constexpr int kNumSyncPhases = 4;

inline const char* syncPhaseName(SyncPhase p) noexcept {
  switch (p) {
    case SyncPhase::kPack: return "pack";
    case SyncPhase::kExchange: return "exchange";
    case SyncPhase::kFold: return "fold";
    case SyncPhase::kApply: return "apply";
  }
  return "?";
}

/// Reduced per-phase wall seconds; `exchange` is time blocked draining the
/// fabric.
struct SyncPhaseSeconds {
  double pack = 0.0;
  double exchange = 0.0;
  double fold = 0.0;
  double apply = 0.0;

  double total() const noexcept { return pack + exchange + fold + apply; }
};

/// Each worker accumulates wall seconds into phase buckets, reduced on
/// demand. The sync engine records
/// from the host thread (tid 0); worker-side recording uses the same cells.
class PhaseStats {
 public:
  explicit PhaseStats(unsigned numThreads = 1) : cells_(numThreads) {}

  void add(unsigned tid, SyncPhase p, double seconds) noexcept {
    cells_.local(tid).s[static_cast<int>(p)] += seconds;
  }

  SyncPhaseSeconds totals() const {
    return cells_.reduce(SyncPhaseSeconds{}, [](SyncPhaseSeconds acc, const Cell& c) {
      acc.pack += c.s[0];
      acc.exchange += c.s[1];
      acc.fold += c.s[2];
      acc.apply += c.s[3];
      return acc;
    });
  }

 private:
  struct Cell {
    double s[kNumSyncPhases] = {0.0, 0.0, 0.0, 0.0};
  };
  PerThread<Cell> cells_;
};

}  // namespace gw2v::runtime
