#pragma once

// One rank's handle above the Transport seam: who it is, the transport it
// talks over, its worker pool, and its one clock — the CPU busy time it
// spent, the communication it was charged and its sync breakdown. The sync
// engines and every SPMD host body take a RankContext; the launcher that
// starts a run (sim/cluster.h) builds one per rank over the run's transport.

#include "comm/comm_stats.h"
#include "comm/network_model.h"
#include "comm/transport.h"
#include "runtime/thread_pool.h"
#include "util/timer.h"

namespace gw2v::comm {

/// Wall seconds of the sync critical path, by stage: pack, exchange (time
/// blocked draining the fabric), fold and apply. SyncEngine adds to these on
/// the rank's own thread every round.
struct SyncPhaseSeconds {
  double pack = 0.0;
  double exchange = 0.0;
  double fold = 0.0;
  double apply = 0.0;

  double total() const noexcept { return pack + exchange + fold + apply; }
};

class RankContext {
 public:
  RankContext(RankId id, Transport& transport, unsigned workerThreads)
      : id_(id), transport_(transport), pool_(workerThreads) {}

  RankId id() const noexcept { return id_; }
  unsigned numRanks() const noexcept { return transport_.numRanks(); }
  Transport& transport() noexcept { return transport_; }
  runtime::ThreadPool& pool() noexcept { return pool_; }

  CommStats& commStats() noexcept { return transport_.statsFor(id_); }

  /// Accumulated compute busy time; wrap compute sections in
  /// computeTimer().start()/stop(). On a 1-core machine this still measures
  /// the rank's own CPU seconds correctly.
  util::CpuStopwatch& computeTimer() noexcept { return compute_; }
  double computeSeconds() const noexcept { return compute_.seconds(); }

  /// Charge this rank for its traffic since `before` (bytes sent and
  /// received, messages, collective rounds), priced by the default
  /// NetworkModel — the paper's 56 Gb/s, 2 us fabric. Call it on the rank's
  /// own thread once the window's messages are drained.
  void chargeExchange(const CommSnapshot& before) noexcept {
    simComm_ += NetworkModel{}.exchangeSeconds(delta(before, snapshot(commStats())));
  }
  double modelledCommSeconds() const noexcept { return simComm_; }

  SyncPhaseSeconds& syncSeconds() noexcept { return sync_; }

 private:
  RankId id_;
  Transport& transport_;
  runtime::ThreadPool pool_;
  util::CpuStopwatch compute_;
  double simComm_ = 0.0;
  SyncPhaseSeconds sync_{};
};

}  // namespace gw2v::comm
