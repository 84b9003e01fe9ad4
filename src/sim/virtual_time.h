#pragma once

// Modelled wall-clock for asynchronous message flows.
//
// The BSP trainer charges communication per synchronized round:
// max-compute + modelled exchange, summed over rounds. An asynchronous
// parameter server has no rounds to charge — a worker's push can overlap the
// server's fold of an earlier clock — so modelled time has to follow message
// causality instead. VirtualTimeBoard keeps one virtual clock per host plus a
// NIC-serialization point:
//
//   compute      advances the host's clock by its measured thread-CPU time;
//   depart       a send leaves no earlier than max(host clock, NIC free);
//                the NIC is then busy for bytes/bandwidth (back-to-back sends
//                serialize, which is what makes pipelined chunked pushes
//                cheaper than one monolithic one);
//   arrival      the receiver's clock becomes max(own clock, depart +
//                alpha-beta transfer time) — Lamport-style, so a host that
//                was already busy absorbs the message "for free".
//
// The arrival stamp travels inside the message payload (the PS protocol owns
// its framing), not through the transport, so the board changes no transport
// contract. It is telemetry only: protocol decisions must never read it, or
// seeded replay would depend on modelled time.
//
// Thread contract: advance/depart for host h are called only by host h's
// thread; now(h)/observeArrival(h, ...) share that single writer, so relaxed
// atomics suffice (same discipline as CommStats).

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include "sim/network.h"
#include "comm/network_model.h"

namespace gw2v::sim {

class VirtualTimeBoard {
 public:
  explicit VirtualTimeBoard(unsigned numHosts, comm::NetworkModel model = {})
      : model_(model), clock_(numHosts), nicFree_(numHosts) {}

  unsigned numHosts() const noexcept { return static_cast<unsigned>(clock_.size()); }

  double now(HostId h) const noexcept { return clock_[h].load(); }

  /// Advance host `h`'s clock by `seconds` of local compute.
  void advance(HostId h, double seconds) noexcept {
    clock_[h].store(clock_[h].load() + std::max(0.0, seconds));
  }

  /// Account a `payloadBytes`-byte send leaving host `h` now; returns the
  /// modelled arrival time at the receiver (embed it in the message).
  double depart(HostId h, std::uint64_t payloadBytes) noexcept {
    return departAt(h, clock_[h].load(), payloadBytes);
  }

  /// Same, but the message only becomes ready at `readyVt` (a server reply
  /// whose content waited on a fold): it leaves at max(readyVt, NIC free),
  /// independent of the real order the simulator happened to process
  /// messages in. Folds readyVt into the host clock so makespan sees it.
  double departAt(HostId h, double readyVt, std::uint64_t payloadBytes) noexcept {
    const std::uint64_t wire = payloadBytes + Network::kHeaderBytes;
    const double leave = std::max(readyVt, nicFree_[h].load());
    // NIC occupancy is the beta term only; the receiver additionally pays the
    // one-message alpha below, matching NetworkModel::transferSeconds.
    nicFree_[h].store(leave + static_cast<double>(wire) / model_.bandwidthBytesPerSec);
    clock_[h].store(std::max(clock_[h].load(), leave));
    return leave + model_.transferSeconds(wire, 1);
  }

  /// Fold a message's arrival stamp into host `h`'s clock.
  void observeArrival(HostId h, double arriveAt) noexcept {
    clock_[h].store(std::max(clock_[h].load(), arriveAt));
  }

  /// Modelled makespan: the latest clock on the board.
  double makespan() const noexcept {
    double m = 0.0;
    for (const auto& c : clock_) m = std::max(m, c.load());
    return m;
  }

 private:
  // Single-writer-per-slot atomics (only makespan/now cross threads).
  struct Cell {
    std::atomic<double> v{0.0};
    double load() const noexcept { return v.load(std::memory_order_relaxed); }
    void store(double x) noexcept { v.store(x, std::memory_order_relaxed); }
  };

  comm::NetworkModel model_;
  std::vector<Cell> clock_;
  std::vector<Cell> nicFree_;
};

}  // namespace gw2v::sim
