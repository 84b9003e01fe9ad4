#pragma once

// Transport: the minimal point-to-point contract the collective layer and the
// sync engines are written against.
//
// A Transport moves opaque byte payloads between ranks with (source, tag)
// matching, provides an any-source receive, a global barrier, and per-rank
// traffic counts (comm::CommStats: bytes sent and received, messages,
// collective rounds). Blocking calls must throw comm::NetworkAborted once the
// fabric is poisoned so a faulted rank can never deadlock its peers — this is
// the abort-propagation half of the contract, and comm::Collectives relies on
// it.
//
// SimTransport is the first backend: a thin adapter over the in-process
// simulated network, built once per run by the launcher (sim/cluster.h). A
// socket or MPI backend plugs in by implementing the same five virtuals plus
// the counters; everything above this seam (Collectives, the sync engines,
// the host bodies, the serving engine) is transport-agnostic, and an SPMD
// body reaches its transport through a comm::RankContext (comm/rank_context.h).

#include <cstdint>
#include <utility>
#include <vector>

#include "comm/comm_stats.h"
#include "sim/network.h"

namespace gw2v::comm {

using RankId = unsigned;

/// Reserved tag ranges: user code must stay below kInternalTagBase.
inline constexpr int kInternalTagBase = 1 << 24;

class Transport {
 public:
  virtual ~Transport() = default;

  virtual unsigned numRanks() const noexcept = 0;

  /// Enqueue `payload` for `dst`; never blocks on the receiver. Accounts
  /// bytes (payload + framing) and one message.
  virtual void send(RankId src, RankId dst, int tag, std::vector<std::uint8_t> payload) = 0;

  /// Blocking receive matching (src, tag) at rank `dst`.
  virtual std::vector<std::uint8_t> recv(RankId dst, RankId src, int tag) = 0;

  /// Blocking receive matching any source (MPI_ANY_SOURCE); returns the
  /// sender. Lets root-side drains proceed in arrival order instead of
  /// head-of-line blocking on a fixed rank sequence.
  virtual std::pair<RankId, std::vector<std::uint8_t>> recvAny(RankId dst, int tag) = 0;

  /// Global barrier across all ranks.
  virtual void barrier(RankId rank) = 0;

  /// Per-rank traffic counts; Collectives records its round counts here.
  virtual CommStats& statsFor(RankId rank) noexcept = 0;

  /// Declare ownership of the half-open tag range [lo, hi). Backends that can
  /// police tag discipline (the simulated network) throw std::logic_error on
  /// a cross-subsystem overlap; backends that cannot may ignore it, so this
  /// is a debugging contract, not a delivery guarantee.
  virtual void registerTagRange(int /*lo*/, int /*hi*/, const char* /*owner*/) {}
};

/// Backend #1: the in-process simulated network. Stateless wrapper over the
/// run's one network.
class SimTransport final : public Transport {
 public:
  explicit SimTransport(sim::Network& net) noexcept : net_(net) {}

  unsigned numRanks() const noexcept override { return net_.numHosts(); }

  void send(RankId src, RankId dst, int tag, std::vector<std::uint8_t> payload) override {
    net_.send(src, dst, tag, std::move(payload));
  }

  std::vector<std::uint8_t> recv(RankId dst, RankId src, int tag) override {
    return net_.recv(dst, src, tag);
  }

  std::pair<RankId, std::vector<std::uint8_t>> recvAny(RankId dst, int tag) override {
    return net_.recvAny(dst, tag);
  }

  void barrier(RankId rank) override { net_.barrier(rank); }

  CommStats& statsFor(RankId rank) noexcept override { return net_.statsFor(rank); }

  void registerTagRange(int lo, int hi, const char* owner) override {
    net_.registerTagRange(lo, hi, owner);
  }

 private:
  sim::Network& net_;
};

}  // namespace gw2v::comm
