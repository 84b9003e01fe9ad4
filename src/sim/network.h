#pragma once

// In-process message-passing network connecting simulated hosts.
//
// Each host is a thread; hosts exchange byte payloads through per-host
// mailboxes with (source, tag) matching — the MPI point-to-point subset the
// Gluon-style sync engine needs — plus a barrier. Collectives live one layer
// up, in comm::Collectives, built on the comm::Transport seam so a socket or
// MPI backend can replace this simulated fabric.
// Every payload is copied through the mailbox (never shared), so the hosts
// genuinely cannot observe each other's memory except via messages; this is
// what makes the simulation a faithful stand-in for a distributed cluster.
//
// A blocked receive spins, then parks (runtime::EventCount): each mailbox
// keeps an arrival count on its own cache line, which send() and abort()
// bump. A receiver reads the count under the mailbox mutex before it scans,
// then re-reads it with a CPU pause for up to runtime::kSpinBudget before it
// sleeps, so a message that arrives within the budget (both hand-offs of a
// serve round) costs no sleep and no wake-up. A message for another
// (source, tag) wakes the receiver too; it rescans and waits again. The
// barrier waits on a condition variable: a BSP straggler keeps it waiting
// for milliseconds, far past any useful spin.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "comm/comm_stats.h"
#include "runtime/event_count.h"

namespace gw2v::sim {

using HostId = unsigned;

class Network {
 public:
  explicit Network(unsigned numHosts);

  unsigned numHosts() const noexcept { return numHosts_; }

  /// Bytes of per-message header accounted on top of the payload (envelope:
  /// src, dst, tag, size), mirroring a real transport's framing cost.
  static constexpr std::uint64_t kHeaderBytes = 16;

  void send(HostId src, HostId dst, int tag, std::vector<std::uint8_t> payload);

  /// Blocking receive matching (src, tag) at host `dst`. The message counts
  /// toward `dst`'s received bytes here, when it is drained on the receiving
  /// thread, so a per-round stats window sees exactly what that round took.
  std::vector<std::uint8_t> recv(HostId dst, HostId src, int tag);

  /// Blocking receive matching any source (MPI_ANY_SOURCE); returns the
  /// sender. Used by the parameter-server baseline's asynchronous pushes.
  std::pair<HostId, std::vector<std::uint8_t>> recvAny(HostId dst, int tag);

  /// Global barrier across all hosts.
  void barrier(HostId host);

  /// Poison the network: every blocked or future blocking call throws
  /// comm::NetworkAborted. Called when a host dies with an exception.
  void abort() noexcept;
  bool aborted() const noexcept { return aborted_.load(std::memory_order_acquire); }

  /// Register a half-open tag range [lo, hi) as owned by `owner`. Subsystems
  /// that mint tags above comm::kInternalTagBase (Collectives spaces, the parameter
  /// server) declare their block here so a mis-assigned TagSpace fails fast
  /// instead of silently cross-delivering messages. Re-registering the exact
  /// same (owner, range) is a no-op (every rank constructs its own
  /// Collectives); any overlap between different owners, or a different range
  /// under the same owner, throws std::logic_error.
  void registerTagRange(int lo, int hi, const char* owner);

  comm::CommStats& statsFor(HostId host) noexcept { return stats_[host]; }
  const comm::CommStats& statsFor(HostId host) const noexcept { return stats_[host]; }

 private:
  struct Message {
    HostId src;
    int tag;
    std::vector<std::uint8_t> payload;
  };

  struct Mailbox {
    std::mutex mutex;
    std::deque<Message> messages;
    runtime::EventCount arrivals;  // bumped after every push, and by abort()
  };

  /// Blocks until a message of `dst`'s mailbox satisfies `match`, then
  /// removes it and counts its receive; throws comm::NetworkAborted once the
  /// network is aborted.
  template <typename Match>
  Message take(HostId dst, Match match);

  struct TagRange {
    int lo;
    int hi;  // half-open
    std::string owner;
  };

  unsigned numHosts_;
  std::atomic<bool> aborted_{false};
  std::vector<Mailbox> mailboxes_;
  std::vector<comm::CommStats> stats_;

  std::mutex tagRangeMutex_;
  std::vector<TagRange> tagRanges_;

  std::mutex barrierMutex_;
  std::condition_variable barrierCv_;
  unsigned barrierCount_ = 0;
  std::uint64_t barrierGeneration_ = 0;
};

}  // namespace gw2v::sim
