#pragma once

// Per-rank communication accounting, and the error a poisoned fabric throws.
//
// The paper's Figures 8 and 9 analyse communication *volume* (TB exchanged)
// and the comp/comm time split. Volume we can count exactly; time on a real
// cluster is replaced here by a NetworkModel applied to the counted bytes
// (see DESIGN.md "Simulated time"). Every Transport backend keeps one
// CommStats per rank and throws NetworkAborted out of its blocking calls.

#include <atomic>
#include <cstdint>
#include <stdexcept>

namespace gw2v::comm {

/// Thrown out of blocking operations on all surviving ranks once a faulted
/// rank has poisoned the fabric, so it never deadlocks its peers.
struct NetworkAborted : std::runtime_error {
  NetworkAborted() : std::runtime_error("simulated network aborted by a faulted host") {}
};

/// One rank's traffic: bytes sent and received (payload plus framing),
/// messages sent, and the serialized collective rounds it sat through.
class CommStats {
 public:
  void recordSend(std::uint64_t bytes) noexcept {
    bytesSent_.fetch_add(bytes, std::memory_order_relaxed);
    messagesSent_.fetch_add(1, std::memory_order_relaxed);
  }
  void recordReceive(std::uint64_t bytes) noexcept {
    bytesReceived_.fetch_add(bytes, std::memory_order_relaxed);
  }

  /// Serialized rounds this rank sat through inside collective operations
  /// (ring steps, tree depth, star drain length). The NetworkModel charges
  /// latency on max(messages, rounds), so algorithm depth shows up in
  /// modelled time even when this rank sent few messages itself.
  void recordCollectiveRounds(std::uint64_t rounds) noexcept {
    collectiveRounds_.fetch_add(rounds, std::memory_order_relaxed);
  }

  std::uint64_t bytesSent() const noexcept {
    return bytesSent_.load(std::memory_order_relaxed);
  }
  std::uint64_t bytesReceived() const noexcept {
    return bytesReceived_.load(std::memory_order_relaxed);
  }
  std::uint64_t messagesSent() const noexcept {
    return messagesSent_.load(std::memory_order_relaxed);
  }
  std::uint64_t collectiveRounds() const noexcept {
    return collectiveRounds_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> bytesSent_{0};
  std::atomic<std::uint64_t> bytesReceived_{0};
  std::atomic<std::uint64_t> messagesSent_{0};
  std::atomic<std::uint64_t> collectiveRounds_{0};
};

/// Plain (non-atomic) snapshot used to compute per-round deltas.
struct CommSnapshot {
  std::uint64_t bytesSent = 0;
  std::uint64_t bytesReceived = 0;
  std::uint64_t messagesSent = 0;
  std::uint64_t collectiveRounds = 0;
};

inline CommSnapshot snapshot(const CommStats& s) {
  return {s.bytesSent(), s.bytesReceived(), s.messagesSent(), s.collectiveRounds()};
}

inline CommSnapshot delta(const CommSnapshot& before, const CommSnapshot& after) {
  return {after.bytesSent - before.bytesSent, after.bytesReceived - before.bytesReceived,
          after.messagesSent - before.messagesSent,
          after.collectiveRounds - before.collectiveRounds};
}

}  // namespace gw2v::comm
