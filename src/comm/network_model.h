#pragma once

// Analytical cost model for the interconnect.
//
// The paper evaluates on Azure with 56 Gb/s InfiniBand; our hosts live in one
// process, so communication *time* is modelled with the standard
// alpha-beta (latency + bytes/bandwidth) model applied to the exactly-counted
// traffic. Defaults match the paper's fabric.

#include <algorithm>
#include <cstdint>

#include "comm/comm_stats.h"

namespace gw2v::comm {

struct NetworkModel {
  /// Per-message latency (alpha), seconds. 2 microseconds is a typical
  /// InfiniBand RDMA small-message latency.
  double latencySeconds = 2e-6;
  /// Effective point-to-point bandwidth (beta), bytes/second.
  /// 56 Gb/s IB FDR ~ 7 GB/s line rate; ~5.6 GB/s achievable.
  double bandwidthBytesPerSec = 5.6e9;

  /// Time for one rank to push `bytes` over `messages` messages.
  double transferSeconds(std::uint64_t bytes, std::uint64_t messages) const noexcept {
    return latencySeconds * static_cast<double>(messages) +
           static_cast<double>(bytes) / bandwidthBytesPerSec;
  }

  /// Time for a BSP exchange given one rank's send+recv delta: the rank's
  /// NIC is the bottleneck resource, so cost = alpha*msgs + (sent+recv)/beta.
  /// Collectives additionally record their serialized round count (ring
  /// steps, tree depth, star drain); the latency term is charged on
  /// rounds × alpha when that dominates the rank's own message count, so a
  /// tree leaf still pays for the depth it waited out.
  double exchangeSeconds(const CommSnapshot& d) const noexcept {
    return transferSeconds(d.bytesSent + d.bytesReceived,
                           std::max(d.messagesSent, d.collectiveRounds));
  }
};

}  // namespace gw2v::comm
