#pragma once

// SPMD launcher: runs the same program body on H simulated hosts, each a
// thread with its own HostContext — the rank context (comm/rank_context.h:
// id, transport, worker pool and the host's one clock) over the run's one
// SimTransport, plus the simulated network underneath it. This is the
// distributed-execution substrate standing in for the paper's 32-node Azure
// cluster — see DESIGN.md for the substitution rationale.

#include <cstdint>
#include <functional>
#include <vector>

#include "comm/comm_stats.h"
#include "comm/rank_context.h"
#include "sim/network.h"

namespace gw2v::sim {

/// One simulated host: the rank context every engine and body is written
/// against, plus the network it runs on, for code that drives the fabric
/// directly.
class HostContext : public comm::RankContext {
 public:
  HostContext(HostId id, Network& net, comm::Transport& transport, unsigned workerThreads)
      : comm::RankContext(id, transport, workerThreads), net_(net) {}

  Network& network() noexcept { return net_; }

 private:
  Network& net_;
};

struct ClusterOptions {
  unsigned numHosts = 1;
  /// Hogwild worker threads *per host*.
  unsigned workerThreadsPerHost = 1;
};

struct HostReport {
  double computeSeconds = 0.0;
  double modelledCommSeconds = 0.0;
  comm::CommSnapshot comm{};
  comm::SyncPhaseSeconds sync{};
};

struct ClusterReport {
  std::vector<HostReport> hosts;
  double wallSeconds = 0.0;

  /// Simulated cluster makespan: slowest host's compute + its modelled comm.
  double simulatedSeconds() const noexcept {
    double worst = 0.0;
    for (const auto& h : hosts) {
      const double t = h.computeSeconds + h.modelledCommSeconds;
      if (t > worst) worst = t;
    }
    return worst;
  }
  double maxComputeSeconds() const noexcept {
    double worst = 0.0;
    for (const auto& h : hosts) worst = h.computeSeconds > worst ? h.computeSeconds : worst;
    return worst;
  }
  double maxModelledCommSeconds() const noexcept {
    double worst = 0.0;
    for (const auto& h : hosts)
      worst = h.modelledCommSeconds > worst ? h.modelledCommSeconds : worst;
    return worst;
  }
  std::uint64_t totalBytes() const noexcept {
    std::uint64_t total = 0;
    for (const auto& h : hosts) total += h.comm.bytesSent;
    return total;
  }
  /// Per-phase maxima across hosts — the straggler view of where sync wall
  /// time goes (pack/exchange/fold/apply).
  comm::SyncPhaseSeconds maxSyncPhaseSeconds() const noexcept {
    comm::SyncPhaseSeconds worst{};
    for (const auto& h : hosts) {
      worst.pack = h.sync.pack > worst.pack ? h.sync.pack : worst.pack;
      worst.exchange = h.sync.exchange > worst.exchange ? h.sync.exchange : worst.exchange;
      worst.fold = h.sync.fold > worst.fold ? h.sync.fold : worst.fold;
      worst.apply = h.sync.apply > worst.apply ? h.sync.apply : worst.apply;
    }
    return worst;
  }
};

/// Run `body(ctx)` on every simulated host; rethrows the first host
/// exception after all hosts joined. Returns per-host timing/traffic.
ClusterReport runCluster(const ClusterOptions& opts,
                         const std::function<void(HostContext&)>& body);

}  // namespace gw2v::sim
