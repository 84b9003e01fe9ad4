#pragma once

// SPMD launcher: runs the same program body on H simulated hosts, each a
// thread with its own HostContext (id, network endpoint, worker pool, and
// the host's one clock: CPU busy time, modelled communication and the sync
// breakdown). This is the distributed-execution substrate standing in for
// the paper's 32-node Azure cluster — see DESIGN.md for the substitution
// rationale.

#include <exception>
#include <functional>
#include <memory>
#include <vector>

#include "runtime/thread_pool.h"
#include "sim/comm_stats.h"
#include "sim/network.h"
#include "sim/network_model.h"
#include "util/timer.h"

namespace gw2v::sim {

/// Wall seconds of the sync critical path, by stage: pack, exchange (time
/// blocked draining the fabric), fold and apply. comm::SyncEngine adds to
/// these on the host thread every round.
struct SyncPhaseSeconds {
  double pack = 0.0;
  double exchange = 0.0;
  double fold = 0.0;
  double apply = 0.0;

  double total() const noexcept { return pack + exchange + fold + apply; }
};

/// One simulated host's view of the cluster, and its clock: the compute it
/// spent, the communication it was charged and its sync breakdown.
class HostContext {
 public:
  HostContext(HostId id, Network& net, unsigned workerThreads)
      : id_(id), net_(net), pool_(workerThreads) {}

  HostId id() const noexcept { return id_; }
  unsigned numHosts() const noexcept { return net_.numHosts(); }
  Network& network() noexcept { return net_; }
  runtime::ThreadPool& pool() noexcept { return pool_; }

  void barrier() { net_.barrier(id_); }

  CommStats& commStats() noexcept { return net_.statsFor(id_); }

  /// Accumulated compute busy time; wrap compute sections in
  /// computeTimer().start()/stop(). On a 1-core machine this still measures
  /// the host's own CPU seconds correctly.
  util::CpuStopwatch& computeTimer() noexcept { return compute_; }
  double computeSeconds() const noexcept { return compute_.seconds(); }

  /// Charge this host for its traffic since `before` (bytes sent and
  /// received, messages, collective rounds), priced by the default
  /// NetworkModel — the paper's 56 Gb/s, 2 us fabric. Call it on the host
  /// thread once the window's messages are drained.
  void chargeExchange(const CommSnapshot& before) noexcept {
    simComm_ += NetworkModel{}.exchangeSeconds(delta(before, snapshot(commStats())));
  }
  double modelledCommSeconds() const noexcept { return simComm_; }

  SyncPhaseSeconds& syncSeconds() noexcept { return sync_; }

 private:
  HostId id_;
  Network& net_;
  runtime::ThreadPool pool_;
  util::CpuStopwatch compute_;
  double simComm_ = 0.0;
  SyncPhaseSeconds sync_{};
};

struct ClusterOptions {
  unsigned numHosts = 1;
  /// Hogwild worker threads *per host*.
  unsigned workerThreadsPerHost = 1;
};

struct HostReport {
  double computeSeconds = 0.0;
  double modelledCommSeconds = 0.0;
  CommSnapshot comm{};
  SyncPhaseSeconds sync{};
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
  SyncPhaseSeconds maxSyncPhaseSeconds() const noexcept {
    SyncPhaseSeconds worst{};
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
