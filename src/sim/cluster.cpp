#include "sim/cluster.h"

#include <exception>
#include <memory>
#include <stdexcept>
#include <thread>

#include "comm/transport.h"
#include "util/timer.h"

namespace gw2v::sim {

ClusterReport runCluster(const ClusterOptions& opts,
                         const std::function<void(HostContext&)>& body) {
  if (opts.numHosts == 0) throw std::invalid_argument("runCluster: numHosts must be >= 1");

  Network net(opts.numHosts);
  comm::SimTransport transport(net);
  std::vector<std::unique_ptr<HostContext>> contexts;
  contexts.reserve(opts.numHosts);
  for (HostId h = 0; h < opts.numHosts; ++h) {
    contexts.push_back(
        std::make_unique<HostContext>(h, net, transport, opts.workerThreadsPerHost));
  }

  util::WallTimer wall;
  std::vector<std::exception_ptr> errors(opts.numHosts);
  std::vector<std::thread> threads;
  threads.reserve(opts.numHosts);
  for (HostId h = 0; h < opts.numHosts; ++h) {
    threads.emplace_back([&, h] {
      try {
        body(*contexts[h]);
      } catch (...) {
        errors[h] = std::current_exception();
        // Poison the fabric so peers blocked in recv/barrier wake up with
        // comm::NetworkAborted instead of deadlocking.
        net.abort();
      }
    });
  }
  for (auto& t : threads) t.join();
  // Prefer the root-cause exception over secondary NetworkAborted fallout.
  std::exception_ptr firstAbort;
  for (auto& e : errors) {
    if (!e) continue;
    try {
      std::rethrow_exception(e);
    } catch (const comm::NetworkAborted&) {
      if (!firstAbort) firstAbort = e;
    } catch (...) {
      std::rethrow_exception(e);
    }
  }
  if (firstAbort) std::rethrow_exception(firstAbort);

  ClusterReport report;
  report.wallSeconds = wall.seconds();
  report.hosts.resize(opts.numHosts);
  for (HostId h = 0; h < opts.numHosts; ++h) {
    report.hosts[h].computeSeconds = contexts[h]->computeSeconds();
    report.hosts[h].modelledCommSeconds = contexts[h]->modelledCommSeconds();
    report.hosts[h].comm = snapshot(net.statsFor(h));
    report.hosts[h].sync = contexts[h]->syncSeconds();
  }
  return report;
}

}  // namespace gw2v::sim
