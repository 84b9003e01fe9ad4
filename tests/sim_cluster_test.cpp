#include "sim/cluster.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <stdexcept>

#include "comm/network_model.h"

namespace gw2v::sim {
namespace {

TEST(Cluster, RunsBodyOnEveryHost) {
  ClusterOptions opts;
  opts.numHosts = 5;
  std::atomic<unsigned> mask{0};
  runCluster(opts, [&](HostContext& ctx) {
    EXPECT_EQ(ctx.numRanks(), 5u);
    mask.fetch_or(1u << ctx.id());
  });
  EXPECT_EQ(mask.load(), 0b11111u);
}

TEST(Cluster, RejectsZeroHosts) {
  ClusterOptions opts;
  opts.numHosts = 0;
  EXPECT_THROW(runCluster(opts, [](HostContext&) {}), std::invalid_argument);
}

TEST(Cluster, HostsCanExchangeMessages) {
  ClusterOptions opts;
  opts.numHosts = 2;
  runCluster(opts, [&](HostContext& ctx) {
    if (ctx.id() == 0) {
      const float data[2] = {1.0f, 2.0f};
      std::vector<std::uint8_t> payload(sizeof(data));
      std::memcpy(payload.data(), data, sizeof(data));
      ctx.network().send(0, 1, 1, std::move(payload));
    } else {
      const auto got = ctx.network().recv(1, 0, 1);
      ASSERT_EQ(got.size(), 2 * sizeof(float));
      float first;
      std::memcpy(&first, got.data(), sizeof(first));
      EXPECT_FLOAT_EQ(first, 1.0f);
    }
  });
}

TEST(Cluster, ReportContainsPerHostTraffic) {
  ClusterOptions opts;
  opts.numHosts = 2;
  const auto report = runCluster(opts, [&](HostContext& ctx) {
    if (ctx.id() == 0) ctx.network().send(0, 1, 1, std::vector<std::uint8_t>(100));
    ctx.transport().barrier(ctx.id());
    if (ctx.id() == 1) (void)ctx.network().recv(1, 0, 1);
  });
  ASSERT_EQ(report.hosts.size(), 2u);
  EXPECT_EQ(report.hosts[0].comm.bytesSent, 100 + Network::kHeaderBytes);
  EXPECT_EQ(report.hosts[1].comm.bytesSent, 0u);
  EXPECT_EQ(report.totalBytes(), 100 + Network::kHeaderBytes);
  EXPECT_GT(report.wallSeconds, 0.0);
}

TEST(Cluster, ComputeTimerAccumulates) {
  ClusterOptions opts;
  opts.numHosts = 1;
  const auto report = runCluster(opts, [&](HostContext& ctx) {
    ctx.computeTimer().start();
    volatile double sink = 0;
    for (int i = 0; i < 2'000'000; ++i) sink = sink + 1.0;
    ctx.computeTimer().stop();
  });
  EXPECT_GT(report.hosts[0].computeSeconds, 0.0);
  EXPECT_GT(report.maxComputeSeconds(), 0.0);
}

// chargeExchange prices the traffic since its snapshot, sent and received,
// with the default fabric; traffic before the snapshot is not charged, and
// the charges add up into the report.
TEST(Cluster, ModelledCommSecondsFlowThrough) {
  ClusterOptions opts;
  opts.numHosts = 2;
  const auto report = runCluster(opts, [&](HostContext& ctx) {
    const HostId peer = 1 - ctx.id();
    ctx.network().send(ctx.id(), peer, 1, std::vector<std::uint8_t>(500));
    (void)ctx.network().recv(ctx.id(), peer, 1);
    for (int round = 0; round < 2; ++round) {
      const comm::CommSnapshot before = comm::snapshot(ctx.commStats());
      ctx.network().send(ctx.id(), peer, 2, std::vector<std::uint8_t>(1000));
      (void)ctx.network().recv(ctx.id(), peer, 2);
      ctx.chargeExchange(before);
    }
  });
  // Each window moves one 1000-byte message each way: α + (sent + received)/β.
  const double perRound =
      comm::NetworkModel{}.transferSeconds(2 * (1000 + Network::kHeaderBytes), 1);
  for (const auto& h : report.hosts) EXPECT_DOUBLE_EQ(h.modelledCommSeconds, 2 * perRound);
  EXPECT_DOUBLE_EQ(report.maxModelledCommSeconds(), 2 * perRound);
  EXPECT_GE(report.simulatedSeconds(), 2 * perRound);
}

// The sync engine adds each round's phase seconds to its host's
// syncSeconds(); the report carries them per host, and maxSyncPhaseSeconds
// takes each phase's maximum over hosts (the straggler view).
TEST(Cluster, SyncSecondsFlowIntoTheReport) {
  ClusterOptions opts;
  opts.numHosts = 2;
  const auto report = runCluster(opts, [&](HostContext& ctx) {
    comm::SyncPhaseSeconds& s = ctx.syncSeconds();
    const double scale = ctx.id() == 0 ? 1.0 : 2.0;
    for (int round = 0; round < 2; ++round) {
      s.pack += 0.5 * scale;
      s.exchange += 0.25 / scale;
      s.fold += 0.125;
      s.apply += 0.0625 * scale;
    }
  });
  EXPECT_DOUBLE_EQ(report.hosts[0].sync.pack, 1.0);
  EXPECT_DOUBLE_EQ(report.hosts[1].sync.exchange, 0.25);
  EXPECT_DOUBLE_EQ(report.hosts[0].sync.total(), 1.0 + 0.5 + 0.25 + 0.125);
  const comm::SyncPhaseSeconds worst = report.maxSyncPhaseSeconds();
  EXPECT_DOUBLE_EQ(worst.pack, 2.0);
  EXPECT_DOUBLE_EQ(worst.exchange, 0.5);
  EXPECT_DOUBLE_EQ(worst.fold, 0.25);
  EXPECT_DOUBLE_EQ(worst.apply, 0.25);
}

TEST(Cluster, ExceptionPropagatesFromHost) {
  ClusterOptions opts;
  opts.numHosts = 3;
  EXPECT_THROW(runCluster(opts,
                          [](HostContext& ctx) {
                            if (ctx.id() == 1) throw std::runtime_error("host 1 died");
                            // Peers block; abort must wake them.
                            ctx.transport().barrier(ctx.id());
                          }),
               std::runtime_error);
}

TEST(Cluster, ExceptionWhilePeersBlockedInRecv) {
  ClusterOptions opts;
  opts.numHosts = 2;
  EXPECT_THROW(runCluster(opts,
                          [](HostContext& ctx) {
                            if (ctx.id() == 0) throw std::logic_error("boom");
                            (void)ctx.network().recv(1, 0, 99);  // never sent
                          }),
               std::logic_error);
}

TEST(NetworkModel, TransferTimeIsAlphaBeta) {
  comm::NetworkModel m;
  m.latencySeconds = 1e-6;
  m.bandwidthBytesPerSec = 1e9;
  EXPECT_DOUBLE_EQ(m.transferSeconds(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(m.transferSeconds(1'000'000'000, 0), 1.0);
  EXPECT_DOUBLE_EQ(m.transferSeconds(0, 1000), 1e-3);
  EXPECT_DOUBLE_EQ(m.transferSeconds(500'000'000, 500), 0.5 + 5e-4);
}

TEST(NetworkModel, ExchangeCountsSendPlusRecv) {
  comm::NetworkModel m;
  m.latencySeconds = 0.0;
  m.bandwidthBytesPerSec = 100.0;
  comm::CommSnapshot d{50, 50, 3};
  EXPECT_DOUBLE_EQ(m.exchangeSeconds(d), 1.0);
}

TEST(CommStats, SnapshotDelta) {
  comm::CommStats s;
  s.recordSend(100);
  const auto before = comm::snapshot(s);
  s.recordSend(50);
  s.recordReceive(30);
  const auto d = comm::delta(before, comm::snapshot(s));
  EXPECT_EQ(d.bytesSent, 50u);
  EXPECT_EQ(d.bytesReceived, 30u);
  EXPECT_EQ(d.messagesSent, 1u);
}

TEST(Cluster, WorkerPoolSizeHonored) {
  ClusterOptions opts;
  opts.numHosts = 2;
  opts.workerThreadsPerHost = 3;
  runCluster(opts, [&](HostContext& ctx) { EXPECT_EQ(ctx.pool().numThreads(), 3u); });
}

}  // namespace
}  // namespace gw2v::sim
