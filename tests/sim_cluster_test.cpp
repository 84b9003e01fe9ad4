#include "sim/cluster.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <stdexcept>

#include "sim/network_model.h"

namespace gw2v::sim {
namespace {

TEST(Cluster, RunsBodyOnEveryHost) {
  ClusterOptions opts;
  opts.numHosts = 5;
  std::atomic<unsigned> mask{0};
  runCluster(opts, [&](HostContext& ctx) {
    EXPECT_EQ(ctx.numHosts(), 5u);
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
    ctx.barrier();
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

TEST(Cluster, ModelledCommSecondsFlowThrough) {
  ClusterOptions opts;
  opts.numHosts = 1;
  const auto report = runCluster(opts, [&](HostContext& ctx) {
    ctx.addModelledCommSeconds(1.25);
    ctx.addModelledCommSeconds(0.25);
  });
  EXPECT_DOUBLE_EQ(report.hosts[0].modelledCommSeconds, 1.5);
  EXPECT_DOUBLE_EQ(report.maxModelledCommSeconds(), 1.5);
  EXPECT_GE(report.simulatedSeconds(), 1.5);
}

TEST(Cluster, ExceptionPropagatesFromHost) {
  ClusterOptions opts;
  opts.numHosts = 3;
  EXPECT_THROW(runCluster(opts,
                          [](HostContext& ctx) {
                            if (ctx.id() == 1) throw std::runtime_error("host 1 died");
                            // Peers block; abort must wake them.
                            ctx.barrier();
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
  NetworkModel m;
  m.latencySeconds = 1e-6;
  m.bandwidthBytesPerSec = 1e9;
  EXPECT_DOUBLE_EQ(m.transferSeconds(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(m.transferSeconds(1'000'000'000, 0), 1.0);
  EXPECT_DOUBLE_EQ(m.transferSeconds(0, 1000), 1e-3);
  EXPECT_DOUBLE_EQ(m.transferSeconds(500'000'000, 500), 0.5 + 5e-4);
}

TEST(NetworkModel, ExchangeCountsSendPlusRecv) {
  NetworkModel m;
  m.latencySeconds = 0.0;
  m.bandwidthBytesPerSec = 100.0;
  CommSnapshot d{50, 50, 3};
  EXPECT_DOUBLE_EQ(m.exchangeSeconds(d), 1.0);
}

TEST(CommStats, SnapshotDelta) {
  CommStats s;
  s.recordSend(CommPhase::kReduce, 100);
  const auto before = snapshot(s);
  s.recordSend(CommPhase::kBroadcast, 50);
  s.recordReceive(CommPhase::kReduce, 30);
  const auto d = delta(before, snapshot(s));
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
