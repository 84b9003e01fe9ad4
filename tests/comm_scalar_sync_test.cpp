#include "comm/scalar_sync.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "sim/cluster.h"

namespace gw2v::comm {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();

struct ScalarRun {
  std::vector<std::vector<float>> replicas;
  std::vector<std::uint64_t> changed;
  sim::ClusterReport report;
};

/// Each host applies update(host, values, touched) once, then syncs once.
template <typename UpdateFn>
ScalarRun runOnce(unsigned hosts, std::uint32_t nodes, float init, UpdateFn update) {
  ScalarRun out;
  out.replicas.assign(hosts, std::vector<float>(nodes, init));
  out.changed.assign(hosts, 0);
  graph::BlockedPartition partition(nodes, hosts);
  sim::ClusterOptions copts;
  copts.numHosts = hosts;
  out.report = sim::runCluster(copts, [&](sim::HostContext& ctx) {
    util::BitVector touched(nodes);
    ScalarSyncEngine engine(ctx, out.replicas[ctx.id()], touched, partition);
    update(ctx.id(), out.replicas[ctx.id()], touched);
    out.changed[ctx.id()] = engine.sync();
  });
  return out;
}

TEST(ScalarSync, MinFoldsAcrossHosts) {
  auto run = runOnce(4, 8, kInf, [](unsigned h, std::vector<float>& v, util::BitVector& t) {
    v[3] = static_cast<float>(10 - h);  // host 3 offers 7
    t.set(3);
  });
  for (unsigned h = 0; h < 4; ++h) {
    EXPECT_FLOAT_EQ(run.replicas[h][3], 7.0f) << "host " << h;
  }
}

TEST(ScalarSync, UntouchedNodesUnchanged) {
  auto run = runOnce(4, 8, 5.0f, [](unsigned, std::vector<float>& v, util::BitVector& t) {
    v[0] = 1.0f;
    t.set(0);
  });
  for (unsigned h = 0; h < 4; ++h) {
    for (std::uint32_t n = 1; n < 8; ++n) EXPECT_FLOAT_EQ(run.replicas[h][n], 5.0f);
  }
}

TEST(ScalarSync, SingleHostNoTrafficNoChange) {
  auto run = runOnce(1, 4, kInf, [](unsigned, std::vector<float>& v, util::BitVector& t) {
    v[2] = 1.0f;
    t.set(2);
  });
  EXPECT_EQ(run.report.totalBytes(), 0u);
  EXPECT_EQ(run.changed[0], 0u);
  EXPECT_FLOAT_EQ(run.replicas[0][2], 1.0f);
}

TEST(ScalarSync, ChangedCountsReceivedImprovements) {
  // Host 0 improves node 7 (owned by the last host); all other hosts should
  // count one received change, the owner counts one fold.
  auto run = runOnce(4, 8, kInf, [](unsigned h, std::vector<float>& v, util::BitVector& t) {
    if (h == 0) {
      v[7] = 2.0f;
      t.set(7);
    }
  });
  graph::BlockedPartition partition(8, 4);
  const unsigned owner = partition.masterOf(7);
  for (unsigned h = 0; h < 4; ++h) {
    if (h == 0 && h != owner) {
      EXPECT_EQ(run.changed[h], 0u) << "originator already has the value";
    } else {
      EXPECT_EQ(run.changed[h], 1u) << "host " << h;
    }
    EXPECT_FLOAT_EQ(run.replicas[h][7], 2.0f);
  }
}

TEST(ScalarSync, QuiescentSyncReturnsZero) {
  auto run = runOnce(4, 8, 1.0f, [](unsigned, std::vector<float>&, util::BitVector&) {});
  for (unsigned h = 0; h < 4; ++h) EXPECT_EQ(run.changed[h], 0u);
}

TEST(ScalarSync, WorseValuesDoNotOverwrite) {
  // Every host "touches" node 0 with a worse (larger, under MIN) value than
  // the master already holds; nothing changes.
  graph::BlockedPartition partition(4, 2);
  std::vector<std::vector<float>> replicas(2, std::vector<float>{1.0f, 5.0f, 5.0f, 5.0f});
  sim::ClusterOptions copts;
  copts.numHosts = 2;
  sim::runCluster(copts, [&](sim::HostContext& ctx) {
    util::BitVector touched(4);
    ScalarSyncEngine engine(ctx, replicas[ctx.id()], touched, partition);
    if (ctx.id() == 1) {
      replicas[1][0] = 3.0f;  // worse than master's 1.0
      touched.set(0);
    }
    engine.sync();
  });
  EXPECT_FLOAT_EQ(replicas[0][0], 1.0f);
  // Host 1 keeps its own (worse) local value until the master next
  // publishes — the master saw no improvement, so no broadcast. This is the
  // idempotent-reduction contract: stale-but-worse mirrors are harmless
  // because any *use* of the label re-touches and re-syncs it.
  EXPECT_FLOAT_EQ(replicas[1][0], 3.0f);
}

TEST(ScalarSync, MultipleRoundsConverge) {
  // Chain improvement: each round, one more host lowers the value; the
  // global minimum must win in the end.
  constexpr unsigned kHosts = 3;
  graph::BlockedPartition partition(3, kHosts);
  std::vector<std::vector<float>> replicas(kHosts, std::vector<float>(3, 100.0f));
  sim::ClusterOptions copts;
  copts.numHosts = kHosts;
  sim::runCluster(copts, [&](sim::HostContext& ctx) {
    util::BitVector touched(3);
    ScalarSyncEngine engine(ctx, replicas[ctx.id()], touched, partition);
    for (unsigned round = 0; round < kHosts; ++round) {
      if (ctx.id() == round) {
        replicas[ctx.id()][0] = 50.0f - static_cast<float>(round) * 10.0f;
        touched.set(0);
      }
      engine.sync();
    }
  });
  for (unsigned h = 0; h < kHosts; ++h) EXPECT_FLOAT_EQ(replicas[h][0], 30.0f);
}

}  // namespace
}  // namespace gw2v::comm
