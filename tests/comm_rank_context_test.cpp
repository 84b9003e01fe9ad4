#include "comm/rank_context.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "comm/sync_engine.h"
#include "sim/cluster.h"
#include "util/bitvector.h"
#include "util/rng.h"

// The sync engine is written against comm::RankContext and the Transport
// contract, not the simulated cluster. This test drives it through rank
// contexts built by hand over a second, test-side Transport and check it
// against the same run launched by sim::runCluster: the same replica bits,
// the same per-rank traffic and the same modelled seconds.

namespace gw2v::comm {
namespace {

/// A Transport written against the contract alone: per-rank mailboxes with
/// (source, tag) matching, a generation barrier, the simulated network's
/// framing charge per message, and abort() waking every blocked call with
/// NetworkAborted.
class MailboxTransport final : public Transport {
 public:
  static constexpr std::uint64_t kFramingBytes = sim::Network::kHeaderBytes;

  explicit MailboxTransport(unsigned ranks) : boxes_(ranks), stats_(ranks) {}

  unsigned numRanks() const noexcept override { return static_cast<unsigned>(boxes_.size()); }

  void send(RankId src, RankId dst, int tag, std::vector<std::uint8_t> payload) override {
    if (aborted_) throw NetworkAborted();
    stats_[src].recordSend(payload.size() + kFramingBytes);
    Box& box = boxes_[dst];
    {
      std::lock_guard<std::mutex> lock(box.mu);
      box.queue.push_back(Message{src, tag, std::move(payload)});
    }
    box.cv.notify_all();
  }

  std::vector<std::uint8_t> recv(RankId dst, RankId src, int tag) override {
    return take(dst, [&](const Message& m) { return m.src == src && m.tag == tag; }).payload;
  }

  std::pair<RankId, std::vector<std::uint8_t>> recvAny(RankId dst, int tag) override {
    Message m = take(dst, [&](const Message& msg) { return msg.tag == tag; });
    return {m.src, std::move(m.payload)};
  }

  void barrier(RankId /*rank*/) override {
    std::unique_lock<std::mutex> lock(barrierMu_);
    if (aborted_) throw NetworkAborted();
    const std::uint64_t generation = generation_;
    if (++arrived_ == numRanks()) {
      arrived_ = 0;
      ++generation_;
      barrierCv_.notify_all();
      return;
    }
    barrierCv_.wait(lock, [&] { return generation_ != generation || aborted_; });
    if (generation_ == generation) throw NetworkAborted();
  }

  CommStats& statsFor(RankId rank) noexcept override { return stats_[rank]; }

  void abort() {
    aborted_ = true;
    for (Box& box : boxes_) {
      std::lock_guard<std::mutex> lock(box.mu);
      box.cv.notify_all();
    }
    std::lock_guard<std::mutex> lock(barrierMu_);
    barrierCv_.notify_all();
  }

 private:
  struct Message {
    RankId src;
    int tag;
    std::vector<std::uint8_t> payload;
  };
  struct Box {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Message> queue;
  };

  template <typename Match>
  Message take(RankId dst, const Match& match) {
    Box& box = boxes_[dst];
    std::unique_lock<std::mutex> lock(box.mu);
    for (;;) {
      if (aborted_) throw NetworkAborted();
      const auto it = std::find_if(box.queue.begin(), box.queue.end(), match);
      if (it != box.queue.end()) {
        Message m = std::move(*it);
        box.queue.erase(it);
        stats_[dst].recordReceive(m.payload.size() + kFramingBytes);
        return m;
      }
      box.cv.wait(lock);
    }
  }

  std::vector<Box> boxes_;
  std::vector<CommStats> stats_;
  std::atomic<bool> aborted_{false};
  std::mutex barrierMu_;
  std::condition_variable barrierCv_;
  unsigned arrived_ = 0;
  std::uint64_t generation_ = 0;
};

constexpr std::uint32_t kNodes = 40;
constexpr std::uint32_t kDim = 8;
constexpr unsigned kRounds = 4;
constexpr unsigned kThreads = 2;

/// One rank's SPMD body: seeded updates to overlapping rows of both labels,
/// then a sync round (a PullModel round pulls a seeded access set).
void trainAndSync(RankContext& ctx, graph::ModelGraph& model,
                  const graph::BlockedPartition& partition, SyncStrategy strategy) {
  const SumReducer sum;
  SyncEngine engine(ctx, model, partition, sum, strategy);
  util::BitVector willAccess(kNodes);
  for (unsigned round = 0; round < kRounds; ++round) {
    util::Rng rng(util::hash64(0x5eedULL + 131 * ctx.id() + round));
    for (unsigned k = 0; k < kNodes / 3; ++k) {
      const auto label = static_cast<graph::Label>(k % graph::kNumLabels);
      const auto node = static_cast<std::uint32_t>(rng.bounded(kNodes));
      for (float& v : model.mutableRow(label, node)) v += rng.uniformFloat(-0.5f, 0.5f);
      model.markTouched(label, node);
    }
    if (strategy == SyncStrategy::kPullModel) {
      willAccess.reset();
      for (unsigned k = 0; k < kNodes / 2; ++k) willAccess.set(rng.bounded(kNodes));
      engine.sync(willAccess);
    } else {
      engine.sync();
    }
  }
}

struct SpmdRun {
  std::vector<std::unique_ptr<graph::ModelGraph>> replicas;
  std::vector<CommSnapshot> traffic;
  std::vector<double> modelledCommSeconds;
};

SpmdRun freshReplicas(unsigned hosts) {
  SpmdRun run;
  for (unsigned h = 0; h < hosts; ++h) {
    run.replicas.push_back(std::make_unique<graph::ModelGraph>(kNodes, kDim));
    run.replicas.back()->randomizeEmbeddings(11);
  }
  return run;
}

SpmdRun launchedBySim(unsigned hosts, SyncStrategy strategy) {
  SpmdRun run = freshReplicas(hosts);
  const graph::BlockedPartition partition(kNodes, hosts);
  sim::ClusterOptions copts;
  copts.numHosts = hosts;
  copts.workerThreadsPerHost = kThreads;
  const sim::ClusterReport report = sim::runCluster(copts, [&](RankContext& ctx) {
    trainAndSync(ctx, *run.replicas[ctx.id()], partition, strategy);
  });
  for (const sim::HostReport& h : report.hosts) {
    run.traffic.push_back(h.comm);
    run.modelledCommSeconds.push_back(h.modelledCommSeconds);
  }
  return run;
}

SpmdRun launchedByHand(unsigned hosts, SyncStrategy strategy) {
  SpmdRun run = freshReplicas(hosts);
  const graph::BlockedPartition partition(kNodes, hosts);
  MailboxTransport transport(hosts);
  std::vector<std::unique_ptr<RankContext>> contexts;
  for (RankId r = 0; r < hosts; ++r)
    contexts.push_back(std::make_unique<RankContext>(r, transport, kThreads));
  std::vector<std::exception_ptr> errors(hosts);
  std::vector<std::thread> threads;
  for (RankId r = 0; r < hosts; ++r) {
    threads.emplace_back([&, r] {
      try {
        trainAndSync(*contexts[r], *run.replicas[r], partition, strategy);
      } catch (...) {
        errors[r] = std::current_exception();
        transport.abort();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& e : errors)
    if (e) std::rethrow_exception(e);
  for (RankId r = 0; r < hosts; ++r) {
    run.traffic.push_back(snapshot(transport.statsFor(r)));
    run.modelledCommSeconds.push_back(contexts[r]->modelledCommSeconds());
  }
  return run;
}

TEST(RankContext, SyncEngineOverAHandBuiltTransportMatchesRunCluster) {
  for (const unsigned hosts : {2u, 4u}) {
    for (const SyncStrategy strategy :
         {SyncStrategy::kRepModelNaive, SyncStrategy::kRepModelOpt, SyncStrategy::kPullModel}) {
      SCOPED_TRACE(testing::Message() << "H=" << hosts << " " << syncStrategyName(strategy));
      const SpmdRun want = launchedBySim(hosts, strategy);
      const SpmdRun got = launchedByHand(hosts, strategy);
      for (unsigned h = 0; h < hosts; ++h) {
        for (int l = 0; l < graph::kNumLabels; ++l) {
          const auto label = static_cast<graph::Label>(l);
          for (std::uint32_t n = 0; n < kNodes; ++n) {
            const auto a = want.replicas[h]->row(label, n);
            const auto b = got.replicas[h]->row(label, n);
            ASSERT_EQ(std::memcmp(a.data(), b.data(), a.size_bytes()), 0)
                << "host " << h << " label " << l << " node " << n;
          }
        }
        EXPECT_GT(got.traffic[h].bytesSent, 0u);
        EXPECT_EQ(got.traffic[h].bytesSent, want.traffic[h].bytesSent) << "host " << h;
        EXPECT_EQ(got.traffic[h].bytesReceived, want.traffic[h].bytesReceived) << "host " << h;
        EXPECT_EQ(got.traffic[h].messagesSent, want.traffic[h].messagesSent) << "host " << h;
        EXPECT_EQ(got.traffic[h].collectiveRounds, want.traffic[h].collectiveRounds)
            << "host " << h;
        EXPECT_EQ(got.modelledCommSeconds[h], want.modelledCommSeconds[h]) << "host " << h;
      }
    }
  }
}

}  // namespace
}  // namespace gw2v::comm
