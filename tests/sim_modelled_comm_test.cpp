// Regression lock for modelled communication time: every trainer and graph
// algorithm that charges a host's exchanges records each host's
// ClusterReport modelledCommSeconds, bit for bit, in
// tests/golden/modelled_comm.txt. Received bytes count when the receiver
// drains them, so a seeded run charges the same seconds every time; any
// change to what a charge window covers or how it is priced fails here.
//
// The same file locks each host's four traffic counts (bytes sent and
// received, messages sent, collective rounds) under "traffic/<case>".
// Modelled seconds price sent + received bytes and max(messages, rounds),
// so they alone cannot show a count that moves within one of those pairs.
//
// Regenerate with GW2V_REGEN_GOLDEN=1 only when a change is *meant* to move
// modelled seconds or traffic. Regeneration rewrites the entries of the
// cases that ran and keeps the rest.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/column_parallel.h"
#include "comm/sync_engine.h"
#include "core/trainer.h"
#include "graph/distributed.h"
#include "ps/trainer.h"
#include "sim/cluster.h"
#include "text/vocabulary.h"
#include "util/rng.h"

namespace gw2v {
namespace {

#ifndef GW2V_GOLDEN_DIR
#define GW2V_GOLDEN_DIR "tests/golden"
#endif

constexpr const char* kGoldenPath = GW2V_GOLDEN_DIR "/modelled_comm.txt";

/// name -> per-host modelled seconds, one hex-float token per host.
using Entries = std::map<std::string, std::vector<std::string>>;

Entries readGolden() {
  Entries entries;
  std::ifstream in(kGoldenPath);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string name, value;
    if (!(fields >> name)) continue;
    while (fields >> value) entries[name].push_back(value);
  }
  return entries;
}

/// Exact text for a double: C99 hex float, which strtod reads back bit for
/// bit.
std::string hexFloat(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

std::vector<std::string> perHost(const sim::ClusterReport& report) {
  std::vector<std::string> out;
  for (const auto& h : report.hosts) out.push_back(hexFloat(h.modelledCommSeconds));
  return out;
}

/// One "sent,received,messages,rounds" token per host.
std::vector<std::string> perHostTraffic(const sim::ClusterReport& report) {
  std::vector<std::string> out;
  for (const auto& h : report.hosts) {
    out.push_back(std::to_string(h.comm.bytesSent) + ',' +
                  std::to_string(h.comm.bytesReceived) + ',' +
                  std::to_string(h.comm.messagesSent) + ',' +
                  std::to_string(h.comm.collectiveRounds));
  }
  return out;
}

/// With GW2V_REGEN_GOLDEN set, rewrites `key`'s entry (keeping every other
/// entry) and returns true.
bool regenerate(const std::string& key, const std::vector<std::string>& got) {
  if (std::getenv("GW2V_REGEN_GOLDEN") == nullptr) return false;
  Entries entries = readGolden();
  entries[key] = got;
  std::ofstream out(kGoldenPath, std::ios::trunc);
  for (const auto& [name, values] : entries) {
    out << name;
    for (const auto& v : values) out << ' ' << v;
    out << '\n';
  }
  std::fprintf(stderr, "regenerated %s: %s\n", kGoldenPath, key.c_str());
  return true;
}

text::Vocabulary makeVocab(std::uint32_t words) {
  text::Vocabulary v;
  for (std::uint32_t i = 0; i < words; ++i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "w%04u", i);
    v.addCount(buf, 5000 - 7ULL * i);
  }
  v.finalize(1);
  return v;
}

std::vector<text::WordId> makeCorpus(std::uint32_t words, std::size_t tokens,
                                     std::uint64_t seed) {
  std::vector<text::WordId> c(tokens);
  util::Rng rng(seed);
  for (auto& t : c) {
    const auto a = static_cast<text::WordId>(rng.bounded(words));
    const auto b = static_cast<text::WordId>(rng.bounded(words));
    t = a < b ? a : b;
  }
  return c;
}

std::vector<graph::Edge> randomEdges(graph::NodeId n, unsigned degree, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<graph::Edge> edges;
  for (graph::NodeId u = 0; u < n; ++u) {
    for (unsigned k = 0; k < degree; ++k) {
      edges.push_back({u, static_cast<graph::NodeId>(rng.bounded(n)), 1.0f});
    }
  }
  return edges;
}

struct Inputs {
  text::Vocabulary vocab = makeVocab(60);
  std::vector<text::WordId> corpus = makeCorpus(60, 3000, 31);
  std::vector<graph::Edge> edges = randomEdges(200, 3, 17);
  graph::CSRGraph graph = graph::CSRGraph(200, edges);
  graph::CSRGraph symmetric = graph::CSRGraph(200, graph::symmetrize(edges));

  core::SgnsParams sgns() const {
    core::SgnsParams p;
    p.dim = 16;
    p.window = 3;
    p.negatives = 5;
    p.subsample = 0;
    return p;
  }
};

const Inputs& inputs() {
  static const Inputs in;
  return in;
}

sim::ClusterReport trainSgns(unsigned hosts, comm::SyncStrategy strategy,
                             comm::SyncCodec codec) {
  core::TrainOptions o;
  o.sgns = inputs().sgns();
  o.epochs = 2;
  o.numHosts = hosts;
  o.strategy = strategy;
  o.sync.codec = codec;
  o.seed = 1234;
  o.trackLoss = false;
  return core::GraphWord2Vec(inputs().vocab, o).train(inputs().corpus).cluster;
}

sim::ClusterReport trainColumn() {
  baselines::ColumnParallelOptions o;
  o.sgns = inputs().sgns();
  o.epochs = 2;
  o.numHosts = 2;
  o.batchExamples = 64;
  o.seed = 8642;
  o.trackLoss = false;
  return baselines::trainColumnParallel(inputs().vocab, inputs().corpus, o).cluster;
}

sim::ClusterReport trainPs(unsigned staleness) {
  ps::PsTrainOptions o;
  o.sgns = inputs().sgns();
  o.epochs = 2;
  o.roundsPerEpoch = 4;
  o.numHosts = 3;
  o.staleness = staleness;
  o.seed = 3141;
  o.trackLoss = false;
  return ps::trainAsyncPs(inputs().vocab, inputs().corpus, o).cluster;
}

struct Case {
  std::string name;
  std::function<sim::ClusterReport()> run;
};

void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

std::vector<Case> cases() {
  std::vector<Case> out;
  const comm::SyncStrategy strategies[] = {comm::SyncStrategy::kRepModelNaive,
                                           comm::SyncStrategy::kRepModelOpt,
                                           comm::SyncStrategy::kPullModel};
  for (const unsigned hosts : {2u, 4u}) {
    for (const comm::SyncStrategy s : strategies) {
      std::string name = std::string("sgns_H") + std::to_string(hosts) + "_" +
                         comm::syncStrategyName(s) + "_fp32";
      out.push_back({name, [=] { return trainSgns(hosts, s, comm::SyncCodec::kFp32); }});
    }
  }
  out.push_back({"sgns_H4_RepModel-Opt_int8", [] {
                   return trainSgns(4, comm::SyncStrategy::kRepModelOpt,
                                    comm::SyncCodec::kInt8);
                 }});
  out.push_back({"bfs_H4", [] { return graph::distributedBfs(inputs().graph, 0, 4).cluster; }});
  out.push_back({"cc_H4", [] { return graph::distributedCc(inputs().symmetric, 4).cluster; }});
  out.push_back(
      {"pagerank_H4", [] { return graph::distributedPagerank(inputs().graph, 4).cluster; }});
  out.push_back({"column_H2", [] { return trainColumn(); }});
  out.push_back({"ps_H3_s0", [] { return trainPs(0); }});
  out.push_back({"ps_H3_s2", [] { return trainPs(2); }});
  return out;
}

class ModelledCommGolden : public ::testing::TestWithParam<Case> {};

TEST_P(ModelledCommGolden, PerHostSecondsLocked) {
  const Case& c = GetParam();
  const std::vector<std::string> got = perHost(c.run());
  if (regenerate(c.name, got)) return;

  const Entries entries = readGolden();
  const auto it = entries.find(c.name);
  ASSERT_NE(it, entries.end()) << "no golden entry for " << c.name << " in " << kGoldenPath
                               << " (generate with GW2V_REGEN_GOLDEN=1)";
  ASSERT_EQ(it->second.size(), got.size()) << c.name << ": host count";
  for (std::size_t h = 0; h < got.size(); ++h) {
    const double want = std::strtod(it->second[h].c_str(), nullptr);
    const double have = std::strtod(got[h].c_str(), nullptr);
    EXPECT_GT(have, 0.0) << c.name << " host " << h << " charged no communication";
    EXPECT_EQ(got[h], it->second[h]) << c.name << " host " << h << ": modelled comm " << have
                                     << " s, golden " << want << " s";
  }
}

TEST_P(ModelledCommGolden, PerHostTrafficLocked) {
  const Case& c = GetParam();
  const std::string key = "traffic/" + c.name;
  const std::vector<std::string> got = perHostTraffic(c.run());
  if (regenerate(key, got)) return;

  const Entries entries = readGolden();
  const auto it = entries.find(key);
  ASSERT_NE(it, entries.end()) << "no golden entry for " << key << " in " << kGoldenPath
                               << " (generate with GW2V_REGEN_GOLDEN=1)";
  ASSERT_EQ(it->second.size(), got.size()) << key << ": host count";
  for (std::size_t h = 0; h < got.size(); ++h) {
    EXPECT_EQ(got[h], it->second[h])
        << key << " host " << h << ": traffic (sent,received,messages,rounds)";
  }
}

INSTANTIATE_TEST_SUITE_P(Trainers, ModelledCommGolden, ::testing::ValuesIn(cases()),
                         [](const ::testing::TestParamInfo<Case>& info) {
                           std::string n = info.param.name;
                           for (char& ch : n)
                             if (ch == '-') ch = '_';
                           return n;
                         });

}  // namespace
}  // namespace gw2v
