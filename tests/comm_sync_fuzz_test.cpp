// Oracle-based randomized testing of the Gluon-lite sync engine. The oracle
// is a sequential, per-host model of one protocol round's arithmetic — not
// of its wire layout — run over random update patterns (host counts,
// dimensions, dirty sets, delta values, round counts). Every replica the
// engine produces must match the oracle's bit-for-bit, and the run's total
// wire bytes must match the oracle's prediction:
//
//   SyncFuzz          fp32, one worker thread, every reducer × strategy at
//                     H ∈ {1, 2, 3, 5} plus two odd shapes.
//   SyncFuzzParallel  threads ∈ {1, 2, 4} × H ∈ {1, 2, 4, 8} × strategies ×
//                     reducers × codecs {fp32, fp16 ± error feedback, int8 ±
//                     error feedback}, plus a one-float-row shape per codec.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <ostream>
#include <vector>

#include "comm/sync_engine.h"
#include "core/model_combiner.h"
#include "sim/cluster.h"
#include "sim/network.h"
#include "util/rng.h"
#include "util/vecmath.h"

namespace gw2v::comm {
namespace {

using graph::Label;
using graph::ModelGraph;

struct FuzzConfig {
  unsigned hosts;
  std::uint32_t nodes;
  std::uint32_t dim;
  unsigned rounds;
  int reducerKind;  // 0 SUM, 1 AVG, 2 MC
  SyncStrategy strategy;
  std::uint64_t seed;
  unsigned threads = 1;  // workerThreadsPerHost
  SyncCodec codec = SyncCodec::kFp32;
  bool errorFeedback = true;
};

const char* reducerName(int kind) { return kind == 0 ? "SUM" : kind == 1 ? "AVG" : "MC"; }

/// Names each config in test listings (e.g. H4_T2_RepModel-Opt_int8_ef_MC_n33_d5_r3_seed9001),
/// so test ids are readable and stable across builds.
void PrintTo(const FuzzConfig& cfg, std::ostream* os) {
  *os << "H" << cfg.hosts << "_T" << cfg.threads << "_" << syncStrategyName(cfg.strategy) << "_"
      << syncCodecName(cfg.codec);
  if (cfg.codec != SyncCodec::kFp32) *os << (cfg.errorFeedback ? "_ef" : "_noef");
  *os << "_" << reducerName(cfg.reducerKind) << "_n" << cfg.nodes << "_d" << cfg.dim << "_r"
      << cfg.rounds << "_seed" << cfg.seed;
}

std::unique_ptr<Reducer> makeReducer(int kind) {
  switch (kind) {
    case 0: return std::make_unique<SumReducer>();
    case 1: return std::make_unique<AvgReducer>();
    default: return std::make_unique<core::ModelCombinerReducer>();
  }
}

/// Deterministic per-(round, host, node, label) update decision + delta.
struct UpdatePlan {
  explicit UpdatePlan(const FuzzConfig& cfg) : cfg_(cfg) {}

  bool touches(unsigned round, unsigned host, std::uint32_t node, int label) const {
    return util::hash64(key(round, host, node, label)) % 100 < 30;  // 30% dirty
  }

  void delta(unsigned round, unsigned host, std::uint32_t node, int label,
             std::vector<float>& out) const {
    util::Rng rng(util::hash64(key(round, host, node, label) ^ 0xdeadULL));
    out.resize(cfg_.dim);
    for (auto& v : out) v = rng.uniformFloat(-0.5f, 0.5f);
  }

 private:
  std::uint64_t key(unsigned round, unsigned host, std::uint32_t node, int label) const {
    return cfg_.seed ^ (static_cast<std::uint64_t>(round) << 40) ^
           (static_cast<std::uint64_t>(host) << 32) ^ (static_cast<std::uint64_t>(node) << 2) ^
           static_cast<std::uint64_t>(label);
  }
  FuzzConfig cfg_;
};

bool isZero(std::span<const float> v) {
  for (const float x : v) {
    if (x != 0.0f) return false;
  }
  return true;
}

/// Every host's replica (label-major rows) plus the run's total wire bytes.
struct Replicas {
  std::vector<std::vector<float>> rows;  // per host
  std::uint64_t totalBytes = 0;
};

/// Sequential per-host model of `cfg.rounds` sync rounds after the plan's
/// updates, starting from all-zero replicas:
///   - Every host keeps its own rows and residuals; deltas are taken against
///     that host's pre-round rows.
///   - A mirror ships Q(delta + residual) and keeps owe - decode(Q(owe)) as
///     its residual (error feedback; without it, Q(delta)). Under Naive,
///     untouched mirror rows ship too, with delta 0.
///   - The master folds contributions in host-id order, its own delta at
///     full precision, skipping zero contributions, then sets
///     baseline + finalize(acc).
///   - Receiving mirrors store decode(encode(canonical)). Naive and the
///     parameterless Pull broadcast every owned row; Opt only rows that
///     received a contribution.
///   - Bytes: per message 16 bytes of framing plus a 4-byte count per label,
///     and codecEntryBytes per entry, plus Pull's control lists.
Replicas runOracle(const FuzzConfig& cfg, const Reducer& reducer) {
  const UpdatePlan plan(cfg);
  const unsigned hosts = cfg.hosts;
  const std::uint32_t dim = cfg.dim;
  const bool naive = cfg.strategy == SyncStrategy::kRepModelNaive;
  const bool pull = cfg.strategy == SyncStrategy::kPullModel;
  const bool lossy = cfg.codec != SyncCodec::kFp32;
  const bool ef = lossy && cfg.errorFeedback;
  const std::size_t rowsPerHost = static_cast<std::size_t>(graph::kNumLabels) * cfg.nodes;
  const std::uint64_t entryBytes = codecEntryBytes(cfg.codec, dim);
  const std::uint64_t pairs = static_cast<std::uint64_t>(hosts) * (hosts - 1);
  const graph::BlockedPartition partition(cfg.nodes, hosts);

  Replicas out;
  out.rows.assign(hosts, std::vector<float>(rowsPerHost * dim, 0.0f));
  std::vector<std::vector<float>> residual = out.rows;
  const auto rowOf = [&](std::vector<float>& v, int l, std::uint32_t n) -> std::span<float> {
    return {v.data() + (static_cast<std::size_t>(l) * cfg.nodes + n) * dim, dim};
  };
  std::vector<std::uint8_t> wire(codecValueBytes(cfg.codec, dim));
  const auto viaWire = [&](std::span<const float> v, std::span<float> dec) {
    encodeRowValues(cfg.codec, v, wire.data());
    decodeRowValues(cfg.codec, wire.data(), dec);
  };

  std::vector<float> d, delta(dim), shipped(dim), acc(dim);
  for (unsigned round = 0; round < cfg.rounds; ++round) {
    std::vector<std::vector<float>> base = out.rows;
    std::vector<std::vector<bool>> dirty(hosts, std::vector<bool>(rowsPerHost, false));
    for (unsigned h = 0; h < hosts; ++h) {
      for (int l = 0; l < graph::kNumLabels; ++l) {
        for (std::uint32_t n = 0; n < cfg.nodes; ++n) {
          if (!plan.touches(round, h, n, l)) continue;
          plan.delta(round, h, n, l, d);
          util::add(d, rowOf(out.rows[h], l, n));
          dirty[h][static_cast<std::size_t>(l) * cfg.nodes + n] = true;
        }
      }
    }
    // Framing and per-label counts of every reduce and broadcast message.
    out.totalBytes += 2 * pairs * (sim::Network::kHeaderBytes + 4 * graph::kNumLabels);
    if (pull) {
      // Control lists: each host asks every master for its whole range.
      for (unsigned m = 0; m < hosts; ++m) {
        const auto [lo, hi] = partition.masterRange(m);
        out.totalBytes += (hosts - 1) * (sim::Network::kHeaderBytes + 4 + 4ull * (hi - lo));
      }
    }
    for (int l = 0; l < graph::kNumLabels; ++l) {
      for (std::uint32_t n = 0; n < cfg.nodes; ++n) {
        const unsigned master = partition.masterOf(n);
        unsigned contributions = 0;
        for (unsigned h = 0; h < hosts; ++h) {
          const bool ships = naive || dirty[h][static_cast<std::size_t>(l) * cfg.nodes + n];
          if (h != master && !ships) continue;
          util::sub(rowOf(out.rows[h], l, n), rowOf(base[h], l, n), delta);
          std::span<const float> contribution = delta;
          if (h != master) {
            out.totalBytes += entryBytes;
            if (lossy) {
              if (ef) util::add(rowOf(residual[h], l, n), delta);
              viaWire(delta, shipped);
              if (ef) util::sub(delta, shipped, rowOf(residual[h], l, n));
              contribution = shipped;
            }
          }
          if (isZero(contribution)) continue;
          if (contributions == 0) {
            util::copyInto(contribution, acc);
          } else {
            reducer.accumulate(acc, contribution);
          }
          ++contributions;
        }
        const auto canonical = rowOf(out.rows[master], l, n);
        if (contributions > 0) {
          reducer.finalize(acc, contributions);
          util::copyInto(rowOf(base[master], l, n), canonical);
          util::add(acc, canonical);
        }
        if (!naive && !pull && contributions == 0) continue;
        for (unsigned h = 0; h < hosts; ++h) {
          if (h == master) continue;
          out.totalBytes += entryBytes;
          viaWire(canonical, rowOf(out.rows[h], l, n));
        }
      }
    }
  }
  return out;
}

/// Run the engine over the config's update plan; updates are issued from the
/// host thread (deterministic), so any thread-count dependence can only come
/// from the sync path itself.
Replicas runEngine(const FuzzConfig& cfg, const Reducer& reducer) {
  const UpdatePlan plan(cfg);
  std::vector<std::unique_ptr<ModelGraph>> models(cfg.hosts);
  for (auto& m : models) m = std::make_unique<ModelGraph>(cfg.nodes, cfg.dim);
  const graph::BlockedPartition partition(cfg.nodes, cfg.hosts);
  sim::ClusterOptions copts;
  copts.numHosts = cfg.hosts;
  copts.workerThreadsPerHost = cfg.threads;
  SyncOptions sopts;
  sopts.codec = cfg.codec;
  sopts.errorFeedback = cfg.errorFeedback;
  const auto report = sim::runCluster(copts, [&](sim::HostContext& ctx) {
    ModelGraph& model = *models[ctx.id()];
    SyncEngine engine(ctx, model, partition, reducer, cfg.strategy, sopts);
    std::vector<float> d;
    for (unsigned round = 0; round < cfg.rounds; ++round) {
      for (int label = 0; label < graph::kNumLabels; ++label) {
        for (std::uint32_t node = 0; node < cfg.nodes; ++node) {
          if (!plan.touches(round, ctx.id(), node, label)) continue;
          plan.delta(round, ctx.id(), node, label, d);
          util::add(d, model.mutableRow(static_cast<Label>(label), node));
          model.markTouched(static_cast<Label>(label), node);
        }
      }
      engine.sync();
    }
  });
  Replicas out;
  out.totalBytes = report.totalBytes();
  for (const auto& m : models) {
    auto& rows = out.rows.emplace_back();
    for (int l = 0; l < graph::kNumLabels; ++l) {
      for (std::uint32_t n = 0; n < cfg.nodes; ++n) {
        const auto row = m->row(static_cast<Label>(l), n);
        rows.insert(rows.end(), row.begin(), row.end());
      }
    }
  }
  return out;
}

void expectEngineMatchesOracle(const FuzzConfig& cfg) {
  const auto reducer = makeReducer(cfg.reducerKind);
  const Replicas engine = runEngine(cfg, *reducer);
  const Replicas oracle = runOracle(cfg, *reducer);
  EXPECT_EQ(engine.totalBytes, oracle.totalBytes);
  for (unsigned host = 0; host < cfg.hosts; ++host) {
    for (std::size_t i = 0; i < oracle.rows[host].size(); ++i) {
      const std::size_t row = i / cfg.dim;
      ASSERT_EQ(std::bit_cast<std::uint32_t>(engine.rows[host][i]),
                std::bit_cast<std::uint32_t>(oracle.rows[host][i]))
          << "host " << host << " label " << row / cfg.nodes << " node " << row % cfg.nodes
          << " dim " << i % cfg.dim << ": engine " << engine.rows[host][i] << " oracle "
          << oracle.rows[host][i];
    }
  }
}

class SyncFuzz : public ::testing::TestWithParam<FuzzConfig> {};

TEST_P(SyncFuzz, ReplicasMatchOracle) { expectEngineMatchesOracle(GetParam()); }

std::vector<FuzzConfig> fuzzConfigs() {
  std::vector<FuzzConfig> out;
  std::uint64_t seed = 1000;
  for (const unsigned hosts : {1u, 2u, 3u, 5u}) {
    for (const int reducer : {0, 1, 2}) {
      for (const auto strategy :
           {SyncStrategy::kRepModelNaive, SyncStrategy::kRepModelOpt,
            SyncStrategy::kPullModel}) {
        out.push_back(FuzzConfig{hosts, 17, 3, 4, reducer, strategy, seed++});
      }
    }
  }
  // A couple of stranger shapes.
  out.push_back(FuzzConfig{4, 1, 8, 3, 0, SyncStrategy::kRepModelOpt, 77});
  out.push_back(FuzzConfig{6, 64, 1, 2, 2, SyncStrategy::kRepModelOpt, 78});
  return out;
}

INSTANTIATE_TEST_SUITE_P(Patterns, SyncFuzz, ::testing::ValuesIn(fuzzConfigs()));

class SyncFuzzParallel : public ::testing::TestWithParam<FuzzConfig> {};

TEST_P(SyncFuzzParallel, EngineMatchesOracle) { expectEngineMatchesOracle(GetParam()); }

std::vector<FuzzConfig> parallelConfigs() {
  struct CodecArm {
    SyncCodec codec;
    bool errorFeedback;
  };
  const CodecArm arms[] = {{SyncCodec::kFp32, true},
                           {SyncCodec::kFp16, true},
                           {SyncCodec::kFp16, false},
                           {SyncCodec::kInt8, true},
                           {SyncCodec::kInt8, false}};
  const SyncStrategy strategies[] = {SyncStrategy::kRepModelNaive, SyncStrategy::kRepModelOpt,
                                     SyncStrategy::kPullModel};
  std::vector<FuzzConfig> out;
  std::uint64_t seed = 9000;
  for (const CodecArm arm : arms) {
    for (const unsigned hosts : {1u, 2u, 4u, 8u}) {
      for (const unsigned threads : {1u, 2u, 4u}) {
        for (const SyncStrategy strategy : strategies) {
          for (const int reducer : {0, 1, 2}) {
            out.push_back(FuzzConfig{hosts, 33, 5, 3, reducer, strategy, seed++, threads,
                                     arm.codec, arm.errorFeedback});
          }
        }
      }
    }
  }
  // One-float rows at every codec: 6-byte fp16 and 9-byte int8 entries.
  int k = 0;
  for (const CodecArm arm : arms) {
    out.push_back(FuzzConfig{4, 64, 1, 3, k % 3, strategies[k % 3], seed++, 2, arm.codec,
                             arm.errorFeedback});
    ++k;
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Grid, SyncFuzzParallel, ::testing::ValuesIn(parallelConfigs()));

}  // namespace
}  // namespace gw2v::comm
