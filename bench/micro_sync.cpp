// Microbenchmark of one full sync round (pack -> exchange -> fold -> apply)
// at word2vec scale: 100k vocab x dim 200, H=2 simulated hosts, RepModel-Opt.
// Sweeps the dirty fraction (1/10/100%), the per-host worker pool (1 and 4
// threads), and the wire codec. UseManualTime reports the sync() wall alone —
// replica setup, the training-phase touches, and cluster spin-up are all
// untimed.
//
// The regression gate (EXPERIMENTS.md) is the 4-thread fp32 rows against
// the same rows at the parent commit: no slower beyond run-to-run spread.
// Compare only runs from hosts with std::thread::hardware_concurrency() >= 4
// (on fewer cores the pool degrades to inline execution).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "comm/reducer.h"
#include "comm/sync_engine.h"
#include "graph/model_graph.h"
#include "graph/partition.h"
#include "sim/cluster.h"
#include "util/rng.h"
#include "util/simd.h"

namespace {

using namespace gw2v;

constexpr std::uint32_t kVocab = 100000;
constexpr std::uint32_t kDim = 200;
constexpr unsigned kHosts = 2;
constexpr unsigned kRoundsPerIter = 2;

/// Replicas and touch order are built once and shared across configurations:
/// sync rebaselines the model every round, so reuse is safe, and the 320MB of
/// table storage is paid a single time.
struct SyncFixture {
  std::vector<std::unique_ptr<graph::ModelGraph>> replicas;
  std::vector<std::vector<std::uint32_t>> touch;  // per-host shuffled ids
  graph::BlockedPartition partition{kVocab, kHosts};

  SyncFixture() {
    util::Rng rng(17);
    for (unsigned h = 0; h < kHosts; ++h) {
      replicas.push_back(std::make_unique<graph::ModelGraph>(kVocab, kDim));
      replicas.back()->randomizeEmbeddings(29 + h);
      auto& t = touch.emplace_back(kVocab);
      std::iota(t.begin(), t.end(), 0u);
      for (std::uint32_t n = kVocab - 1; n > 0; --n) {
        std::swap(t[n], t[rng.bounded(n + 1)]);
      }
    }
  }

  static SyncFixture& instance() {
    static SyncFixture f;
    return f;
  }
};

void BM_SyncRound(benchmark::State& state) {
  const auto dirtyPct = static_cast<std::uint32_t>(state.range(0));
  const auto threads = static_cast<unsigned>(state.range(1));
  const auto codec = static_cast<comm::SyncCodec>(state.range(2));
  const std::uint32_t numDirty = kVocab / 100 * dirtyPct;

  SyncFixture& fix = SyncFixture::instance();
  const comm::SumReducer sum;
  comm::SyncOptions sopts;
  sopts.codec = codec;

  std::uint64_t shippedBytes = 0;
  for (auto _ : state) {
    std::vector<double> syncWall(kHosts, 0.0);
    sim::ClusterOptions copts;
    copts.numHosts = kHosts;
    copts.workerThreadsPerHost = threads;
    const sim::ClusterReport report = sim::runCluster(copts, [&](sim::HostContext& ctx) {
      graph::ModelGraph& m = *fix.replicas[ctx.id()];
      comm::SyncEngine engine(ctx, m, fix.partition, sum, comm::SyncStrategy::kRepModelOpt,
                              sopts);
      const auto& touch = fix.touch[ctx.id()];
      for (unsigned r = 0; r < kRoundsPerIter; ++r) {
        for (std::uint32_t i = 0; i < numDirty; ++i) {
          const std::uint32_t n = touch[i];
          m.mutableRow(graph::Label::kEmbedding, n)[r % kDim] += 0.01f;
          m.mutableRow(graph::Label::kTraining, n)[(r + 1) % kDim] -= 0.01f;
        }
        const auto t0 = std::chrono::steady_clock::now();
        engine.sync();
        syncWall[ctx.id()] +=
            std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
      }
    });
    shippedBytes += report.totalBytes();
    state.SetIterationTime(*std::max_element(syncWall.begin(), syncWall.end()) /
                           kRoundsPerIter);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(shippedBytes / kRoundsPerIter));
  state.SetLabel(std::to_string(dirtyPct) + "% dirty, " + std::to_string(threads) +
                 (threads == 1 ? " thread, " : " threads, ") + comm::syncCodecName(codec));
}

// Args: dirty percent, worker threads per host, wire codec (comm::SyncCodec
// value). The 1- vs 4-thread rows separate parallel speedup from the
// single-thread cost of the pack/fold layout. The lossy-codec rows quantify
// the encode/decode (+ error feedback) cost the smaller wire volume buys.
BENCHMARK(BM_SyncRound)
    ->Args({1, 1, 0})
    ->Args({10, 1, 0})
    ->Args({100, 1, 0})
    ->Args({1, 4, 0})
    ->Args({10, 4, 0})
    ->Args({100, 4, 0})
    ->Args({10, 4, 1})
    ->Args({100, 4, 1})
    ->Args({10, 4, 2})
    ->Args({100, 4, 2})
    ->UseManualTime()
    ->Iterations(3)
    ->Unit(benchmark::kMillisecond);

/// Raw codec kernel throughput on the active SIMD tier: fp32<->fp16 and
/// fp32<->int8 (the encode direction includes the maxAbs scan that computes
/// the row scale, mirroring what the pack path pays per row).
void BM_Convert(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto mode = state.range(1);
  const auto& kernels = util::simd::activeKernels();

  std::vector<float> src(n), dst(n);
  std::vector<std::uint16_t> half(n);
  std::vector<std::int8_t> bytes(n);
  util::Rng rng(99);
  for (auto& v : src) v = rng.uniformFloat(-1.0f, 1.0f);
  kernels.fp32ToFp16(src.data(), half.data(), n);
  kernels.fp32ToInt8(src.data(), 127.0f, bytes.data(), n);

  const char* label = "f32->f16";
  for (auto _ : state) {
    switch (mode) {
      case 0:
        kernels.fp32ToFp16(src.data(), half.data(), n);
        benchmark::DoNotOptimize(half.data());
        break;
      case 1:
        label = "f16->f32";
        kernels.fp16ToFp32(half.data(), dst.data(), n);
        benchmark::DoNotOptimize(dst.data());
        break;
      case 2: {
        label = "f32->i8 (incl maxAbs)";
        const float m = kernels.maxAbs(src.data(), n);
        kernels.fp32ToInt8(src.data(), m > 0.0f ? 127.0f / m : 0.0f, bytes.data(), n);
        benchmark::DoNotOptimize(bytes.data());
        break;
      }
      default:
        label = "i8->f32";
        kernels.int8ToFp32(bytes.data(), 1.0f / 127.0f, dst.data(), n);
        benchmark::DoNotOptimize(dst.data());
        break;
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n) * 4);
  state.SetLabel(std::string(label) + ", n=" + std::to_string(n));
}

// Args: element count (one dim-200 row and a 100k-row sweep), kernel mode.
BENCHMARK(BM_Convert)
    ->Args({200, 0})
    ->Args({200, 1})
    ->Args({200, 2})
    ->Args({200, 3})
    ->Args({100000, 0})
    ->Args({100000, 1})
    ->Args({100000, 2})
    ->Args({100000, 3})
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
