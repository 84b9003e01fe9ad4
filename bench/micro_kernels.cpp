// Microbenchmarks of the hot kernels on the SGNS critical path: vector
// dot/axpy at the paper's dimensionality (200) and the bench dimensionality
// (32), sigmoid table vs exact, alias-method negative sampling, one full
// sgnsStep, and the bit-vector ops the sparse sync depends on.

#include <benchmark/benchmark.h>

#include <thread>
#include <vector>

#include "comm/collectives.h"
#include "comm/transport.h"
#include "core/sgns.h"
#include "core/sgns_batched.h"
#include "sim/network.h"
#include "text/sampling.h"
#include "util/alias_sampler.h"
#include "util/bitvector.h"
#include "util/rng.h"
#include "util/sigmoid_table.h"
#include "util/simd.h"
#include "util/vecmath.h"

namespace {

using namespace gw2v;

void BM_Dot(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  std::vector<float> a(dim, 0.5f), b(dim, 0.25f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::dot(a, b));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(dim));
}
BENCHMARK(BM_Dot)->Arg(32)->Arg(200);

void BM_Axpy(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  std::vector<float> x(dim, 0.5f), y(dim, 0.25f);
  for (auto _ : state) {
    util::axpy(0.01f, x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(dim));
}
BENCHMARK(BM_Axpy)->Arg(32)->Arg(200);

// Scalar-vs-dispatch comparison: the *Scalar variants pin the portable
// kernels; the *Simd variants use whatever tier detectTier() picked (the
// bench log header below prints which). Same loop bodies, so the ratio is
// the pure kernel speedup.
void BM_DotScalar(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  const auto& k = util::simd::kernelsFor(util::simd::Tier::kScalar);
  std::vector<float> a(dim, 0.5f), b(dim, 0.25f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(k.dot(a.data(), b.data(), dim));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(dim));
}
BENCHMARK(BM_DotScalar)->Arg(32)->Arg(200);

void BM_DotSimd(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  const auto& k = util::simd::activeKernels();
  std::vector<float> a(dim, 0.5f), b(dim, 0.25f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(k.dot(a.data(), b.data(), dim));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(dim));
}
BENCHMARK(BM_DotSimd)->Arg(32)->Arg(200);

void BM_AxpyScalar(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  const auto& k = util::simd::kernelsFor(util::simd::Tier::kScalar);
  std::vector<float> x(dim, 0.5f), y(dim, 0.25f);
  for (auto _ : state) {
    k.axpy(0.01f, x.data(), y.data(), dim);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(dim));
}
BENCHMARK(BM_AxpyScalar)->Arg(32)->Arg(200);

void BM_AxpySimd(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  const auto& k = util::simd::activeKernels();
  std::vector<float> x(dim, 0.5f), y(dim, 0.25f);
  for (auto _ : state) {
    k.axpy(0.01f, x.data(), y.data(), dim);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(dim));
}
BENCHMARK(BM_AxpySimd)->Arg(32)->Arg(200);

void BM_SigmoidTable(benchmark::State& state) {
  const util::SigmoidTable table;
  float x = -5.0f;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table(x));
    x = x > 5.0f ? -5.0f : x + 0.001f;
  }
}
BENCHMARK(BM_SigmoidTable);

void BM_SigmoidExact(benchmark::State& state) {
  float x = -5.0f;
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::SigmoidTable::exact(x));
    x = x > 5.0f ? -5.0f : x + 0.001f;
  }
}
BENCHMARK(BM_SigmoidExact);

void BM_AliasSample(benchmark::State& state) {
  const auto vocab = static_cast<std::size_t>(state.range(0));
  std::vector<double> weights(vocab);
  util::Rng rng(1);
  for (auto& w : weights) w = 0.1 + rng.uniformDouble();
  const util::AliasSampler sampler{std::span<const double>(weights)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.sample(rng));
  }
}
BENCHMARK(BM_AliasSample)->Arg(1000)->Arg(400'000);

void BM_NegativeSamplerExcluding(benchmark::State& state) {
  std::vector<std::uint64_t> counts(10'000);
  util::Rng rng(2);
  for (auto& c : counts) c = 1 + rng.bounded(1000);
  const text::NegativeSampler sampler(counts);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.sample(rng, 5));
  }
}
BENCHMARK(BM_NegativeSamplerExcluding);

// Args: dim, negatives, model rows. The last two rows are the perfbench
// workload shapes (w2v-sync-h3: dim 64, 15 negatives, 10,633 words;
// node2vec-stream-h2: dim 128, 5 negatives, 2,048 nodes), so their ns per
// pair track the end-to-end probe's core.kernel_ns_per_pair.
void BM_SgnsStep(benchmark::State& state) {
  const auto dim = static_cast<std::uint32_t>(state.range(0));
  const auto negs = static_cast<unsigned>(state.range(1));
  const auto rows = static_cast<std::uint32_t>(state.range(2));
  graph::ModelGraph model(rows, dim);
  model.randomizeEmbeddings(3);
  const util::SigmoidTable sigmoid;
  core::SgnsScratch scratch(dim);
  util::Rng rng(4);
  std::vector<text::WordId> negatives(negs);
  for (auto _ : state) {
    const auto center = static_cast<text::WordId>(rng.bounded(rows));
    const auto context = static_cast<text::WordId>(rng.bounded(rows));
    for (auto& n : negatives) n = static_cast<text::WordId>(rng.bounded(rows));
    benchmark::DoNotOptimize(
        core::sgnsStep(model, center, context, negatives, 0.025f, sigmoid, scratch));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SgnsStep)
    ->Args({32, 5, 1000})
    ->Args({32, 15, 1000})
    ->Args({200, 15, 1000})
    ->Args({64, 15, 10'633})
    ->Args({128, 5, 2048});

// Shared-negative minibatch kernel. items_per_second counts (center,
// context) pairs, i.e. iterations * B, so it is directly comparable with
// BM_SgnsStep above. On a 4-vCPU AVX-512 Xeon the B=16 row at dim 200 ran
// 2.60M pairs/s against 1.51M/s for BM_SgnsStep/200/15/1000, 1.7x (medians
// of three 7-repetition runs).
void BM_SgnsStepBatched(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  const auto dim = static_cast<std::uint32_t>(state.range(1));
  constexpr unsigned kNegs = 15;
  graph::ModelGraph model(1000, dim);
  model.randomizeEmbeddings(3);
  const util::SigmoidTable sigmoid;
  core::SgnsBatchScratch scratch(dim, static_cast<std::uint32_t>(batch), kNegs);
  util::Rng rng(4);
  std::vector<text::WordId> contexts(batch), negatives(kNegs);
  for (auto _ : state) {
    const auto center = static_cast<text::WordId>(rng.bounded(1000));
    for (auto& c : contexts) c = static_cast<text::WordId>(rng.bounded(1000));
    for (auto& n : negatives) n = static_cast<text::WordId>(rng.bounded(1000));
    benchmark::DoNotOptimize(core::sgnsStepBatched(model, center, contexts, negatives,
                                                   0.025f, sigmoid, scratch));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_SgnsStepBatched)
    ->Args({1, 32})
    ->Args({8, 32})
    ->Args({16, 32})
    ->Args({1, 200})
    ->Args({8, 200})
    ->Args({16, 200});

// Allreduce algorithms head-to-head on the simulated fabric: the
// bandwidth-optimal ring and the binomial tree. One iteration = one full
// allreduce across `hosts` threads; bytes_per_second counts the logical
// payload once.
void BM_Collectives(benchmark::State& state) {
  const auto algo = static_cast<comm::CollectiveAlgo>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  const auto numHosts = static_cast<unsigned>(state.range(2));
  for (auto _ : state) {
    sim::Network net(numHosts);
    std::vector<std::thread> threads;
    threads.reserve(numHosts);
    for (unsigned h = 0; h < numHosts; ++h) {
      threads.emplace_back([&net, h, n, algo] {
        comm::SimTransport transport(net);
        comm::Collectives coll(transport, h, comm::TagSpace::kBench);
        std::vector<double> v(n, static_cast<double>(h));
        coll.allReduceSum(v, algo);
        benchmark::DoNotOptimize(v.data());
      });
    }
    for (auto& t : threads) t.join();
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(n) *
                          static_cast<std::int64_t>(sizeof(double)));
  state.SetLabel(comm::collectiveAlgoName(algo));
}
BENCHMARK(BM_Collectives)
    ->ArgNames({"algo", "n", "hosts"})
    ->Unit(benchmark::kMillisecond)
    ->Args({static_cast<int>(comm::CollectiveAlgo::kRing), 1 << 10, 8})
    ->Args({static_cast<int>(comm::CollectiveAlgo::kTree), 1 << 10, 8})
    ->Args({static_cast<int>(comm::CollectiveAlgo::kRing), 1 << 16, 8})
    ->Args({static_cast<int>(comm::CollectiveAlgo::kTree), 1 << 16, 8})
    ->Args({static_cast<int>(comm::CollectiveAlgo::kRing), 1 << 20, 8})
    ->Args({static_cast<int>(comm::CollectiveAlgo::kTree), 1 << 20, 8})
    ->Args({static_cast<int>(comm::CollectiveAlgo::kRing), 1 << 10, 32})
    ->Args({static_cast<int>(comm::CollectiveAlgo::kTree), 1 << 10, 32})
    ->Args({static_cast<int>(comm::CollectiveAlgo::kRing), 1 << 16, 32})
    ->Args({static_cast<int>(comm::CollectiveAlgo::kTree), 1 << 16, 32})
    ->Args({static_cast<int>(comm::CollectiveAlgo::kRing), 1 << 20, 32})
    ->Args({static_cast<int>(comm::CollectiveAlgo::kTree), 1 << 20, 32});

void BM_BitVectorSet(benchmark::State& state) {
  util::BitVector bv(1 << 20);
  util::Rng rng(5);
  for (auto _ : state) {
    bv.set(rng.bounded(1 << 20));
  }
}
BENCHMARK(BM_BitVectorSet);

void BM_BitVectorForEachSet(benchmark::State& state) {
  const auto density = static_cast<std::size_t>(state.range(0));
  util::BitVector bv(1 << 18);
  for (std::size_t i = 0; i < (1 << 18); i += density) bv.set(i);
  for (auto _ : state) {
    std::size_t sum = 0;
    bv.forEachSet([&](std::size_t i) { sum += i; });
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_BitVectorForEachSet)->Arg(2)->Arg(64)->Arg(4096);

}  // namespace

int main(int argc, char** argv) {
  // Record which dispatch tier the *Simd and sgns benchmarks actually ran
  // on; shows up in the console header and the JSON "context" block.
  benchmark::AddCustomContext(
      "gw2v_simd_tier", gw2v::util::simd::tierName(gw2v::util::simd::activeTier()));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
