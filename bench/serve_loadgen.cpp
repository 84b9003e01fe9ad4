// Serving-layer load generator: trains a small model, publishes it as a v2
// checkpoint snapshot, then drives Zipfian top-k traffic through the sharded
// QueryEngine on a simulated H-host cluster — including one mid-run snapshot
// hot-swap — and reports QPS, latency quantiles, batch occupancy, cache
// hit-rate and comm volume as bench rows.
//
// Exit status is the correctness gate the CI smoke job relies on: after the
// swap, every sampled queryWord(w, 10) must be *identical* (same ids, same
// order) to the single-host eval::EmbeddingView reference — recall@10 below
// 1.0 exits nonzero.
//
// Environment knobs (on top of bench/common.h's GW2V_SCALE / GW2V_EPOCHS):
//   GW2V_HOSTS            serving hosts (default 4)
//   GW2V_SERVE_QUERIES    measured queries in the Zipf phase (default 400)
//
// A second workload then measures the ANN serving mode on a synthetic
// clustered matrix (big enough that cluster pruning has something to prune —
// the trained bench model is deliberately tiny). It publishes one snapshot
// with a publish-time IVF index and sweeps nprobe, reporting recall@10
// against the exact engine answers plus the per-stage scoring speedup from
// ServeMetrics. Exit gate: some swept nprobe must reach both thresholds.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "comm/rank_context.h"
#include "graph/model_io.h"
#include "runtime/thread_pool.h"
#include "serve/query_engine.h"
#include "serve/snapshot.h"
#include "sim/cluster.h"
#include "util/rng.h"

using namespace gw2v;

namespace {

// Zipf phase: client threads, traffic skew, and the engine's batching and
// cache settings.
constexpr unsigned kClients = 2;
constexpr double kZipf = 0.99;
constexpr unsigned kMaxBatch = 16;       // queries per scatter-gather round
constexpr unsigned kWindowUs = 200;      // batching window
constexpr std::size_t kCacheRows = 512;  // rank-0 LRU entries

// ANN phase: the synthetic matrix, the IVF index, the nprobe sweep and the
// two gate thresholds.
constexpr std::uint32_t kAnnRows = 65536;
constexpr std::uint32_t kAnnDim = 64;
constexpr std::uint32_t kAnnLists = 256;
constexpr unsigned kAnnQueries = 256;  // queries per swept point
constexpr unsigned kAnnSweep[] = {2, 4, 8, 16};
constexpr double kAnnRecallGate = 0.95;
constexpr double kAnnSpeedupGate = 10.0;

/// Inverse-CDF Zipf sampler over word ids. Ids are frequency-sorted by
/// construction (Vocabulary::finalize), so low ids are the hot head — the
/// same skew real embedding serving sees.
class ZipfSampler {
 public:
  ZipfSampler(std::uint32_t n, double exponent) : cdf_(n) {
    double sum = 0.0;
    for (std::uint32_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), exponent);
      cdf_[i] = sum;
    }
    for (auto& c : cdf_) c /= sum;
  }

  text::WordId sample(util::Rng& rng) const {
    const double u = rng.uniformDouble();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<text::WordId>(it == cdf_.end() ? cdf_.size() - 1
                                                      : it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

struct LoadgenReport {
  double wallSeconds = 0.0;
  double qps = 0.0;
  double p50 = 0.0, p95 = 0.0, p99 = 0.0, mean = 0.0;
  double batchOccupancy = 0.0;
  double cacheHitRate = 0.0;
  double recallAt10 = 0.0;
  std::uint64_t queries = 0;
  std::uint64_t rounds = 0;
  std::uint64_t swapsObserved = 0;
  std::uint64_t versionAfterSwap = 0;
  double bytesPerQuery = 0.0;
  double roundsPerQuery = 0.0;
};

/// One swept ANN operating point, measured on its own engine instance so the
/// latency histogram and per-stage counters are per-mode.
struct AnnPoint {
  unsigned nprobe = 0;
  double recallAt10 = 0.0;
  double scanUsPerQuery = 0.0;   // centroid scan + candidate scoring, rank 0
  double scoringSpeedup = 0.0;   // exact scan µs/query over this point's
  double candidateRatio = 0.0;
  double probesAvg = 0.0;
  double p50 = 0.0, p99 = 0.0;
};

struct AnnReport {
  double buildMillis = 0.0;
  double indexMiB = 0.0;
  double exactScanUsPerQuery = 0.0;
  double exactP50 = 0.0, exactP99 = 0.0;
  std::vector<AnnPoint> sweep;
};

/// Synthetic clustered matrix: `rows` points scattered around
/// sqrt-ish many random unit centers. Structure the IVF can exploit, shaped
/// like a converged embedding table (tight cosine neighbourhoods).
graph::ModelGraph makeClusteredModel(std::uint32_t rows, std::uint32_t dim,
                                     std::uint32_t clusters, float noise,
                                     std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> centers(static_cast<std::size_t>(clusters) * dim);
  for (std::uint32_t c = 0; c < clusters; ++c) {
    double n2 = 0.0;
    float* ctr = centers.data() + static_cast<std::size_t>(c) * dim;
    for (std::uint32_t d = 0; d < dim; ++d) {
      ctr[d] = static_cast<float>(rng.normal());
      n2 += static_cast<double>(ctr[d]) * ctr[d];
    }
    const float inv = static_cast<float>(1.0 / std::sqrt(n2));
    for (std::uint32_t d = 0; d < dim; ++d) ctr[d] *= inv;
  }
  graph::ModelGraph model(rows, dim);
  for (std::uint32_t w = 0; w < rows; ++w) {
    // Random cluster per row (not round-robin): keeps the deterministic
    // strided k-means seeds from all landing in one mixture component.
    const float* ctr =
        centers.data() + static_cast<std::size_t>(rng.bounded(clusters)) * dim;
    auto row = model.mutableRow(graph::Label::kEmbedding, w);
    for (std::uint32_t d = 0; d < dim; ++d)
      row[d] = ctr[d] + noise * static_cast<float>(rng.normal());
  }
  return model;
}

/// Drive `numQueries` strided queryWord calls through a fresh engine on a
/// fresh cluster, collecting per-query neighbour ids and the rank-0 engine
/// metrics. One call per operating point keeps histograms per-mode.
struct PhaseResult {
  std::vector<std::vector<text::WordId>> ids;
  double scanUsPerQuery = 0.0;
  double centroidUsPerQuery = 0.0;
  double candidateRatio = 0.0;
  double probesAvg = 0.0;
  double p50 = 0.0, p99 = 0.0;
};

PhaseResult runAnnPhase(const serve::SnapshotStore& store, unsigned hosts,
                        unsigned numQueries, std::uint32_t rows,
                        const serve::QueryOptions& qo) {
  PhaseResult out;
  out.ids.resize(numQueries);
  sim::ClusterOptions copts;
  copts.numHosts = hosts;
  serve::ServeOptions opts;
  opts.cacheCapacity = 0;  // measure scoring, not the front-end cache
  sim::runCluster(copts, [&](comm::RankContext& ctx) {
    serve::QueryEngine engine(ctx.transport(), ctx.id(), store, opts);
    engine.runWithClient([&](serve::QueryEngine&) {
      const std::uint32_t stride = std::max<std::uint32_t>(1, rows / numQueries);
      for (unsigned q = 0; q < numQueries; ++q) {
        const auto res =
            engine.queryWord(static_cast<text::WordId>((q * stride) % rows), 10, qo);
        out.ids[q].reserve(res.neighbors.size());
        for (const auto& c : res.neighbors) out.ids[q].push_back(c.id);
      }
      const auto& m = engine.metrics();
      out.scanUsPerQuery = qo.mode == serve::QueryMode::kAnn ? m.annScanMicrosPerQuery()
                                                             : m.exactScanMicrosPerQuery();
      out.candidateRatio = m.annCandidateRatio();
      const std::uint64_t annQ = m.annQueries.load();
      out.centroidUsPerQuery =
          annQ == 0 ? 0.0
                    : static_cast<double>(m.annCentroidMicros.load()) / static_cast<double>(annQ);
      out.probesAvg =
          annQ == 0 ? 0.0 : static_cast<double>(m.annProbeCount.load()) / annQ;
      out.p50 = m.latency.quantileMicros(0.50);
      out.p99 = m.latency.quantileMicros(0.99);
    });
  });
  return out;
}

}  // namespace

int main() {
  const double scale = bench::envDouble("GW2V_SCALE", 0.05);
  const unsigned epochs = bench::envUnsigned("GW2V_EPOCHS", 1);
  const unsigned hosts = bench::envUnsigned("GW2V_HOSTS", 4);
  const unsigned numQueries = bench::envUnsigned("GW2V_SERVE_QUERIES", 400);

  serve::ServeOptions opts;
  opts.maxBatch = kMaxBatch;
  opts.batchWindowMicros = kWindowUs;
  opts.cacheCapacity = kCacheRows;

  bench::printHeader("Serving layer — sharded top-k under Zipfian load",
                     "serving extension (no paper figure); DESIGN.md §5d");

  // ---- Train a small model and publish it the way a trainer would: via a
  // self-contained v2 checkpoint on disk.
  const auto data = bench::prepare(synth::datasetCatalog(scale)[0]);
  core::TrainOptions topts;
  topts.sgns = bench::benchSgns();
  topts.epochs = epochs;
  topts.numHosts = 1;
  topts.trackLoss = false;
  const auto trained = core::GraphWord2Vec(data.vocab, topts).train(data.corpus);
  std::printf("trained %s: vocab=%u dim=%u epochs=%u\n", data.info.paperName.c_str(),
              data.vocab.size(), trained.model.dim(), epochs);

  const char* tmpdir = std::getenv("TMPDIR");
  const std::string ckptPath =
      std::string(tmpdir != nullptr ? tmpdir : "/tmp") + "/gw2v_serve_loadgen_ckpt.bin";
  graph::saveCheckpoint(ckptPath, trained.model, &data.vocab);

  serve::SnapshotStore store(std::max(hosts, 1u) + 1);
  store.publish(serve::EmbeddingSnapshot::fromCheckpointFile(ckptPath, 1));
  std::remove(ckptPath.c_str());

  // The hot-swap payload: a successor snapshot standing in for "the trainer
  // published a newer checkpoint" (same vocab, different rows).
  graph::ModelGraph model2 = trained.model;
  model2.randomizeEmbeddings(0xc0ffee);
  const auto snap2 = std::make_shared<const serve::EmbeddingSnapshot>(model2, &data.vocab, 2);
  const eval::EmbeddingView view2(model2, data.vocab);

  const ZipfSampler sampler(data.vocab.size(), kZipf);
  const std::uint32_t recallSample = std::min<std::uint32_t>(200, data.vocab.size());

  LoadgenReport rep;
  bool gateFailed = false;

  sim::ClusterOptions copts;
  copts.numHosts = hosts;
  const sim::ClusterReport cluster = sim::runCluster(copts, [&](comm::RankContext& ctx) {
    serve::QueryEngine engine(ctx.transport(), ctx.id(), store, opts);
    engine.runWithClient([&](serve::QueryEngine&) {
      // Phase A — measured Zipf traffic from kClients concurrent threads,
      // each joined before the first client error is rethrown.
      const auto t0 = std::chrono::steady_clock::now();
      std::vector<std::thread> workers;
      std::vector<std::exception_ptr> errors(kClients);
      for (unsigned c = 0; c < kClients; ++c) {
        workers.emplace_back([&, c] {
          try {
            util::Rng rng(0x5eed + c);
            const unsigned mine = numQueries / kClients + (c < numQueries % kClients ? 1 : 0);
            for (unsigned i = 0; i < mine; ++i) {
              (void)engine.queryWord(sampler.sample(rng), 10);
            }
          } catch (...) {
            errors[c] = std::current_exception();
          }
        });
      }
      for (auto& w : workers) w.join();
      for (const auto& e : errors)
        if (e) std::rethrow_exception(e);
      rep.wallSeconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

      // Phase B — hot swap while the engine keeps serving.
      store.publish(snap2);
      rep.versionAfterSwap = engine.queryWord(0, 10).version;

      // Phase C — the correctness gate: sharded answers after the swap must
      // be identical to the single-host reference over the new snapshot.
      std::uint64_t matched = 0, expected = 0;
      for (std::uint32_t s = 0; s < recallSample; ++s) {
        const text::WordId w =
            static_cast<text::WordId>((s * 7919u) % data.vocab.size());
        const auto got = engine.queryWord(w, 10).neighbors;
        const auto want = view2.nearestTo(w, 10);
        expected += want.size();
        if (got.size() == want.size()) {
          for (std::size_t i = 0; i < want.size(); ++i) {
            if (got[i].id == want[i].word && got[i].score == want[i].similarity) ++matched;
          }
        }
      }
      rep.recallAt10 = expected == 0 ? 0.0 : static_cast<double>(matched) / expected;

      const auto& m = engine.metrics();
      rep.queries = m.queries.load();
      rep.rounds = m.batches.load();
      rep.qps = rep.wallSeconds > 0.0 ? static_cast<double>(numQueries) / rep.wallSeconds : 0.0;
      rep.p50 = m.latency.quantileMicros(0.50);
      rep.p95 = m.latency.quantileMicros(0.95);
      rep.p99 = m.latency.quantileMicros(0.99);
      rep.mean = m.latency.meanMicros();
      rep.batchOccupancy = m.batchOccupancy(opts.maxBatch);
      rep.cacheHitRate = m.cacheHitRate();
      rep.swapsObserved = m.snapshotSwaps.load();
    });
  });

  const std::uint64_t served = rep.queries;
  rep.bytesPerQuery =
      served > 0 ? static_cast<double>(cluster.totalBytes()) / static_cast<double>(served) : 0.0;
  rep.roundsPerQuery =
      served > 0 ? static_cast<double>(rep.rounds) / static_cast<double>(served) : 0.0;

  // ---- ANN sweep on a synthetic clustered matrix. --------------------------
  AnnReport ann;
  {
    const auto annModel = makeClusteredModel(kAnnRows, kAnnDim, kAnnLists, 0.08f, 0xa115eedULL);
    serve::AnnBuildOptions bopts;
    bopts.numLists = kAnnLists;
    runtime::ThreadPool pool;
    serve::SnapshotStore annStore(std::max(hosts, 1u) + 1);
    annStore.publish(serve::EmbeddingSnapshot::fromModel(annModel, nullptr, 1, bopts, &pool));
    {
      const auto* idx = annStore.current()->annIndex();
      ann.buildMillis = static_cast<double>(idx->buildMicros()) / 1000.0;
      ann.indexMiB = static_cast<double>(idx->memoryBytes()) / (1024.0 * 1024.0);
    }
    std::printf("ann index: rows=%u dim=%u lists=%u build=%.0fms\n", kAnnRows, kAnnDim,
                kAnnLists, ann.buildMillis);

    serve::QueryOptions exactQo;  // the oracle run
    const PhaseResult exact = runAnnPhase(annStore, hosts, kAnnQueries, kAnnRows, exactQo);
    ann.exactScanUsPerQuery = exact.scanUsPerQuery;
    ann.exactP50 = exact.p50;
    ann.exactP99 = exact.p99;

    for (const unsigned nprobe : kAnnSweep) {
      serve::QueryOptions qo;
      qo.mode = serve::QueryMode::kAnn;
      qo.nprobe = nprobe;
      const PhaseResult got = runAnnPhase(annStore, hosts, kAnnQueries, kAnnRows, qo);
      AnnPoint pt;
      pt.nprobe = nprobe;
      std::uint64_t hitSum = 0, wantSum = 0;
      for (unsigned q = 0; q < kAnnQueries; ++q) {
        wantSum += exact.ids[q].size();
        for (const auto id : exact.ids[q]) {
          hitSum += std::find(got.ids[q].begin(), got.ids[q].end(), id) != got.ids[q].end();
        }
      }
      pt.recallAt10 = wantSum == 0 ? 0.0 : static_cast<double>(hitSum) / wantSum;
      pt.scanUsPerQuery = got.scanUsPerQuery;
      pt.scoringSpeedup =
          got.scanUsPerQuery > 0.0 ? exact.scanUsPerQuery / got.scanUsPerQuery : 0.0;
      pt.candidateRatio = got.candidateRatio;
      pt.probesAvg = got.probesAvg;
      pt.p50 = got.p50;
      pt.p99 = got.p99;
      ann.sweep.push_back(pt);
      std::printf(
          "ann nprobe=%-3u recall@10=%.4f scan_us=%.2f (centroid %.2f) speedup=%.1fx "
          "ratio=%.3f\n",
          pt.nprobe, pt.recallAt10, pt.scanUsPerQuery, got.centroidUsPerQuery,
          pt.scoringSpeedup, pt.candidateRatio);
    }
  }

  bench::Rows rows("serve_loadgen");
  const std::string zipfCfg = bench::config(
      {{"workload", "zipf"}, {"hosts", hosts}, {"clients", kClients}, {"max_batch", kMaxBatch},
       {"window_us", kWindowUs}, {"cache", kCacheRows}, {"zipf", kZipf}});
  rows.add(zipfCfg, "queries", "count", static_cast<double>(rep.queries));
  rows.add(zipfCfg, "zipf_wall_s", "s", rep.wallSeconds);
  rows.add(zipfCfg, "qps", "queries/s", rep.qps);
  rows.add(zipfCfg, "latency_p50_wall_us", "us", rep.p50);
  rows.add(zipfCfg, "latency_p95_wall_us", "us", rep.p95);
  rows.add(zipfCfg, "latency_p99_wall_us", "us", rep.p99);
  rows.add(zipfCfg, "latency_mean_wall_us", "us", rep.mean);
  rows.add(zipfCfg, "rounds", "count", static_cast<double>(rep.rounds));
  rows.add(zipfCfg, "rounds_per_query", "ratio", rep.roundsPerQuery);
  rows.add(zipfCfg, "batch_occupancy", "ratio", rep.batchOccupancy);
  rows.add(zipfCfg, "cache_hit_rate", "ratio", rep.cacheHitRate);
  rows.add(zipfCfg, "bytes_per_query", "B", rep.bytesPerQuery);
  rows.add(zipfCfg, "snapshot_swaps_observed", "count", static_cast<double>(rep.swapsObserved));
  rows.add(zipfCfg, "version_after_swap", "count", static_cast<double>(rep.versionAfterSwap));
  rows.add(zipfCfg, "recall_at_10", "ratio", rep.recallAt10);
  const auto annCfg = [&](const char* mode) {
    return bench::config({{"workload", "ann"}, {"hosts", hosts}, {"rows", kAnnRows},
                          {"dim", kAnnDim}, {"lists", kAnnLists}, {"mode", mode}});
  };
  rows.add(annCfg("index"), "ann_build_wall_ms", "ms", ann.buildMillis);
  rows.add(annCfg("index"), "ann_index_mib", "MiB", ann.indexMiB);
  rows.add(annCfg("exact"), "scan_wall_us_per_query", "us", ann.exactScanUsPerQuery);
  rows.add(annCfg("exact"), "latency_p50_wall_us", "us", ann.exactP50);
  rows.add(annCfg("exact"), "latency_p99_wall_us", "us", ann.exactP99);
  for (const AnnPoint& p : ann.sweep) {
    const std::string cfg = annCfg("ann") + ",nprobe=" + std::to_string(p.nprobe);
    rows.add(cfg, "recall_at_10", "ratio", p.recallAt10);
    rows.add(cfg, "scan_wall_us_per_query", "us", p.scanUsPerQuery);
    rows.add(cfg, "scoring_speedup", "x", p.scoringSpeedup);
    rows.add(cfg, "candidate_ratio", "ratio", p.candidateRatio);
    rows.add(cfg, "probes_avg", "count", p.probesAvg);
    rows.add(cfg, "latency_p50_wall_us", "us", p.p50);
    rows.add(cfg, "latency_p99_wall_us", "us", p.p99);
  }

  if (rep.recallAt10 != 1.0) {
    std::fprintf(stderr, "FAIL: recall@10 = %.4f (expected exactly 1.0)\n", rep.recallAt10);
    gateFailed = true;
  }
  if (rep.versionAfterSwap != 2) {
    std::fprintf(stderr, "FAIL: post-swap version = %llu (expected 2)\n",
                 static_cast<unsigned long long>(rep.versionAfterSwap));
    gateFailed = true;
  }
  const bool anyPoint = std::any_of(ann.sweep.begin(), ann.sweep.end(), [](const AnnPoint& p) {
    return p.recallAt10 >= kAnnRecallGate && p.scoringSpeedup >= kAnnSpeedupGate;
  });
  if (!anyPoint) {
    std::fprintf(stderr,
                 "FAIL: no swept nprobe reached recall@10 >= %.2f at >= %.1fx scoring "
                 "speedup\n",
                 kAnnRecallGate, kAnnSpeedupGate);
    gateFailed = true;
  }
  return gateFailed ? 1 : 0;
}
