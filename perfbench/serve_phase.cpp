// The serving stage: publish the trained model, drive closed-loop Zipf ANN
// traffic through the sharded query engine while a publisher republishes
// incremental snapshots, then audit the answers.

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <thread>

#include "comm/transport.h"
#include "eval/embedding_view.h"
#include "phases.h"
#include "runtime/thread_pool.h"
#include "serve/query_engine.h"
#include "serve/snapshot.h"
#include "serve/topk.h"
#include "sim/cluster.h"

namespace gw2v::perfbench {

namespace {

constexpr unsigned kRanks = 2;
constexpr unsigned kClients = 2;
constexpr unsigned kTopK = 10;
constexpr std::uint32_t kNprobe = 8;
constexpr unsigned kPublishEveryMs = 100;
constexpr double kChangedRowFraction = 0.01;
constexpr unsigned kExactChecks = 64;
/// Every kAuditEvery-th published version is kept for the recall audit
/// (keeping all of them would dominate peak memory).
constexpr std::uint64_t kAuditEvery = 32;
constexpr std::size_t kAuditPerVersion = 64;
/// Summary window; shorter only when the whole load is under 4 s (tiny runs).
constexpr double kMaxWindowSeconds = 1.0;
constexpr float kChangeNoise = 0.1f;  // per-row perturbation, relative to its RMS

/// Inverse-CDF Zipf sampler over word ids. Ids are frequency-sorted, so low
/// ids are the hot head.
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
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.uniformDouble());
    return static_cast<text::WordId>(std::min<std::size_t>(it - cdf_.begin(), cdf_.size() - 1));
  }

 private:
  std::vector<double> cdf_;
};

/// One answered ANN query, kept for the recall audit.
struct Served {
  text::WordId word;
  std::uint64_t version;
  std::array<text::WordId, kTopK> ids;
};

/// Latency summary of one client over one window of the load.
struct WindowStats {
  std::size_t count = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};

/// Per-client record. Latencies are summarized at every window boundary
/// and the raw samples dropped, so memory does not grow with throughput.
struct ClientLog {
  std::vector<WindowStats> windows;
  std::vector<double> current;  // latencies (us) of the open window
  std::vector<Served> served;   // answers from audit versions only
  std::map<std::uint64_t, std::size_t> servedPerVersion;
  std::uint64_t attempted = 0;
  std::uint64_t shortReplies = 0;
  std::uint64_t unknownVersions = 0;
  std::uint64_t exceptions = 0;

  void closeWindow() {
    windows.push_back(WindowStats{current.size(), quantile(current, 0.50),
                                  quantile(current, 0.90), quantile(current, 0.99)});
    current.clear();
  }
};

bool audited(std::uint64_t version) { return version == 1 || version % kAuditEvery == 0; }

/// Perturb about `fraction` of the embedding rows through tracked writes, so
/// the next incremental snapshot renormalizes exactly those rows.
void changeRows(graph::ModelGraph& model, double fraction, util::Rng& rng) {
  const std::uint32_t n = model.numNodes();
  const auto count = static_cast<std::uint32_t>(std::max(1.0, fraction * n));
  for (std::uint32_t i = 0; i < count; ++i) {
    auto row = model.mutableRow(graph::Label::kEmbedding,
                                static_cast<std::uint32_t>(rng.bounded(n)));
    double sq = 0.0;
    for (const float v : row) sq += static_cast<double>(v) * v;
    const float sigma = kChangeNoise * static_cast<float>(std::sqrt(sq / row.size()));
    for (auto& v : row) v += sigma * static_cast<float>(rng.normal());
  }
}

/// Exact top-k of word `w` on one snapshot: the single-rank scan the engine's
/// exact path is bit-identical to.
std::vector<serve::Candidate> exactTopK(const serve::EmbeddingSnapshot& snap, text::WordId w) {
  const auto q = serve::normalizedCopy(snap.row(w));
  const text::WordId exclude[] = {w};
  const serve::TopKQuery query{q.data(), kTopK, exclude};
  return serve::topkScore(snap.rows(), snap.rowStride(), snap.vocabSize(), 0, snap.dim(),
                          std::span<const serve::TopKQuery>(&query, 1))[0];
}

}  // namespace

void runServing(const WorkloadSpec& spec, std::uint64_t seed, graph::ModelGraph model,
                const text::Vocabulary& vocab, double seconds, Tracer& tracer, Outcome& out) {
  serve::AnnBuildOptions annOpts;
  annOpts.numLists = spec.annLists;
  serve::SnapshotStore store(kRanks);
  std::map<std::uint64_t, std::shared_ptr<const serve::EmbeddingSnapshot>> audit;

  // Training writes are the base: only publisher changes count as changed.
  model.clearTouched();
  {
    runtime::ThreadPool pool(std::max(1u, std::min(4u, std::thread::hardware_concurrency())));
    Tracer::Span span(tracer, "serve.publish_full");
    auto snap = serve::EmbeddingSnapshot::fromModel(model, &vocab, 1, annOpts, &pool);
    store.publish(snap);
    out.perLayer["serve.full_publish_ms"] = Metric{1e3 * span.stop(), "ms"};
    audit[1] = std::move(snap);
  }
  std::atomic<std::uint64_t> published{1};

  const ZipfSampler zipf(vocab.size(), spec.zipfExponent);
  serve::QueryOptions annQuery;
  annQuery.mode = serve::QueryMode::kAnn;
  annQuery.nprobe = kNprobe;
  serve::ServeOptions serveOpts;
  // Two closed-loop clients never fill a batch, so a batching window would
  // only add its own length to every cache miss.
  serveOpts.batchWindowMicros = 0;
  if (!spec.serveCache) serveOpts.cacheCapacity = 0;

  const double windowSeconds = std::min(kMaxWindowSeconds, seconds / 4);
  const auto window = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(windowSeconds));
  std::vector<ClientLog> logs(kClients);
  std::vector<double> publishMs;
  double loadCpu = 0.0;
  std::uint64_t answered = 0, exactMismatches = 0, loadFailures = 0;
  double centroidUs = 0, scoreUs = 0, mergeUs = 0, candidateRatio = 0, hitRate = 0, occupancy = 0,
         roundsPerQuery = 0, swaps = 0;

  sim::ClusterOptions copts;
  copts.numHosts = kRanks;
  const sim::ClusterReport cluster = sim::runCluster(copts, [&](sim::HostContext& ctx) {
    comm::SimTransport transport(ctx.network());
    serve::QueryEngine engine(transport, ctx.id(), store, serveOpts);
    if (ctx.id() != 0) {
      engine.run();
      return;
    }
    std::thread load([&] {
      std::atomic<bool> stop{false};
      std::vector<std::thread> clients;
      const auto t0 = Clock::now();
      const double cpu0 = processCpuSeconds();
      try {
        for (unsigned c = 0; c < kClients; ++c) {
          clients.emplace_back([&, c] {
            ClientLog& log = logs[c];
            util::Rng rng(subSeed(seed, 100 + c));
            Tracer::Span span(tracer, "serve.client");
            auto windowEnd = t0 + window;
            while (!stop.load(std::memory_order_relaxed)) {
              const text::WordId w = zipf.sample(rng);
              ++log.attempted;
              try {
                const auto q0 = Clock::now();
                const serve::QueryResult r = engine.queryWord(w, kTopK, annQuery);
                const auto q1 = Clock::now();
                if (q1 >= windowEnd) {
                  log.closeWindow();
                  windowEnd += window;
                }
                log.current.push_back(1e6 * secondsBetween(q0, q1));
                // A short reply or a version never published is an error.
                if (r.neighbors.size() != kTopK) {
                  ++log.shortReplies;
                  continue;
                }
                if (r.version < 1 || r.version > published.load()) {
                  ++log.unknownVersions;
                  continue;
                }
                if (audited(r.version) && log.servedPerVersion[r.version]++ < kAuditPerVersion) {
                  Served s{w, r.version, {}};
                  for (unsigned i = 0; i < kTopK; ++i) s.ids[i] = r.neighbors[i].id;
                  log.served.push_back(s);
                }
              } catch (const std::exception&) {
                ++log.exceptions;
              }
            }
          });
        }

        // This thread is the publisher.
        util::Rng prng(subSeed(seed, 200));
        const auto every = std::chrono::milliseconds(kPublishEveryMs);
        for (auto next = t0 + every;; next += every) {
          std::this_thread::sleep_until(next);
          if (secondsBetween(t0, Clock::now()) >= seconds) break;
          changeRows(model, kChangedRowFraction, prng);
          model.clearTouched();
          Tracer::Span span(tracer, "serve.publish");
          const std::uint64_t v = published.load() + 1;
          auto snap = serve::EmbeddingSnapshot::fromModel(model, &vocab, v, *store.current(),
                                                          annOpts, nullptr);
          published.store(v);  // before the swap: a reply may carry v at once
          store.publish(snap);
          publishMs.push_back(1e3 * span.stop());
          if (audited(v)) audit[v] = std::move(snap);
        }
      } catch (const std::exception&) {
        ++loadFailures;
      }
      stop.store(true);
      for (auto& t : clients) t.join();
      loadCpu = processCpuSeconds() - cpu0;

      try {
        const serve::ServeMetrics& m = engine.metrics();
        answered = m.queries.load();
        const double annQ = std::max<double>(1.0, static_cast<double>(m.annQueries.load()));
        centroidUs = static_cast<double>(m.annCentroidMicros.load()) / annQ;
        scoreUs = static_cast<double>(m.annScoreMicros.load()) / annQ;
        mergeUs = static_cast<double>(m.mergeMicros.load()) /
                  std::max<double>(1.0, static_cast<double>(m.batchedQueries.load()));
        candidateRatio = m.annCandidateRatio();
        hitRate = m.cacheHitRate();
        occupancy = m.batchOccupancy(serveOpts.maxBatch);
        roundsPerQuery = static_cast<double>(m.batches.load()) /
                         std::max<double>(1.0, static_cast<double>(answered));
        swaps = static_cast<double>(m.snapshotSwaps.load());

        // Exact mode must equal the single-host reference bit for bit on the
        // last published version (the model has not changed since).
        const eval::EmbeddingView reference(model, vocab);
        util::Rng crng(subSeed(seed, 300));
        for (unsigned i = 0; i < kExactChecks; ++i) {
          const auto w = static_cast<text::WordId>(crng.bounded(vocab.size()));
          const auto got = engine.queryWord(w, kTopK);
          const auto want = reference.nearestTo(w, kTopK);
          bool same = got.neighbors.size() == want.size() && got.version == published.load();
          for (std::size_t j = 0; same && j < want.size(); ++j)
            same = got.neighbors[j].id == want[j].word &&
                   got.neighbors[j].score == want[j].similarity;
          if (!same) ++exactMismatches;
        }
      } catch (const std::exception&) {
        ++loadFailures;
      }
      engine.shutdown();
    });
    engine.run();
    load.join();
  });

  // Throughput and latency quantiles are taken per window of the load (per
  // client for the quantiles) and the median window is reported, so a
  // transient stall of the machine moves one window rather than the run's
  // figure. The last, partial window is dropped.
  std::vector<double> qps, p50, p90, p99;
  std::size_t samples = 0;
  std::uint64_t attempted = 0, shortReplies = 0, unknownVersions = 0, exceptions = 0;
  for (const auto& log : logs) {
    for (std::size_t w = 0; w < log.windows.size(); ++w) {
      const WindowStats& ws = log.windows[w];
      if (qps.size() <= w) qps.resize(w + 1, 0.0);
      qps[w] += static_cast<double>(ws.count) / windowSeconds;
      p50.push_back(ws.p50);
      p90.push_back(ws.p90);
      p99.push_back(ws.p99);
      samples += ws.count;
    }
    attempted += log.attempted;
    shortReplies += log.shortReplies;
    unknownVersions += log.unknownVersions;
    exceptions += log.exceptions;
  }
  out.attempted += attempted + kExactChecks;
  out.failed += shortReplies + unknownVersions + exceptions + exactMismatches;
  if (shortReplies > 0) out.failures.push_back(std::to_string(shortReplies) + " short replies");
  if (unknownVersions > 0)
    out.failures.push_back(std::to_string(unknownVersions) + " replies from unpublished versions");
  if (exceptions > 0) out.failures.push_back(std::to_string(exceptions) + " queries threw");
  if (exactMismatches > 0)
    out.failures.push_back(std::to_string(exactMismatches) +
                           " exact answers differ from the single-host reference");
  out.check(loadFailures == 0, "the serving load thread threw");
  out.check(samples > 0, "no load window completed");

  // Recall of ANN answers against the exact answer on the version that
  // served each query, over the kept versions.
  double hits = 0.0, wanted = 0.0;
  for (const auto& log : logs) {
    for (const Served& s : log.served) {
      const auto it = audit.find(s.version);
      if (it == audit.end()) continue;
      for (const serve::Candidate& c : exactTopK(*it->second, s.word)) {
        wanted += 1.0;
        hits += std::find(s.ids.begin(), s.ids.end(), c.id) != s.ids.end() ? 1.0 : 0.0;
      }
    }
  }
  out.check(wanted > 0.0, "no ANN answer could be audited for recall");
  const double cpuUsPerQuery =
      1e6 * loadCpu / std::max<double>(1.0, static_cast<double>(answered));
  std::printf(
      "serve: latency_samples=%zu windows=%zu window_qps_min=%.0f window_qps_max=%.0f "
      "cpu_us_per_query=%.2f cache_hit_rate=%.4f publishes=%zu audited_answers=%.0f\n",
      samples, qps.size(), qps.empty() ? 0.0 : *std::min_element(qps.begin(), qps.end()),
      qps.empty() ? 0.0 : *std::max_element(qps.begin(), qps.end()), cpuUsPerQuery, hitRate,
      publishMs.size(), wanted / kTopK);

  out.endToEnd["serve_p50_us"] = Metric{median(p50), "us"};
  out.endToEnd["serve_recall_at_10"] = Metric{wanted > 0.0 ? hits / wanted : 0.0, "ratio"};

  auto& layer = out.perLayer;
  // Throughput and the tail are reported but not bounded. Each query is a
  // chain of four thread wake-ups (client, coordinator, worker, coordinator)
  // around a few microseconds of scoring, so these track how fast the
  // machine wakes idle threads, which moves with other load on a shared
  // host for whole runs at a time. The median call stays steady.
  layer["serve.qps"] = Metric{median(qps), "queries/s"};
  layer["serve.p90_us"] = Metric{median(p90), "us"};
  layer["serve.p99_us"] = Metric{median(p99), "us"};
  layer["serve.cpu_us_per_query"] = Metric{cpuUsPerQuery, "us"};
  layer["serve.publish_ms"] = Metric{median(publishMs), "ms"};
  layer["serve.ann_centroid_us"] = Metric{centroidUs, "us"};
  layer["serve.ann_score_us"] = Metric{scoreUs, "us"};
  layer["serve.merge_us"] = Metric{mergeUs, "us"};
  layer["serve.candidate_ratio"] = Metric{candidateRatio, "ratio"};
  layer["serve.cache_hit_rate"] = Metric{hitRate, "ratio"};
  layer["serve.batch_occupancy"] = Metric{occupancy, "ratio"};
  layer["serve.rounds_per_query"] = Metric{roundsPerQuery, "ratio"};
  layer["serve.bytes_per_query"] =
      Metric{static_cast<double>(cluster.totalBytes()) /
                 std::max<double>(1.0, static_cast<double>(answered)),
             "B"};
  layer["serve.swaps_observed"] = Metric{swaps, "count"};
}

}  // namespace gw2v::perfbench
