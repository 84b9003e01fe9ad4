// Out-of-core tier characterization: sweeps the block cache over eviction
// policy × cache budget × Zipf skew and reports hit rate plus the full
// counter set (hits, misses, evictions, write-backs, pinned residency) as
// bench rows.
//
// Access pattern is the serving/training mix the tier is built for: row ids
// drawn Zipf(s) over a frequency-sorted vocabulary (low id = hot, exactly
// how Vocabulary::finalize assigns ids), 90% reads / 10% writes against one
// spilled embedding table. The budget fraction f is measured against the
// *model* bytes (both labels, ModelGraph::modelBytes-style), while the
// access stream touches only the embedding label — the serve-tier shape,
// where the training label is dead weight the spill keeps on disk.
//
// Exit status is the CI gate:
//   1. at every (policy, budget) the hit rate is monotone non-decreasing in
//      skew (tolerance 0.005 for sampling noise), and
//   2. the Zipfian-aware policy reaches hit rate >= 0.9 at skew 1.0 with a
//      25% budget.
//
// Environment knobs:
//   GW2V_STORE_VOCAB     rows in the table            (default 32768)
//   GW2V_STORE_ACCESSES  row faults per configuration (default 600000)
//   GW2V_STORE_DIR       spill directory              (default /tmp/gw2v_store_bench)

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/common.h"
#include "model/embedding_table.h"
#include "store/stored_table.h"
#include "util/rng.h"

using namespace gw2v;

namespace {

/// Inverse-CDF Zipf sampler over row ids (the serve_loadgen sampler).
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

  std::uint32_t sample(util::Rng& rng) const {
    const double u = rng.uniformDouble();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<std::uint32_t>(it == cdf_.end() ? cdf_.size() - 1 : it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

struct Row {
  const char* policy;
  std::size_t budgetBlocks;
  std::size_t pinnedBlocks;
  std::uint64_t hits, misses, evictions, writeBacks, pinnedResident;
  double hitRate;
};

}  // namespace

int main() {
  const auto vocab = bench::envUnsigned("GW2V_STORE_VOCAB", 32768);
  constexpr std::uint32_t dim = 32;
  const std::uint64_t accesses = bench::envUnsigned("GW2V_STORE_ACCESSES", 600000);
  const std::string dir = bench::envString("GW2V_STORE_DIR", "/tmp/gw2v_store_bench");
  std::filesystem::create_directories(dir);

  // Budget f is a fraction of the two-label model's bytes.
  const std::uint64_t modelBytes = 2ull * vocab * dim * sizeof(float);
  const store::EvictionPolicy policies[] = {store::EvictionPolicy::kLru,
                                            store::EvictionPolicy::kZipfPinned};
  const double fractions[] = {0.10, 0.25, 0.50};
  const double skews[] = {0.6, 0.8, 1.0, 1.2};

  bench::Rows rows("store_hitrate");
  bool gateFailed = false;

  for (const auto policy : policies) {
    for (const double f : fractions) {
      double prevHitRate = -1.0;
      for (const double s : skews) {
        // Fresh deterministic table per configuration: cold cache, same bits.
        model::EmbeddingTable table(vocab, dim);
        for (std::uint32_t r = 0; r < vocab; ++r) {
          auto row = table.untrackedRow(r);
          for (std::uint32_t j = 0; j < dim; ++j)
            row[j] = static_cast<float>(r) + static_cast<float>(j) * 1e-3f;
        }

        store::StoreOptions so;
        so.path = dir + "/hitrate.blocks";
        so.budgetBytes = static_cast<std::uint64_t>(f * static_cast<double>(modelBytes));
        so.policy = policy;
        so.metrics = nullptr;
        store::StoredEmbeddingTable* backend = store::spillTable(table, so);

        const ZipfSampler sampler(vocab, s);
        util::Rng rng(util::hash64(0x5705e5ull ^ static_cast<std::uint64_t>(s * 1000)));
        for (std::uint64_t i = 0; i < accesses; ++i) {
          const std::uint32_t w = sampler.sample(rng);
          if (rng.uniformDouble() < 0.10) {
            table.overwriteRow(w)[0] += 1.0f;  // dirty the block: write-back path
          } else {
            (void)table.row(w);
          }
        }
        backend->flush();

        const store::StoreMetrics& m = backend->metrics();
        Row row{store::evictionPolicyName(policy),
                backend->cache().budgetBlocks(),
                backend->cache().pinnedBudgetBlocks(),
                m.hits.load(),
                m.misses.load(),
                m.evictions.load(),
                m.writeBacks.load(),
                m.pinnedResident.load(),
                m.hitRate()};
        std::printf("%-12s f=%.2f s=%.1f  blocks=%4zu(pin %4zu)  hit=%.4f  ev=%llu wb=%llu\n",
                    row.policy, f, s, row.budgetBlocks, row.pinnedBlocks, row.hitRate,
                    static_cast<unsigned long long>(row.evictions),
                    static_cast<unsigned long long>(row.writeBacks));

        if (row.hitRate + 0.005 < prevHitRate) {
          std::fprintf(stderr, "FAIL: hit rate not monotone in skew (%s f=%.2f: %.4f -> %.4f)\n",
                       row.policy, f, prevHitRate, row.hitRate);
          gateFailed = true;
        }
        prevHitRate = row.hitRate;

        const std::string cfg =
            bench::config({{"vocab", vocab}, {"dim", dim}, {"accesses", accesses},
                           {"policy", row.policy}, {"budget", f}, {"skew", s}});
        rows.add(cfg, "budget_blocks", "count", static_cast<double>(row.budgetBlocks));
        rows.add(cfg, "pinned_blocks", "count", static_cast<double>(row.pinnedBlocks));
        rows.add(cfg, "hits", "count", static_cast<double>(row.hits));
        rows.add(cfg, "misses", "count", static_cast<double>(row.misses));
        rows.add(cfg, "evictions", "count", static_cast<double>(row.evictions));
        rows.add(cfg, "write_backs", "count", static_cast<double>(row.writeBacks));
        rows.add(cfg, "pinned_resident", "count", static_cast<double>(row.pinnedResident));
        rows.add(cfg, "hit_rate", "ratio", row.hitRate);

        if (policy == store::EvictionPolicy::kZipfPinned && f == 0.25 && s == 1.0 &&
            row.hitRate < 0.9) {
          std::fprintf(stderr, "FAIL: zipf-pinned hit rate %.4f < 0.9 at skew 1.0, 25%% budget\n",
                       row.hitRate);
          gateFailed = true;
        }
      }
    }
  }

  std::filesystem::remove(dir + "/hitrate.blocks");
  return gateFailed ? 1 : 0;
}
