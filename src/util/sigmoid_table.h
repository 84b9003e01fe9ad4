#pragma once

// Precomputed sigmoid lookup table, following word2vec.c's EXP_TABLE.
//
// The SGNS inner loop evaluates sigma(x) for every (center, context) pair and
// every negative sample; a 1000-entry table over [-6, 6] is what the original
// implementation ships and what the paper's baselines use, so we reproduce it
// exactly (including the clamping behaviour at the boundaries).

#include <cmath>
#include <cstddef>
#include <vector>

namespace gw2v::util {

class SigmoidTable {
 public:
  static constexpr float kMaxExp = 6.0f;
  static constexpr std::size_t kDefaultSize = 1000;

  explicit SigmoidTable(std::size_t size = kDefaultSize)
      : table_(size), scale_(static_cast<float>(size) / kMaxExp / 2.0f) {
    for (std::size_t i = 0; i < size; ++i) {
      // Matches word2vec.c: exp((i/size*2-1) * MAX_EXP), then x/(x+1).
      const double e =
          std::exp((static_cast<double>(i) / static_cast<double>(size) * 2.0 - 1.0) * kMaxExp);
      table_[i] = static_cast<float>(e / (e + 1.0));
    }
  }

  /// sigma(x) with clamping: x <= -6 -> ~0, x >= 6 -> ~1.
  float operator()(float x) const noexcept {
    if (x >= kMaxExp) return 1.0f;
    if (x <= -kMaxExp) return 0.0f;
    const auto idx = static_cast<std::size_t>((x + kMaxExp) * scale_);
    return table_[idx < table_.size() ? idx : table_.size() - 1];
  }

  /// Exact sigmoid, for tests and for code paths where table error matters.
  static float exact(float x) noexcept { return 1.0f / (1.0f + std::exp(-x)); }

  std::size_t size() const noexcept { return table_.size(); }

 private:
  std::vector<float> table_;
  float scale_;  // entries per unit of x: size / (2 * kMaxExp)
};

}  // namespace gw2v::util
