#include "graph/algorithms.h"

#include <atomic>
#include <cmath>

#include "runtime/do_all.h"
#include "runtime/work_queue.h"

namespace gw2v::graph {

namespace {

/// CAS-min for atomic floats stored as raw float with atomic_ref semantics.
inline bool atomicMinFloat(std::atomic<float>& target, float value) noexcept {
  float cur = target.load(std::memory_order_relaxed);
  while (value < cur) {
    if (target.compare_exchange_weak(cur, value, std::memory_order_relaxed)) return true;
  }
  return false;
}

inline bool atomicMinU32(std::atomic<std::uint32_t>& target, std::uint32_t value) noexcept {
  std::uint32_t cur = target.load(std::memory_order_relaxed);
  while (value < cur) {
    if (target.compare_exchange_weak(cur, value, std::memory_order_relaxed)) return true;
  }
  return false;
}

}  // namespace

std::vector<std::uint32_t> bfs(const CSRGraph& g, NodeId source, runtime::ThreadPool& pool) {
  std::vector<std::atomic<std::uint32_t>> level(g.numNodes());
  for (auto& l : level) l.store(kUnreachedLevel, std::memory_order_relaxed);
  if (g.numNodes() == 0) return {};
  level[source].store(0, std::memory_order_relaxed);

  std::vector<NodeId> frontier{source};
  std::uint32_t depth = 0;
  while (!frontier.empty()) {
    runtime::WorkQueue<NodeId> next;
    ++depth;
    runtime::doAll(pool, 0, frontier.size(), [&](std::uint64_t i) {
      const NodeId u = frontier[i];
      for (const NodeId v : g.neighbors(u)) {
        std::uint32_t expect = kUnreachedLevel;
        if (level[v].compare_exchange_strong(expect, depth, std::memory_order_relaxed)) {
          next.push(v);
        }
      }
    });
    frontier = next.drain();
  }

  std::vector<std::uint32_t> out(g.numNodes());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = level[i].load(std::memory_order_relaxed);
  return out;
}

std::vector<float> sssp(const CSRGraph& g, NodeId source, runtime::ThreadPool& pool) {
  std::vector<std::atomic<float>> dist(g.numNodes());
  for (auto& d : dist) d.store(kInfDistance, std::memory_order_relaxed);
  if (g.numNodes() == 0) return {};
  dist[source].store(0.0f, std::memory_order_relaxed);

  std::atomic<bool> changed{true};
  while (changed.load(std::memory_order_relaxed)) {
    changed.store(false, std::memory_order_relaxed);
    runtime::doAll(pool, 0, g.numNodes(), [&](std::uint64_t ui) {
      const NodeId u = static_cast<NodeId>(ui);
      const float du = dist[u].load(std::memory_order_relaxed);
      if (du == kInfDistance) return;
      const auto nbrs = g.neighbors(u);
      const auto w = g.weights(u);
      for (std::size_t e = 0; e < nbrs.size(); ++e) {
        if (atomicMinFloat(dist[nbrs[e]], du + w[e])) changed.store(true, std::memory_order_relaxed);
      }
    });
  }

  std::vector<float> out(g.numNodes());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = dist[i].load(std::memory_order_relaxed);
  return out;
}

std::vector<float> ssspWorklist(const CSRGraph& g, NodeId source, runtime::ThreadPool& pool) {
  std::vector<std::atomic<float>> dist(g.numNodes());
  for (auto& d : dist) d.store(kInfDistance, std::memory_order_relaxed);
  if (g.numNodes() == 0) return {};
  dist[source].store(0.0f, std::memory_order_relaxed);

  std::vector<NodeId> active{source};
  while (!active.empty()) {
    runtime::WorkQueue<NodeId> next;
    runtime::doAll(pool, 0, active.size(), [&](std::uint64_t i) {
      const NodeId u = active[i];
      const float du = dist[u].load(std::memory_order_relaxed);
      const auto nbrs = g.neighbors(u);
      const auto w = g.weights(u);
      for (std::size_t e = 0; e < nbrs.size(); ++e) {
        if (atomicMinFloat(dist[nbrs[e]], du + w[e])) next.push(nbrs[e]);
      }
    });
    active = next.drain();
  }

  std::vector<float> out(g.numNodes());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = dist[i].load(std::memory_order_relaxed);
  return out;
}

std::vector<double> pagerank(const CSRGraph& g, runtime::ThreadPool& pool, double d, double tol,
                             int maxIters) {
  const std::size_t n = g.numNodes();
  std::vector<double> rank(n, n > 0 ? 1.0 / static_cast<double>(n) : 0.0);
  std::vector<double> next(n, 0.0);
  if (n == 0) return rank;

  for (int iter = 0; iter < maxIters; ++iter) {
    // Mass from dangling nodes is redistributed uniformly (standard fix).
    double dangling = 0.0;
    for (NodeId u = 0; u < n; ++u) {
      if (g.degree(u) == 0) dangling += rank[u];
    }

    std::fill(next.begin(), next.end(), 0.0);
    // Pull-style accumulation is race-free only with a transposed graph; we
    // use push-style with per-thread scratch to stay on the forward CSR.
    std::vector<std::vector<double>> scratch(pool.numThreads(),
                                             std::vector<double>(n, 0.0));
    pool.onEach([&](unsigned tid) {
      auto& acc = scratch[tid];
      const auto [lo, hi] = runtime::blockRange(n, pool.numThreads(), tid);
      for (std::uint64_t ui = lo; ui < hi; ++ui) {
        const NodeId u = static_cast<NodeId>(ui);
        const EdgeId deg = g.degree(u);
        if (deg == 0) continue;
        const double share = rank[u] / static_cast<double>(deg);
        for (const NodeId v : g.neighbors(u)) acc[v] += share;
      }
    });
    for (const auto& acc : scratch) {
      for (std::size_t i = 0; i < n; ++i) next[i] += acc[i];
    }

    const double base = (1.0 - d) / static_cast<double>(n) +
                        d * dangling / static_cast<double>(n);
    double residual = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double updated = base + d * next[i];
      residual += std::abs(updated - rank[i]);
      rank[i] = updated;
    }
    if (residual < tol) break;
  }
  return rank;
}

std::vector<NodeId> connectedComponents(const CSRGraph& g, runtime::ThreadPool& pool) {
  const NodeId n = g.numNodes();
  std::vector<std::atomic<std::uint32_t>> comp(n);
  for (NodeId i = 0; i < n; ++i) comp[i].store(i, std::memory_order_relaxed);

  std::atomic<bool> changed{true};
  while (changed.load(std::memory_order_relaxed)) {
    changed.store(false, std::memory_order_relaxed);
    runtime::doAll(pool, 0, n, [&](std::uint64_t ui) {
      const NodeId u = static_cast<NodeId>(ui);
      const std::uint32_t cu = comp[u].load(std::memory_order_relaxed);
      for (const NodeId v : g.neighbors(u)) {
        if (atomicMinU32(comp[v], cu)) changed.store(true, std::memory_order_relaxed);
        const std::uint32_t cv = comp[v].load(std::memory_order_relaxed);
        if (atomicMinU32(comp[u], cv)) changed.store(true, std::memory_order_relaxed);
      }
    });
    // Pointer jumping: comp[u] <- comp[comp[u]] until stable.
    runtime::doAll(pool, 0, n, [&](std::uint64_t ui) {
      const NodeId u = static_cast<NodeId>(ui);
      for (;;) {
        const std::uint32_t c = comp[u].load(std::memory_order_relaxed);
        const std::uint32_t cc = comp[c].load(std::memory_order_relaxed);
        if (cc >= c) break;
        comp[u].store(cc, std::memory_order_relaxed);
        changed.store(true, std::memory_order_relaxed);
      }
    });
  }

  std::vector<NodeId> out(n);
  for (NodeId i = 0; i < n; ++i) out[i] = comp[i].load(std::memory_order_relaxed);
  return out;
}

}  // namespace gw2v::graph
