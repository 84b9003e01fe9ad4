// Concurrency regression: snapshot hot-swap under in-flight queries must
// never yield torn reads. The publisher installs version v with every row a
// one-hot at axis (v % dim); readers continuously pin, then verify every row
// of the pinned snapshot is the one-hot of exactly the pinned version — any
// mix of versions inside one snapshot, or a reclaimed-while-pinned snapshot,
// fails (and trips ASan/TSan in the sanitizer CI job, which reruns this test
// with GW2V_HOTSWAP_ITERS raised).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <thread>
#include <vector>

#include "graph/model_graph.h"
#include "serve/snapshot.h"
#include "serve/topk.h"
#include "util/simd.h"

namespace gw2v::serve {
namespace {

constexpr std::uint32_t kVocab = 48;
constexpr std::uint32_t kDim = 16;

std::shared_ptr<const EmbeddingSnapshot> makeVersion(std::uint64_t version,
                                                     bool withAnn = false) {
  graph::ModelGraph model(kVocab, kDim);
  const std::uint32_t axis = static_cast<std::uint32_t>(version % kDim);
  for (std::uint32_t w = 0; w < kVocab; ++w) {
    auto row = model.mutableRow(graph::Label::kEmbedding, w);
    for (std::uint32_t d = 0; d < kDim; ++d) row[d] = d == axis ? 1.0f : 0.0f;
  }
  if (!withAnn) return std::make_shared<const EmbeddingSnapshot>(model, nullptr, version);
  AnnBuildOptions ann;
  ann.numLists = 4;
  return EmbeddingSnapshot::fromModel(model, nullptr, version, ann);
}

unsigned itersFromEnv() {
  if (const char* s = std::getenv("GW2V_HOTSWAP_ITERS")) {
    const long v = std::atol(s);
    if (v > 0) return static_cast<unsigned>(v);
  }
  return 300;
}

TEST(ServeHotSwap, InFlightPinsNeverObserveTornSnapshots) {
  const unsigned kPublishes = itersFromEnv();
  constexpr unsigned kReaders = 4;

  SnapshotStore store(kReaders);
  store.publish(makeVersion(1));

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> pinsTaken{0};
  std::vector<std::thread> readers;
  std::vector<std::string> failures(kReaders);

  for (unsigned r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      std::uint64_t lastVersion = 0;
      while (!done.load(std::memory_order_acquire)) {
        auto pin = store.pin(r);
        if (!pin) continue;
        const std::uint64_t v = pin->version();
        if (v < lastVersion) {
          failures[r] = "version went backwards";
          return;
        }
        lastVersion = v;
        const std::uint32_t axis = static_cast<std::uint32_t>(v % kDim);
        // Read every row while pinned: the matrix must be entirely the
        // pinned version's pattern, even while publishes race.
        for (std::uint32_t w = 0; w < kVocab; ++w) {
          const auto row = pin->row(w);
          for (std::uint32_t d = 0; d < kDim; ++d) {
            const float want = d == axis ? 1.0f : 0.0f;
            if (row[d] != want) {
              failures[r] = "torn read at version " + std::to_string(v);
              return;
            }
          }
        }
        pinsTaken.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (std::uint64_t v = 2; v <= kPublishes + 1; ++v) {
    store.publish(makeVersion(v));
    if (v % 16 == 0) std::this_thread::yield();
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  for (unsigned r = 0; r < kReaders; ++r) EXPECT_EQ(failures[r], "") << "reader " << r;
  EXPECT_GT(pinsTaken.load(), 0u);

  // With every pin released, one more publish reclaims all retirees.
  store.publish(makeVersion(kPublishes + 2));
  EXPECT_EQ(store.retainedCount(), 1u);
  EXPECT_EQ(store.currentVersion(), kPublishes + 2);
}

TEST(ServeHotSwap, AnnIndexTravelsWithItsSnapshotUnderChurn) {
  // Each publish rebuilds the IVF index as part of the snapshot. A pinned
  // reader must always observe (a) an index stamped with exactly its pinned
  // version — never a predecessor's — and (b) search scores it can reproduce
  // bitwise from the pinned rows, proving the index scored *this* snapshot's
  // matrix and not a reclaimed or newer one.
  const unsigned kPublishes = itersFromEnv();
  constexpr unsigned kReaders = 4;
  constexpr unsigned kK = 5;

  SnapshotStore store(kReaders);
  store.publish(makeVersion(1, /*withAnn=*/true));

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> searches{0};
  std::vector<std::thread> readers;
  std::vector<std::string> failures(kReaders);

  for (unsigned r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      const auto& kern = util::simd::activeKernels();
      while (!done.load(std::memory_order_acquire)) {
        auto pin = store.pin(r);
        if (!pin) continue;
        const std::uint64_t v = pin->version();
        const IvfIndex* idx = pin->annIndex();
        if (idx == nullptr) {
          failures[r] = "snapshot without index at version " + std::to_string(v);
          return;
        }
        if (idx->snapshotVersion() != v) {
          failures[r] = "index version " + std::to_string(idx->snapshotVersion()) +
                        " under snapshot " + std::to_string(v);
          return;
        }
        // Query along the pinned version's one-hot axis; every row of this
        // snapshot is that axis, so every candidate must score exactly 1
        // — and must re-derive bitwise from the pinned rows.
        std::vector<float> q(kDim, 0.0f);
        q[v % kDim] = 1.0f;
        const auto got = idx->search({q.data(), kK, {}}, 2, 0, kVocab);
        if (got.size() != kK) {
          failures[r] = "short result at version " + std::to_string(v);
          return;
        }
        for (const auto& c : got) {
          const float recomputed = kern.dot(pin->row(c.id).data(), q.data(), kDim);
          if (c.score != recomputed || c.score != 1.0f) {
            failures[r] = "score mismatch at version " + std::to_string(v);
            return;
          }
        }
        searches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (std::uint64_t v = 2; v <= kPublishes + 1; ++v) {
    store.publish(makeVersion(v, /*withAnn=*/true));
    if (v % 16 == 0) std::this_thread::yield();
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  for (unsigned r = 0; r < kReaders; ++r) EXPECT_EQ(failures[r], "") << "reader " << r;
  EXPECT_GT(searches.load(), 0u);
}

TEST(ServeHotSwap, RetainedSetStaysBoundedWhileReadersChurn) {
  constexpr unsigned kReaders = 2;
  SnapshotStore store(kReaders);
  store.publish(makeVersion(1));

  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (unsigned r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      while (!done.load(std::memory_order_acquire)) {
        auto pin = store.pin(r);
        if (pin) (void)pin->row(0);
      }
    });
  }
  for (std::uint64_t v = 2; v <= 120; ++v) {
    store.publish(makeVersion(v));
    // Each of the 2 readers pins at most one snapshot, so the store can
    // retain at most current + kReaders versions at any publish point.
    EXPECT_LE(store.retainedCount(), 1u + kReaders) << "at version " << v;
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
}

}  // namespace
}  // namespace gw2v::serve
