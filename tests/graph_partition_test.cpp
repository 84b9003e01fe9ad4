#include "graph/partition.h"

#include <gtest/gtest.h>

#include <vector>

namespace gw2v::graph {
namespace {

TEST(BlockedPartition, RejectsZeroHosts) {
  EXPECT_THROW(BlockedPartition(10, 0), std::invalid_argument);
}

TEST(BlockedPartition, SingleHostOwnsEverything) {
  BlockedPartition p(100, 1);
  for (std::uint32_t n = 0; n < 100; ++n) EXPECT_EQ(p.masterOf(n), 0u);
  EXPECT_EQ(p.masterRange(0), std::make_pair(0u, 100u));
}

TEST(BlockedPartition, RangesAreContiguousAndCover) {
  BlockedPartition p(1003, 7);
  std::uint32_t prev = 0;
  for (unsigned h = 0; h < 7; ++h) {
    const auto [lo, hi] = p.masterRange(h);
    EXPECT_EQ(lo, prev);
    EXPECT_LE(lo, hi);
    prev = hi;
  }
  EXPECT_EQ(prev, 1003u);
}

TEST(BlockedPartition, MasterOfMatchesRange) {
  BlockedPartition p(517, 5);
  for (unsigned h = 0; h < 5; ++h) {
    const auto [lo, hi] = p.masterRange(h);
    for (std::uint32_t n = lo; n < hi; ++n) EXPECT_EQ(p.masterOf(n), h);
  }
}

class BlockedSweep : public ::testing::TestWithParam<std::tuple<std::uint32_t, unsigned>> {};

TEST_P(BlockedSweep, ConsistentAndBalanced) {
  const auto [nodes, hosts] = GetParam();
  BlockedPartition p(nodes, hosts);
  std::vector<std::uint32_t> counts(hosts, 0);
  for (std::uint32_t n = 0; n < nodes; ++n) {
    const unsigned h = p.masterOf(n);
    ASSERT_LT(h, hosts);
    ++counts[h];
    const auto [lo, hi] = p.masterRange(h);
    EXPECT_GE(n, lo);
    EXPECT_LT(n, hi);
  }
  std::uint32_t minC = nodes + 1, maxC = 0;
  for (unsigned h = 0; h < hosts; ++h) {
    minC = std::min(minC, counts[h]);
    maxC = std::max(maxC, counts[h]);
    EXPECT_EQ(counts[h], p.mastersOf(h));
  }
  if (nodes >= hosts) {
    EXPECT_LE(maxC - minC, 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BlockedSweep,
    ::testing::Values(std::make_tuple(1u, 1u), std::make_tuple(1u, 4u),
                      std::make_tuple(3u, 8u), std::make_tuple(64u, 64u),
                      std::make_tuple(1000u, 3u), std::make_tuple(39900u, 32u),
                      std::make_tuple(12345u, 7u)));

TEST(BlockedPartition, FewerNodesThanHosts) {
  BlockedPartition p(2, 5);
  // Every node owned by exactly one host; some hosts own nothing.
  unsigned total = 0;
  for (unsigned h = 0; h < 5; ++h) total += p.mastersOf(h);
  EXPECT_EQ(total, 2u);
}

TEST(HashPartition, CoversAllHostsRoughly) {
  HashPartition p(10000, 8);
  std::vector<std::uint32_t> counts(8, 0);
  for (std::uint32_t n = 0; n < 10000; ++n) ++counts[p.masterOf(n)];
  for (const auto c : counts) {
    EXPECT_GT(c, 1000u);  // expected 1250 each
    EXPECT_LT(c, 1500u);
  }
}

TEST(HashPartition, DeterministicPerSalt) {
  HashPartition a(100, 4, 1), b(100, 4, 1), c(100, 4, 2);
  int differ = 0;
  for (std::uint32_t n = 0; n < 100; ++n) {
    EXPECT_EQ(a.masterOf(n), b.masterOf(n));
    differ += a.masterOf(n) != c.masterOf(n) ? 1 : 0;
  }
  EXPECT_GT(differ, 10);
}

}  // namespace
}  // namespace gw2v::graph
