#include "util/simd.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "util/rng.h"
#include "util/vecmath.h"

namespace gw2v::util::simd {
namespace {

// Odd lengths exercise every tail path: sub-vector (1, 7), sub-unroll (31),
// the model dimensionality (200), and a just-past-a-full-vector size (257).
const std::size_t kLengths[] = {1, 7, 31, 200, 257};

std::vector<float> randomVec(std::size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = rng.uniformFloat(-1.0f, 1.0f);
  return v;
}

// SIMD tiers reassociate the reductions; tolerance scales with length.
float tol(std::size_t n) { return 1e-5f * static_cast<float>(n); }

class SimdParityTest : public ::testing::TestWithParam<Tier> {
 protected:
  void SetUp() override {
    if (static_cast<int>(GetParam()) > static_cast<int>(cpuTier())) {
      GTEST_SKIP() << "CPU lacks " << tierName(GetParam());
    }
  }
  const KernelTable& scalar() { return kernelsFor(Tier::kScalar); }
  const KernelTable& tiered() { return kernelsFor(GetParam()); }
};

TEST_P(SimdParityTest, Dot) {
  Rng rng(1);
  for (const std::size_t n : kLengths) {
    const auto a = randomVec(n, rng), b = randomVec(n, rng);
    EXPECT_NEAR(tiered().dot(a.data(), b.data(), n), scalar().dot(a.data(), b.data(), n),
                tol(n))
        << "n=" << n;
  }
}

TEST_P(SimdParityTest, Dot4) {
  Rng rng(2);
  for (const std::size_t n : kLengths) {
    const auto a = randomVec(n, rng);
    const auto b0 = randomVec(n, rng), b1 = randomVec(n, rng);
    const auto b2 = randomVec(n, rng), b3 = randomVec(n, rng);
    float ref[4], got[4];
    scalar().dot4(a.data(), b0.data(), b1.data(), b2.data(), b3.data(), n, ref);
    tiered().dot4(a.data(), b0.data(), b1.data(), b2.data(), b3.data(), n, got);
    for (int k = 0; k < 4; ++k) EXPECT_NEAR(got[k], ref[k], tol(n)) << "n=" << n << " k=" << k;
    // dot4 against dot: the blocked kernel computes the same four products.
    EXPECT_NEAR(got[2], tiered().dot(a.data(), b2.data(), n), tol(n));
  }
}

TEST_P(SimdParityTest, Axpy) {
  Rng rng(3);
  for (const std::size_t n : kLengths) {
    const auto x = randomVec(n, rng);
    auto ref = randomVec(n, rng);
    auto got = ref;
    scalar().axpy(0.37f, x.data(), ref.data(), n);
    tiered().axpy(0.37f, x.data(), got.data(), n);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(got[i], ref[i], 1e-6f) << "n=" << n;
  }
}

TEST_P(SimdParityTest, Axpy4) {
  Rng rng(4);
  for (const std::size_t n : kLengths) {
    const auto x0 = randomVec(n, rng), x1 = randomVec(n, rng);
    const auto x2 = randomVec(n, rng), x3 = randomVec(n, rng);
    const float c[4] = {0.5f, -0.25f, 0.125f, 2.0f};
    auto ref = randomVec(n, rng);
    auto got = ref;
    scalar().axpy4(c, x0.data(), x1.data(), x2.data(), x3.data(), ref.data(), n);
    tiered().axpy4(c, x0.data(), x1.data(), x2.data(), x3.data(), got.data(), n);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(got[i], ref[i], 1e-5f) << "n=" << n;
  }
}

TEST_P(SimdParityTest, Axpby) {
  Rng rng(5);
  for (const std::size_t n : kLengths) {
    const auto x = randomVec(n, rng);
    auto ref = randomVec(n, rng);
    auto got = ref;
    scalar().axpby(1.5f, x.data(), -0.75f, ref.data(), n);
    tiered().axpby(1.5f, x.data(), -0.75f, got.data(), n);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(got[i], ref[i], 1e-6f) << "n=" << n;
  }
}

TEST_P(SimdParityTest, Scale) {
  Rng rng(6);
  for (const std::size_t n : kLengths) {
    auto ref = randomVec(n, rng);
    auto got = ref;
    scalar().scale(0.9f, ref.data(), n);
    tiered().scale(0.9f, got.data(), n);
    for (std::size_t i = 0; i < n; ++i) EXPECT_FLOAT_EQ(got[i], ref[i]) << "n=" << n;
  }
}

TEST_P(SimdParityTest, DotNormAccum) {
  Rng rng(7);
  for (const std::size_t n : kLengths) {
    const auto acc = randomVec(n, rng), next = randomVec(n, rng);
    float dRef, nRef, dGot, nGot;
    scalar().dotNormAccum(acc.data(), next.data(), n, &dRef, &nRef);
    tiered().dotNormAccum(acc.data(), next.data(), n, &dGot, &nGot);
    EXPECT_NEAR(dGot, dRef, tol(n)) << "n=" << n;
    EXPECT_NEAR(nGot, nRef, tol(n)) << "n=" << n;
    // The fused kernel must agree with its two unfused halves.
    EXPECT_NEAR(dGot, tiered().dot(acc.data(), next.data(), n), tol(n));
    EXPECT_NEAR(nGot, tiered().dot(acc.data(), acc.data(), n), tol(n));
  }
}

// Bitwise, unlike the reductions above: the per-pair training kernels call
// sgnsUpdate in place of a scalar acc loop followed by axpy, so any rounding
// difference from that pair moves model bits. The reference uses the tier's
// own axpy (the scalar tier's t update is unfused, the vector tiers' fused);
// a tolerance would let an FMA into the acc update through.
TEST_P(SimdParityTest, SgnsUpdate) {
  Rng rng(13);
  std::vector<std::size_t> lengths(std::begin(kLengths), std::end(kLengths));
  lengths.push_back(64);
  lengths.push_back(128);
  for (const std::size_t n : lengths) {
    for (const float g : {0.37f, -1.3f, 0.0f}) {
      const auto h = randomVec(n, rng);
      auto t = randomVec(n, rng);
      auto acc = randomVec(n, rng);
      auto tRef = t;
      auto accRef = acc;
      for (std::size_t i = 0; i < n; ++i) accRef[i] += g * tRef[i];
      tiered().axpy(g, h.data(), tRef.data(), n);
      tiered().sgnsUpdate(g, h.data(), t.data(), acc.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(std::bit_cast<std::uint32_t>(acc[i]), std::bit_cast<std::uint32_t>(accRef[i]))
            << "acc n=" << n << " g=" << g << " i=" << i;
        EXPECT_EQ(std::bit_cast<std::uint32_t>(t[i]), std::bit_cast<std::uint32_t>(tRef[i]))
            << "t n=" << n << " g=" << g << " i=" << i;
      }
    }
  }
}

// ---- Sync-codec converts. Per-element kernels, so unlike the reductions
// above the contract is *bitwise* equality with the scalar tier: quantized
// wire bytes must not depend on the host's ISA. ----

std::vector<float> convertInputs(std::size_t n, Rng& rng) {
  // Random magnitudes spanning normals, half-subnormals, and half-overflow,
  // plus exact edge values in the leading slots.
  static const float kEdges[] = {0.0f,     -0.0f,    1.0f,     -1.0f,    65504.0f,
                                 -65504.0f, 65519.9f, 65520.0f, 70000.0f, 1e-8f,
                                 -1e-8f,    5.96e-8f, 2.98e-8f, 2.97e-8f, 1e-30f,
                                 0.5f,      -127.0f,  127.49f,  127.51f,  -128.6f};
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (i < sizeof(kEdges) / sizeof(kEdges[0])) {
      v[i] = kEdges[i];
    } else {
      const float mag = std::exp(rng.uniformFloat(-25.0f, 12.0f));
      v[i] = rng.uniformFloat(-1.0f, 1.0f) * mag;
    }
  }
  return v;
}

TEST_P(SimdParityTest, Fp16ConvertBitwiseParity) {
  Rng rng(8);
  for (const std::size_t n : kLengths) {
    const auto x = convertInputs(n, rng);
    std::vector<std::uint16_t> ref(n), got(n);
    scalar().fp32ToFp16(x.data(), ref.data(), n);
    tiered().fp32ToFp16(x.data(), got.data(), n);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(got[i], ref[i]) << "n=" << n << " i=" << i << " x=" << x[i];
    std::vector<float> dref(n), dgot(n);
    scalar().fp16ToFp32(ref.data(), dref.data(), n);
    tiered().fp16ToFp32(ref.data(), dgot.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(dgot[i]), std::bit_cast<std::uint32_t>(dref[i]))
          << "n=" << n << " i=" << i;
    }
  }
}

TEST_P(SimdParityTest, Fp16SpecialsParity) {
  const float inf = std::numeric_limits<float>::infinity();
  const float specials[] = {inf, -inf, std::numeric_limits<float>::quiet_NaN(), 65520.0f};
  std::uint16_t ref[4], got[4];
  scalar().fp32ToFp16(specials, ref, 4);
  tiered().fp32ToFp16(specials, got, 4);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(got[i], ref[i]) << "i=" << i;
  EXPECT_EQ(ref[0], 0x7c00u);  // +inf
  EXPECT_EQ(ref[1], 0xfc00u);  // -inf
  EXPECT_EQ(ref[2] & 0x7c00u, 0x7c00u);  // NaN keeps the all-ones exponent...
  EXPECT_NE(ref[2] & 0x03ffu, 0u);       // ...and a nonzero (quieted) payload
  EXPECT_EQ(ref[3], 0x7c00u);  // 65520 rounds up to +inf under RNE
}

TEST_P(SimdParityTest, Fp16RoundTripBounds) {
  Rng rng(9);
  for (const std::size_t n : kLengths) {
    const auto x = randomVec(n, rng);
    std::vector<std::uint16_t> h(n);
    std::vector<float> rt(n);
    tiered().fp32ToFp16(x.data(), h.data(), n);
    tiered().fp16ToFp32(h.data(), rt.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      // Half has 11 significand bits: normals round-trip within 2^-11
      // relative; values below the subnormal threshold within 2^-25 absolute.
      const float bound = std::max(std::fabs(x[i]) * 0x1.0p-11f, 0x1.0p-25f);
      EXPECT_NEAR(rt[i], x[i], bound) << "n=" << n << " i=" << i;
    }
  }
}

TEST_P(SimdParityTest, MaxAbsParity) {
  Rng rng(10);
  for (const std::size_t n : kLengths) {
    const auto x = convertInputs(n, rng);
    EXPECT_EQ(tiered().maxAbs(x.data(), n), scalar().maxAbs(x.data(), n)) << "n=" << n;
  }
  EXPECT_EQ(tiered().maxAbs(nullptr, 0), 0.0f);
}

TEST_P(SimdParityTest, Int8ConvertBitwiseParity) {
  Rng rng(11);
  for (const std::size_t n : kLengths) {
    const auto x = randomVec(n, rng);
    const float m = scalar().maxAbs(x.data(), n);
    const float invScale = m > 0.0f ? 127.0f / m : 0.0f;
    const float scale = m > 0.0f ? m / 127.0f : 0.0f;
    std::vector<std::int8_t> qref(n), qgot(n);
    scalar().fp32ToInt8(x.data(), invScale, qref.data(), n);
    tiered().fp32ToInt8(x.data(), invScale, qgot.data(), n);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(qgot[i], qref[i]) << "n=" << n << " i=" << i << " x=" << x[i];
    std::vector<float> dref(n), dgot(n);
    scalar().int8ToFp32(qref.data(), scale, dref.data(), n);
    tiered().int8ToFp32(qref.data(), scale, dgot.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(dgot[i]), std::bit_cast<std::uint32_t>(dref[i]))
          << "n=" << n << " i=" << i;
    }
  }
}

TEST_P(SimdParityTest, Int8RoundTripBounds) {
  Rng rng(12);
  for (const std::size_t n : kLengths) {
    auto x = randomVec(n, rng);
    x[n / 2] = 1.0f;  // pin the scale
    const float m = tiered().maxAbs(x.data(), n);
    ASSERT_GT(m, 0.0f);
    const float scale = m / 127.0f;
    std::vector<std::int8_t> q(n);
    std::vector<float> rt(n);
    tiered().fp32ToInt8(x.data(), 127.0f / m, q.data(), n);
    tiered().int8ToFp32(q.data(), scale, rt.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_LE(q[i], 127);
      EXPECT_GE(q[i], -127);
      // Quantization step is `scale`; RNE lands within half a step (small
      // slack for the inexact float scale itself).
      EXPECT_NEAR(rt[i], x[i], 0.5f * scale * (1.0f + 1e-5f)) << "n=" << n << " i=" << i;
    }
  }
}

TEST_P(SimdParityTest, Int8RneTiesToEven) {
  // Products landing exactly on .5 must round to even in every tier — the
  // scalar lrintf and the vector cvtps_epi32 agree under FE_TONEAREST.
  const float x[] = {0.5f, 1.5f, 2.5f, -0.5f, -1.5f, -2.5f, 3.5f, -3.5f};
  std::int8_t ref[8], got[8];
  scalar().fp32ToInt8(x, 1.0f, ref, 8);
  tiered().fp32ToInt8(x, 1.0f, got, 8);
  const std::int8_t expect[] = {0, 2, 2, 0, -2, -2, 4, -4};
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(ref[i], expect[i]) << "i=" << i;
    EXPECT_EQ(got[i], expect[i]) << "i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllTiers, SimdParityTest,
                         ::testing::Values(Tier::kScalar, Tier::kAvx2, Tier::kAvx512),
                         [](const ::testing::TestParamInfo<Tier>& info) {
                           return std::string(tierName(info.param));
                         });

TEST(SimdDispatch, ForceScalarEnvPinsScalarTier) {
  ASSERT_EQ(setenv("GW2V_FORCE_SCALAR", "1", 1), 0);
  EXPECT_EQ(detectTier(), Tier::kScalar);
  ASSERT_EQ(setenv("GW2V_FORCE_SCALAR", "0", 1), 0);
  EXPECT_EQ(detectTier(), cpuTier());
  ASSERT_EQ(unsetenv("GW2V_FORCE_SCALAR"), 0);
  EXPECT_EQ(detectTier(), cpuTier());
}

TEST(SimdDispatch, ForceTierForTestingSwapsActiveTable) {
  const Tier original = activeTier();
  EXPECT_EQ(forceTierForTesting(Tier::kScalar), Tier::kScalar);
  EXPECT_EQ(activeTier(), Tier::kScalar);
  // vecmath routes through the swapped table.
  const std::vector<float> a{1, 2, 3}, b{4, 5, 6};
  EXPECT_FLOAT_EQ(util::dot(a, b), 32.0f);
  // Requesting more than the CPU supports clamps instead of crashing.
  const Tier best = forceTierForTesting(Tier::kAvx512);
  EXPECT_EQ(best, cpuTier());
  EXPECT_FLOAT_EQ(util::dot(a, b), 32.0f);
  forceTierForTesting(original);
}

TEST(SimdDispatch, TierNames) {
  EXPECT_STREQ(tierName(Tier::kScalar), "scalar");
  EXPECT_STREQ(tierName(Tier::kAvx2), "avx2");
  EXPECT_STREQ(tierName(Tier::kAvx512), "avx512");
}

}  // namespace
}  // namespace gw2v::util::simd
