#include "util/simd.h"

// Three implementations of every kernel, selected once at runtime.
//
// The AVX paths are compiled with per-function target attributes rather than
// per-file flags, so this translation unit builds with any -march and the
// binary picks the widest tier the machine (and GW2V_FORCE_SCALAR) allows.
// The scalar tier keeps the exact loop shapes vecmath.h shipped with, so the
// dispatch refactor does not change the reference semantics.

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include <immintrin.h>

namespace gw2v::util::simd {

namespace {

// ---------------------------------------------------------------- scalar --

float dotScalar(const float* __restrict__ a, const float* __restrict__ b, std::size_t n) {
  float acc = 0.0f;
  for (std::size_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

void dot4Scalar(const float* __restrict__ a, const float* __restrict__ b0,
                const float* __restrict__ b1, const float* __restrict__ b2,
                const float* __restrict__ b3, std::size_t n, float* out) {
  float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
  for (std::size_t i = 0; i < n; ++i) {
    const float v = a[i];
    s0 += v * b0[i];
    s1 += v * b1[i];
    s2 += v * b2[i];
    s3 += v * b3[i];
  }
  out[0] = s0;
  out[1] = s1;
  out[2] = s2;
  out[3] = s3;
}

void axpyScalar(float alpha, const float* __restrict__ x, float* __restrict__ y,
                std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void axpy4Scalar(const float* c, const float* __restrict__ x0, const float* __restrict__ x1,
                 const float* __restrict__ x2, const float* __restrict__ x3,
                 float* __restrict__ y, std::size_t n) {
  const float c0 = c[0], c1 = c[1], c2 = c[2], c3 = c[3];
  for (std::size_t i = 0; i < n; ++i) {
    y[i] += c0 * x0[i] + c1 * x1[i] + c2 * x2[i] + c3 * x3[i];
  }
}

void axpbyScalar(float alpha, const float* __restrict__ x, float beta, float* __restrict__ y,
                 std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = alpha * x[i] + beta * y[i];
}

void scaleScalar(float alpha, float* __restrict__ x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) x[i] *= alpha;
}

void dotNormAccumScalar(const float* __restrict__ acc, const float* __restrict__ next,
                        std::size_t n, float* dotOut, float* norm2Out) {
  float d = 0.0f, g2 = 0.0f;
  for (std::size_t i = 0; i < n; ++i) {
    d += acc[i] * next[i];
    g2 += acc[i] * acc[i];
  }
  *dotOut = d;
  *norm2Out = g2;
}

void sgnsUpdateScalar(float g, const float* __restrict__ h, float* __restrict__ t,
                      float* __restrict__ acc, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    acc[i] += g * t[i];
    t[i] += g * h[i];
  }
}

// --------------------------------------------------- codec converts, scalar

// One-element helpers shared by every tier's tail loop, so tails are bitwise
// identical to the scalar tier by construction.

/// float -> IEEE binary16, round-to-nearest-even. Bit-compatible with
/// VCVTPS2PH under the default rounding mode, including subnormal halves,
/// overflow to infinity, and NaN quieting.
inline std::uint16_t f32ToF16One(float f) noexcept {
  std::uint32_t x;
  std::memcpy(&x, &f, 4);
  const std::uint16_t sign = static_cast<std::uint16_t>((x >> 16) & 0x8000u);
  const std::uint32_t abs = x & 0x7fffffffu;
  if (abs >= 0x7f800000u) {  // inf / NaN: keep top payload bits, force quiet
    const std::uint16_t payload = static_cast<std::uint16_t>((abs & 0x7fffffu) >> 13);
    return abs > 0x7f800000u ? static_cast<std::uint16_t>(sign | 0x7e00u | payload)
                             : static_cast<std::uint16_t>(sign | 0x7c00u);
  }
  const int exp = static_cast<int>(abs >> 23) - 127 + 15;  // rebias to binary16
  std::uint32_t mant = abs & 0x7fffffu;
  if (exp >= 31) return sign | 0x7c00u;  // >= 2^16: infinity
  if (exp <= 0) {
    // Subnormal half (or zero): shift the 24-bit significand down and round.
    if (exp < -10) return sign;  // < 2^-25: underflows to zero even after RNE
    mant |= 0x800000u;
    const std::uint32_t shift = static_cast<std::uint32_t>(14 - exp);  // 14..24
    std::uint32_t q = mant >> shift;
    const std::uint32_t rem = mant & ((1u << shift) - 1u);
    const std::uint32_t half = 1u << (shift - 1);
    if (rem > half || (rem == half && (q & 1u))) ++q;
    return static_cast<std::uint16_t>(sign | q);
  }
  std::uint32_t q = mant >> 13;
  const std::uint32_t rem = mant & 0x1fffu;
  std::uint16_t h = static_cast<std::uint16_t>(sign | (static_cast<std::uint32_t>(exp) << 10) | q);
  // RNE increment; a mantissa carry rolls into the exponent (and, at the very
  // top, correctly produces infinity).
  if (rem > 0x1000u || (rem == 0x1000u && (q & 1u))) ++h;
  return h;
}

/// IEEE binary16 -> float (every half is exactly representable).
inline float f16ToF32One(std::uint16_t h) noexcept {
  const std::uint32_t sign = (static_cast<std::uint32_t>(h) & 0x8000u) << 16;
  const std::uint32_t exp = (h >> 10) & 0x1fu;
  const std::uint32_t mant = h & 0x3ffu;
  std::uint32_t out;
  if (exp == 0) {
    if (mant == 0) {
      out = sign;
    } else {
      // Subnormal half: renormalize into a normal float.
      const int k = 31 - __builtin_clz(mant);  // 0..9
      out = sign | ((static_cast<std::uint32_t>(k) + 103u) << 23) |
            ((mant << (23 - k)) & 0x7fffffu);
    }
  } else if (exp == 31) {
    out = sign | 0x7f800000u | (mant << 13);
  } else {
    out = sign | ((exp + 112u) << 23) | (mant << 13);
  }
  float f;
  std::memcpy(&f, &out, 4);
  return f;
}

inline std::int8_t f32ToI8One(float v, float invScale) noexcept {
  float p = v * invScale;
  if (p > 127.0f) p = 127.0f;
  if (p < -127.0f) p = -127.0f;
  return static_cast<std::int8_t>(std::lrintf(p));  // RNE under default FE_TONEAREST
}

void fp32ToFp16Scalar(const float* __restrict__ src, std::uint16_t* __restrict__ dst,
                      std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = f32ToF16One(src[i]);
}

void fp16ToFp32Scalar(const std::uint16_t* __restrict__ src, float* __restrict__ dst,
                      std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = f16ToF32One(src[i]);
}

float maxAbsScalar(const float* __restrict__ x, std::size_t n) {
  float m = 0.0f;
  for (std::size_t i = 0; i < n; ++i) {
    const float a = std::fabs(x[i]);
    if (a > m) m = a;
  }
  return m;
}

void fp32ToInt8Scalar(const float* __restrict__ src, float invScale,
                      std::int8_t* __restrict__ dst, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = f32ToI8One(src[i], invScale);
}

void int8ToFp32Scalar(const std::int8_t* __restrict__ src, float scale,
                      float* __restrict__ dst, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = static_cast<float>(src[i]) * scale;
}

// ------------------------------------------------------------- AVX2+FMA --

__attribute__((target("avx2,fma"))) inline float hsum256(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_movehdup_ps(s));
  return _mm_cvtss_f32(s);
}

__attribute__((target("avx2,fma"))) float dotAvx2(const float* a, const float* b,
                                                  std::size_t n) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i), acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8), _mm256_loadu_ps(b + i + 8), acc1);
  }
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i), acc0);
  }
  float acc = hsum256(_mm256_add_ps(acc0, acc1));
  for (; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

// Per-query accumulation mirrors dotAvx2 exactly (same unroll, same fold,
// same tail), so dot4(a, b0..b3) is bitwise-equal to four dot(a, bk) calls.
// The serving tier's determinism contract (batched scoring == per-query
// scoring == sharded + merged scoring) depends on this equivalence.
__attribute__((target("avx2,fma"))) void dot4Avx2(const float* a, const float* b0,
                                                  const float* b1, const float* b2,
                                                  const float* b3, std::size_t n, float* out) {
  __m256 s0a = _mm256_setzero_ps(), s0b = _mm256_setzero_ps();
  __m256 s1a = _mm256_setzero_ps(), s1b = _mm256_setzero_ps();
  __m256 s2a = _mm256_setzero_ps(), s2b = _mm256_setzero_ps();
  __m256 s3a = _mm256_setzero_ps(), s3b = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256 va0 = _mm256_loadu_ps(a + i);
    const __m256 va1 = _mm256_loadu_ps(a + i + 8);
    s0a = _mm256_fmadd_ps(va0, _mm256_loadu_ps(b0 + i), s0a);
    s0b = _mm256_fmadd_ps(va1, _mm256_loadu_ps(b0 + i + 8), s0b);
    s1a = _mm256_fmadd_ps(va0, _mm256_loadu_ps(b1 + i), s1a);
    s1b = _mm256_fmadd_ps(va1, _mm256_loadu_ps(b1 + i + 8), s1b);
    s2a = _mm256_fmadd_ps(va0, _mm256_loadu_ps(b2 + i), s2a);
    s2b = _mm256_fmadd_ps(va1, _mm256_loadu_ps(b2 + i + 8), s2b);
    s3a = _mm256_fmadd_ps(va0, _mm256_loadu_ps(b3 + i), s3a);
    s3b = _mm256_fmadd_ps(va1, _mm256_loadu_ps(b3 + i + 8), s3b);
  }
  for (; i + 8 <= n; i += 8) {
    const __m256 va = _mm256_loadu_ps(a + i);
    s0a = _mm256_fmadd_ps(va, _mm256_loadu_ps(b0 + i), s0a);
    s1a = _mm256_fmadd_ps(va, _mm256_loadu_ps(b1 + i), s1a);
    s2a = _mm256_fmadd_ps(va, _mm256_loadu_ps(b2 + i), s2a);
    s3a = _mm256_fmadd_ps(va, _mm256_loadu_ps(b3 + i), s3a);
  }
  float r0 = hsum256(_mm256_add_ps(s0a, s0b));
  float r1 = hsum256(_mm256_add_ps(s1a, s1b));
  float r2 = hsum256(_mm256_add_ps(s2a, s2b));
  float r3 = hsum256(_mm256_add_ps(s3a, s3b));
  for (; i < n; ++i) {
    const float v = a[i];
    r0 += v * b0[i];
    r1 += v * b1[i];
    r2 += v * b2[i];
    r3 += v * b3[i];
  }
  out[0] = r0;
  out[1] = r1;
  out[2] = r2;
  out[3] = r3;
}

__attribute__((target("avx2,fma"))) void axpyAvx2(float alpha, const float* x, float* y,
                                                  std::size_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, _mm256_fmadd_ps(va, _mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i)));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

__attribute__((target("avx2,fma"))) void axpy4Avx2(const float* c, const float* x0,
                                                   const float* x1, const float* x2,
                                                   const float* x3, float* y, std::size_t n) {
  const __m256 c0 = _mm256_set1_ps(c[0]), c1 = _mm256_set1_ps(c[1]);
  const __m256 c2 = _mm256_set1_ps(c[2]), c3 = _mm256_set1_ps(c[3]);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 vy = _mm256_loadu_ps(y + i);
    vy = _mm256_fmadd_ps(c0, _mm256_loadu_ps(x0 + i), vy);
    vy = _mm256_fmadd_ps(c1, _mm256_loadu_ps(x1 + i), vy);
    vy = _mm256_fmadd_ps(c2, _mm256_loadu_ps(x2 + i), vy);
    vy = _mm256_fmadd_ps(c3, _mm256_loadu_ps(x3 + i), vy);
    _mm256_storeu_ps(y + i, vy);
  }
  for (; i < n; ++i) {
    y[i] += c[0] * x0[i] + c[1] * x1[i] + c[2] * x2[i] + c[3] * x3[i];
  }
}

__attribute__((target("avx2,fma"))) void axpbyAvx2(float alpha, const float* x, float beta,
                                                   float* y, std::size_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  const __m256 vb = _mm256_set1_ps(beta);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vy = _mm256_mul_ps(vb, _mm256_loadu_ps(y + i));
    _mm256_storeu_ps(y + i, _mm256_fmadd_ps(va, _mm256_loadu_ps(x + i), vy));
  }
  for (; i < n; ++i) y[i] = alpha * x[i] + beta * y[i];
}

__attribute__((target("avx2,fma"))) void scaleAvx2(float alpha, float* x, std::size_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, _mm256_mul_ps(va, _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) x[i] *= alpha;
}

__attribute__((target("avx2,fma"))) void dotNormAccumAvx2(const float* acc, const float* next,
                                                          std::size_t n, float* dotOut,
                                                          float* norm2Out) {
  __m256 vd = _mm256_setzero_ps();
  __m256 vn = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 va = _mm256_loadu_ps(acc + i);
    vd = _mm256_fmadd_ps(va, _mm256_loadu_ps(next + i), vd);
    vn = _mm256_fmadd_ps(va, va, vn);
  }
  float d = hsum256(vd), g2 = hsum256(vn);
  for (; i < n; ++i) {
    d += acc[i] * next[i];
    g2 += acc[i] * acc[i];
  }
  *dotOut = d;
  *norm2Out = g2;
}

// The acc update stays a multiply then an add (an FMA would round once and
// move the bits); the t update is axpyAvx2's, fused body and unfused tail.
__attribute__((target("avx2,fma"))) void sgnsUpdateAvx2(float g, const float* h, float* t,
                                                        float* acc, std::size_t n) {
  const __m256 vg = _mm256_set1_ps(g);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vt = _mm256_loadu_ps(t + i);
    _mm256_storeu_ps(acc + i, _mm256_add_ps(_mm256_loadu_ps(acc + i), _mm256_mul_ps(vg, vt)));
    _mm256_storeu_ps(t + i, _mm256_fmadd_ps(vg, _mm256_loadu_ps(h + i), vt));
  }
  for (; i < n; ++i) {
    acc[i] += g * t[i];
    t[i] += g * h[i];
  }
}

// ----------------------------------------------- codec converts, AVX2+F16C

// The fp16 pair needs F16C on top of AVX2; cpuTier() requires all three
// before selecting the AVX2 tier (every AVX2 part since Haswell has F16C).

__attribute__((target("avx2,fma,f16c"))) void fp32ToFp16Avx2(const float* src,
                                                             std::uint16_t* dst,
                                                             std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i h = _mm256_cvtps_ph(_mm256_loadu_ps(src + i),
                                      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), h);
  }
  for (; i < n; ++i) dst[i] = f32ToF16One(src[i]);
}

__attribute__((target("avx2,fma,f16c"))) void fp16ToFp32Avx2(const std::uint16_t* src,
                                                             float* dst, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i h = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    _mm256_storeu_ps(dst + i, _mm256_cvtph_ps(h));
  }
  for (; i < n; ++i) dst[i] = f16ToF32One(src[i]);
}

__attribute__((target("avx2,fma"))) float maxAbsAvx2(const float* x, std::size_t n) {
  const __m256 absMask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  __m256 vm = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    vm = _mm256_max_ps(vm, _mm256_and_ps(absMask, _mm256_loadu_ps(x + i)));
  }
  const __m128 lo = _mm256_castps256_ps128(vm);
  const __m128 hi = _mm256_extractf128_ps(vm, 1);
  __m128 s = _mm_max_ps(lo, hi);
  s = _mm_max_ps(s, _mm_movehl_ps(s, s));
  s = _mm_max_ss(s, _mm_movehdup_ps(s));
  float m = _mm_cvtss_f32(s);
  for (; i < n; ++i) {
    const float a = std::fabs(x[i]);
    if (a > m) m = a;
  }
  return m;
}

__attribute__((target("avx2,fma"))) void fp32ToInt8Avx2(const float* src, float invScale,
                                                        std::int8_t* dst, std::size_t n) {
  const __m256 vs = _mm256_set1_ps(invScale);
  const __m256 hi = _mm256_set1_ps(127.0f);
  const __m256 lo = _mm256_set1_ps(-127.0f);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 p = _mm256_mul_ps(_mm256_loadu_ps(src + i), vs);
    p = _mm256_min_ps(hi, _mm256_max_ps(lo, p));
    const __m256i q = _mm256_cvtps_epi32(p);  // RNE under default MXCSR
    const __m128i q16 =
        _mm_packs_epi32(_mm256_castsi256_si128(q), _mm256_extracti128_si256(q, 1));
    const __m128i q8 = _mm_packs_epi16(q16, q16);  // clamp made saturation a no-op
    _mm_storel_epi64(reinterpret_cast<__m128i*>(dst + i), q8);
  }
  for (; i < n; ++i) dst[i] = f32ToI8One(src[i], invScale);
}

__attribute__((target("avx2,fma"))) void int8ToFp32Avx2(const std::int8_t* src, float scale,
                                                        float* dst, std::size_t n) {
  const __m256 vs = _mm256_set1_ps(scale);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i b = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(src + i));
    const __m256i w = _mm256_cvtepi8_epi32(b);
    _mm256_storeu_ps(dst + i, _mm256_mul_ps(_mm256_cvtepi32_ps(w), vs));
  }
  for (; i < n; ++i) dst[i] = static_cast<float>(src[i]) * scale;
}

// ------------------------------------------------------------- AVX-512F --

__attribute__((target("avx512f"))) inline __mmask16 tailMask(std::size_t rem) {
  return static_cast<__mmask16>((1u << rem) - 1u);
}

__attribute__((target("avx512f"))) float dotAvx512(const float* a, const float* b,
                                                   std::size_t n) {
  __m512 acc0 = _mm512_setzero_ps();
  __m512 acc1 = _mm512_setzero_ps();
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i), acc0);
    acc1 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i + 16), _mm512_loadu_ps(b + i + 16), acc1);
  }
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i), acc0);
  }
  if (i < n) {
    const __mmask16 m = tailMask(n - i);
    acc1 = _mm512_fmadd_ps(_mm512_maskz_loadu_ps(m, a + i), _mm512_maskz_loadu_ps(m, b + i),
                           acc1);
  }
  return _mm512_reduce_add_ps(_mm512_add_ps(acc0, acc1));
}

// Mirrors dotAvx512's per-query reduction exactly (32-wide main loop into
// acc0/acc1, 16-wide into acc0, masked tail into acc1) for the same
// bitwise-equivalence contract as dot4Avx2.
__attribute__((target("avx512f"))) void dot4Avx512(const float* a, const float* b0,
                                                   const float* b1, const float* b2,
                                                   const float* b3, std::size_t n,
                                                   float* out) {
  __m512 s0a = _mm512_setzero_ps(), s0b = _mm512_setzero_ps();
  __m512 s1a = _mm512_setzero_ps(), s1b = _mm512_setzero_ps();
  __m512 s2a = _mm512_setzero_ps(), s2b = _mm512_setzero_ps();
  __m512 s3a = _mm512_setzero_ps(), s3b = _mm512_setzero_ps();
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m512 va0 = _mm512_loadu_ps(a + i);
    const __m512 va1 = _mm512_loadu_ps(a + i + 16);
    s0a = _mm512_fmadd_ps(va0, _mm512_loadu_ps(b0 + i), s0a);
    s0b = _mm512_fmadd_ps(va1, _mm512_loadu_ps(b0 + i + 16), s0b);
    s1a = _mm512_fmadd_ps(va0, _mm512_loadu_ps(b1 + i), s1a);
    s1b = _mm512_fmadd_ps(va1, _mm512_loadu_ps(b1 + i + 16), s1b);
    s2a = _mm512_fmadd_ps(va0, _mm512_loadu_ps(b2 + i), s2a);
    s2b = _mm512_fmadd_ps(va1, _mm512_loadu_ps(b2 + i + 16), s2b);
    s3a = _mm512_fmadd_ps(va0, _mm512_loadu_ps(b3 + i), s3a);
    s3b = _mm512_fmadd_ps(va1, _mm512_loadu_ps(b3 + i + 16), s3b);
  }
  for (; i + 16 <= n; i += 16) {
    const __m512 va = _mm512_loadu_ps(a + i);
    s0a = _mm512_fmadd_ps(va, _mm512_loadu_ps(b0 + i), s0a);
    s1a = _mm512_fmadd_ps(va, _mm512_loadu_ps(b1 + i), s1a);
    s2a = _mm512_fmadd_ps(va, _mm512_loadu_ps(b2 + i), s2a);
    s3a = _mm512_fmadd_ps(va, _mm512_loadu_ps(b3 + i), s3a);
  }
  if (i < n) {
    const __mmask16 m = tailMask(n - i);
    const __m512 va = _mm512_maskz_loadu_ps(m, a + i);
    s0b = _mm512_fmadd_ps(va, _mm512_maskz_loadu_ps(m, b0 + i), s0b);
    s1b = _mm512_fmadd_ps(va, _mm512_maskz_loadu_ps(m, b1 + i), s1b);
    s2b = _mm512_fmadd_ps(va, _mm512_maskz_loadu_ps(m, b2 + i), s2b);
    s3b = _mm512_fmadd_ps(va, _mm512_maskz_loadu_ps(m, b3 + i), s3b);
  }
  out[0] = _mm512_reduce_add_ps(_mm512_add_ps(s0a, s0b));
  out[1] = _mm512_reduce_add_ps(_mm512_add_ps(s1a, s1b));
  out[2] = _mm512_reduce_add_ps(_mm512_add_ps(s2a, s2b));
  out[3] = _mm512_reduce_add_ps(_mm512_add_ps(s3a, s3b));
}

__attribute__((target("avx512f"))) void axpyAvx512(float alpha, const float* x, float* y,
                                                   std::size_t n) {
  const __m512 va = _mm512_set1_ps(alpha);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(y + i, _mm512_fmadd_ps(va, _mm512_loadu_ps(x + i), _mm512_loadu_ps(y + i)));
  }
  if (i < n) {
    const __mmask16 m = tailMask(n - i);
    const __m512 vy = _mm512_maskz_loadu_ps(m, y + i);
    _mm512_mask_storeu_ps(y + i, m, _mm512_fmadd_ps(va, _mm512_maskz_loadu_ps(m, x + i), vy));
  }
}

__attribute__((target("avx512f"))) void axpy4Avx512(const float* c, const float* x0,
                                                    const float* x1, const float* x2,
                                                    const float* x3, float* y, std::size_t n) {
  const __m512 c0 = _mm512_set1_ps(c[0]), c1 = _mm512_set1_ps(c[1]);
  const __m512 c2 = _mm512_set1_ps(c[2]), c3 = _mm512_set1_ps(c[3]);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m512 vy = _mm512_loadu_ps(y + i);
    vy = _mm512_fmadd_ps(c0, _mm512_loadu_ps(x0 + i), vy);
    vy = _mm512_fmadd_ps(c1, _mm512_loadu_ps(x1 + i), vy);
    vy = _mm512_fmadd_ps(c2, _mm512_loadu_ps(x2 + i), vy);
    vy = _mm512_fmadd_ps(c3, _mm512_loadu_ps(x3 + i), vy);
    _mm512_storeu_ps(y + i, vy);
  }
  if (i < n) {
    const __mmask16 m = tailMask(n - i);
    __m512 vy = _mm512_maskz_loadu_ps(m, y + i);
    vy = _mm512_fmadd_ps(c0, _mm512_maskz_loadu_ps(m, x0 + i), vy);
    vy = _mm512_fmadd_ps(c1, _mm512_maskz_loadu_ps(m, x1 + i), vy);
    vy = _mm512_fmadd_ps(c2, _mm512_maskz_loadu_ps(m, x2 + i), vy);
    vy = _mm512_fmadd_ps(c3, _mm512_maskz_loadu_ps(m, x3 + i), vy);
    _mm512_mask_storeu_ps(y + i, m, vy);
  }
}

__attribute__((target("avx512f"))) void axpbyAvx512(float alpha, const float* x, float beta,
                                                    float* y, std::size_t n) {
  const __m512 va = _mm512_set1_ps(alpha);
  const __m512 vb = _mm512_set1_ps(beta);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 vy = _mm512_mul_ps(vb, _mm512_loadu_ps(y + i));
    _mm512_storeu_ps(y + i, _mm512_fmadd_ps(va, _mm512_loadu_ps(x + i), vy));
  }
  if (i < n) {
    const __mmask16 m = tailMask(n - i);
    const __m512 vy = _mm512_mul_ps(vb, _mm512_maskz_loadu_ps(m, y + i));
    _mm512_mask_storeu_ps(y + i, m, _mm512_fmadd_ps(va, _mm512_maskz_loadu_ps(m, x + i), vy));
  }
}

__attribute__((target("avx512f"))) void scaleAvx512(float alpha, float* x, std::size_t n) {
  const __m512 va = _mm512_set1_ps(alpha);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(x + i, _mm512_mul_ps(va, _mm512_loadu_ps(x + i)));
  }
  if (i < n) {
    const __mmask16 m = tailMask(n - i);
    _mm512_mask_storeu_ps(x + i, m, _mm512_mul_ps(va, _mm512_maskz_loadu_ps(m, x + i)));
  }
}

__attribute__((target("avx512f"))) void dotNormAccumAvx512(const float* acc, const float* next,
                                                           std::size_t n, float* dotOut,
                                                           float* norm2Out) {
  __m512 vd = _mm512_setzero_ps();
  __m512 vn = _mm512_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 va = _mm512_loadu_ps(acc + i);
    vd = _mm512_fmadd_ps(va, _mm512_loadu_ps(next + i), vd);
    vn = _mm512_fmadd_ps(va, va, vn);
  }
  if (i < n) {
    const __mmask16 m = tailMask(n - i);
    const __m512 va = _mm512_maskz_loadu_ps(m, acc + i);
    vd = _mm512_fmadd_ps(va, _mm512_maskz_loadu_ps(m, next + i), vd);
    vn = _mm512_fmadd_ps(va, va, vn);
  }
  *dotOut = _mm512_reduce_add_ps(vd);
  *norm2Out = _mm512_reduce_add_ps(vn);
}

// Same rounding split as sgnsUpdateAvx2; the masked tail fuses t like
// axpyAvx512's does.
__attribute__((target("avx512f"))) void sgnsUpdateAvx512(float g, const float* h, float* t,
                                                         float* acc, std::size_t n) {
  const __m512 vg = _mm512_set1_ps(g);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 vt = _mm512_loadu_ps(t + i);
    _mm512_storeu_ps(acc + i, _mm512_add_ps(_mm512_loadu_ps(acc + i), _mm512_mul_ps(vg, vt)));
    _mm512_storeu_ps(t + i, _mm512_fmadd_ps(vg, _mm512_loadu_ps(h + i), vt));
  }
  if (i < n) {
    const __mmask16 m = tailMask(n - i);
    const __m512 vt = _mm512_maskz_loadu_ps(m, t + i);
    _mm512_mask_storeu_ps(acc + i, m,
                          _mm512_add_ps(_mm512_maskz_loadu_ps(m, acc + i), _mm512_mul_ps(vg, vt)));
    _mm512_mask_storeu_ps(t + i, m, _mm512_fmadd_ps(vg, _mm512_maskz_loadu_ps(m, h + i), vt));
  }
}

// --------------------------------------------- codec converts, AVX-512F --

__attribute__((target("avx512f"))) void fp32ToFp16Avx512(const float* src,
                                                         std::uint16_t* dst,
                                                         std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256i h = _mm512_cvtps_ph(_mm512_loadu_ps(src + i),
                                      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), h);
  }
  for (; i < n; ++i) dst[i] = f32ToF16One(src[i]);
}

__attribute__((target("avx512f"))) void fp16ToFp32Avx512(const std::uint16_t* src, float* dst,
                                                         std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256i h = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm512_storeu_ps(dst + i, _mm512_cvtph_ps(h));
  }
  for (; i < n; ++i) dst[i] = f16ToF32One(src[i]);
}

__attribute__((target("avx512f"))) float maxAbsAvx512(const float* x, std::size_t n) {
  // _mm512_and_ps needs AVX512DQ, which the tier probe does not check; the
  // integer and is plain AVX512F and clears the sign bit identically.
  const __m512i absMask = _mm512_set1_epi32(0x7fffffff);
  __m512 vm = _mm512_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    vm = _mm512_max_ps(vm, _mm512_castsi512_ps(_mm512_and_si512(
                               absMask, _mm512_castps_si512(_mm512_loadu_ps(x + i)))));
  }
  float m = _mm512_reduce_max_ps(vm);
  for (; i < n; ++i) {
    const float a = std::fabs(x[i]);
    if (a > m) m = a;
  }
  return m;
}

__attribute__((target("avx512f"))) void fp32ToInt8Avx512(const float* src, float invScale,
                                                         std::int8_t* dst, std::size_t n) {
  const __m512 vs = _mm512_set1_ps(invScale);
  const __m512 hi = _mm512_set1_ps(127.0f);
  const __m512 lo = _mm512_set1_ps(-127.0f);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m512 p = _mm512_mul_ps(_mm512_loadu_ps(src + i), vs);
    p = _mm512_min_ps(hi, _mm512_max_ps(lo, p));
    const __m512i q = _mm512_cvtps_epi32(p);  // RNE under default MXCSR
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), _mm512_cvtsepi32_epi8(q));
  }
  for (; i < n; ++i) dst[i] = f32ToI8One(src[i], invScale);
}

__attribute__((target("avx512f"))) void int8ToFp32Avx512(const std::int8_t* src, float scale,
                                                         float* dst, std::size_t n) {
  const __m512 vs = _mm512_set1_ps(scale);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i b = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    const __m512i w = _mm512_cvtepi8_epi32(b);
    _mm512_storeu_ps(dst + i, _mm512_mul_ps(_mm512_cvtepi32_ps(w), vs));
  }
  for (; i < n; ++i) dst[i] = static_cast<float>(src[i]) * scale;
}

// ------------------------------------------------------------- dispatch --

constexpr KernelTable kScalarTable{dotScalar,      dot4Scalar,     axpyScalar,
                                   axpy4Scalar,    axpbyScalar,    scaleScalar,
                                   dotNormAccumScalar, sgnsUpdateScalar,
                                   fp32ToFp16Scalar, fp16ToFp32Scalar, maxAbsScalar,
                                   fp32ToInt8Scalar, int8ToFp32Scalar};
constexpr KernelTable kAvx2Table{dotAvx2,        dot4Avx2,       axpyAvx2,
                                 axpy4Avx2,      axpbyAvx2,      scaleAvx2,
                                 dotNormAccumAvx2, sgnsUpdateAvx2,
                                 fp32ToFp16Avx2, fp16ToFp32Avx2, maxAbsAvx2,
                                 fp32ToInt8Avx2, int8ToFp32Avx2};
constexpr KernelTable kAvx512Table{dotAvx512,        dot4Avx512,       axpyAvx512,
                                   axpy4Avx512,      axpbyAvx512,      scaleAvx512,
                                   dotNormAccumAvx512, sgnsUpdateAvx512,
                                   fp32ToFp16Avx512, fp16ToFp32Avx512, maxAbsAvx512,
                                   fp32ToInt8Avx512, int8ToFp32Avx512};

std::atomic<const KernelTable*> gActive{nullptr};

bool envForcesScalar() noexcept {
  const char* v = std::getenv("GW2V_FORCE_SCALAR");
  return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

}  // namespace

const char* tierName(Tier t) noexcept {
  switch (t) {
    case Tier::kScalar: return "scalar";
    case Tier::kAvx2: return "avx2";
    case Tier::kAvx512: return "avx512";
  }
  return "?";
}

Tier cpuTier() noexcept {
  if (__builtin_cpu_supports("avx512f")) return Tier::kAvx512;
  // The AVX2 tier's fp16 converts use F16C; ubiquitous alongside AVX2+FMA,
  // but check anyway so the tier never faults.
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma") &&
      __builtin_cpu_supports("f16c")) {
    return Tier::kAvx2;
  }
  return Tier::kScalar;
}

Tier detectTier() noexcept { return envForcesScalar() ? Tier::kScalar : cpuTier(); }

const KernelTable& kernelsFor(Tier t) noexcept {
  const Tier cap = cpuTier();
  const Tier use = static_cast<int>(t) <= static_cast<int>(cap) ? t : cap;
  switch (use) {
    case Tier::kAvx512: return kAvx512Table;
    case Tier::kAvx2: return kAvx2Table;
    case Tier::kScalar: break;
  }
  return kScalarTable;
}

const KernelTable& activeKernels() noexcept {
  const KernelTable* t = gActive.load(std::memory_order_acquire);
  if (t == nullptr) {
    t = &kernelsFor(detectTier());
    gActive.store(t, std::memory_order_release);
  }
  return *t;
}

Tier activeTier() noexcept {
  const KernelTable* t = &activeKernels();
  if (t == &kAvx512Table) return Tier::kAvx512;
  if (t == &kAvx2Table) return Tier::kAvx2;
  return Tier::kScalar;
}

Tier forceTierForTesting(Tier t) noexcept {
  const KernelTable& table = kernelsFor(t);
  gActive.store(&table, std::memory_order_release);
  return activeTier();
}

}  // namespace gw2v::util::simd
