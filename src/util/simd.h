#pragma once

// Runtime-dispatched SIMD kernels for the dense level-1 math on the SGNS
// critical path.
//
// The tier (AVX-512F > AVX2+FMA > scalar) is resolved once, on first use,
// from __builtin_cpu_supports — so one binary runs optimally on any x86-64
// host regardless of the -march it was compiled with. Setting the
// GW2V_FORCE_SCALAR environment variable (to anything but "0"/"") pins the
// scalar tier; tests use it to cross-check the vector paths, and
// forceTierForTesting() lets a single process compare tiers directly.
//
// All kernels accept raw pointers + length so they can run over both
// std::span rows (vecmath.h wraps them) and the packed scratch tiles of the
// batched SGNS kernel. Lengths need no particular alignment or multiple —
// tails are masked (AVX-512) or peeled (AVX2). SIMD tiers reassociate the
// reductions, so results may differ from the scalar tier in the last ulps;
// every tier is deterministic for a fixed input.

#include <cstddef>
#include <cstdint>

namespace gw2v::util::simd {

enum class Tier : int { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

const char* tierName(Tier t) noexcept;

/// The dispatch table. dot4/axpy4 are the register-blocked building blocks
/// of the batched SGNS mini-GEMM: they stream one row against four partners
/// in a single pass, quartering the memory traffic of four level-1 calls.
struct KernelTable {
  /// sum_i a[i] * b[i]
  float (*dot)(const float* a, const float* b, std::size_t n);
  /// out[k] = sum_i a[i] * bk[i]  for k in 0..3
  void (*dot4)(const float* a, const float* b0, const float* b1, const float* b2,
               const float* b3, std::size_t n, float* out);
  /// y += alpha * x
  void (*axpy)(float alpha, const float* x, float* y, std::size_t n);
  /// y += c[0]*x0 + c[1]*x1 + c[2]*x2 + c[3]*x3
  void (*axpy4)(const float* c, const float* x0, const float* x1, const float* x2,
                const float* x3, float* y, std::size_t n);
  /// y = alpha * x + beta * y
  void (*axpby)(float alpha, const float* x, float beta, float* y, std::size_t n);
  /// x *= alpha
  void (*scale)(float alpha, float* x, std::size_t n);
  /// Fused single pass: *dotOut = sum_i acc[i]*next[i], *norm2Out = sum_i acc[i]^2.
  /// The model combiner's projection needs exactly these two reductions.
  void (*dotNormAccum)(const float* acc, const float* next, std::size_t n, float* dotOut,
                       float* norm2Out);
  /// One SGNS target's whole update in a single pass over t:
  ///   acc[i] += g * t[i]   (product rounded, then the sum: never fused)
  ///   t[i]   += g * h[i]   (rounded exactly as this tier's axpy rounds it)
  /// Each t[i] is read once, before it is written, so the call equals a scalar
  /// acc loop followed by axpy(g, h, t, n) bit for bit. h, t and acc must not
  /// overlap.
  void (*sgnsUpdate)(float g, const float* h, float* t, float* acc, std::size_t n);

  // Sync-codec converts. Unlike the reductions above, these are per-element
  // and therefore bitwise-identical across tiers: the scalar tier is the
  // oracle and the vector tiers must reproduce it exactly (the wire bytes of
  // a quantized sync payload must not depend on the host's ISA).

  /// dst[i] = IEEE binary16 of src[i], round-to-nearest-even (matches F16C).
  void (*fp32ToFp16)(const float* src, std::uint16_t* dst, std::size_t n);
  /// dst[i] = float of the binary16 src[i] (exact).
  void (*fp16ToFp32)(const std::uint16_t* src, float* dst, std::size_t n);
  /// max_i |x[i]| (0 for n == 0).
  float (*maxAbs)(const float* x, std::size_t n);
  /// dst[i] = clamp(rne(src[i] * invScale), -127, 127); rne is round-to-
  /// nearest-even (matches CVTPS2DQ under the default MXCSR rounding mode).
  void (*fp32ToInt8)(const float* src, float invScale, std::int8_t* dst, std::size_t n);
  /// dst[i] = float(src[i]) * scale (the int8->float widen is exact).
  void (*int8ToFp32)(const std::int8_t* src, float scale, float* dst, std::size_t n);
};

/// Kernels for the tier resolved at first use (env override, then CPUID).
const KernelTable& activeKernels() noexcept;

/// Kernels for an explicit tier (benchmarks compare tiers side by side).
/// Requesting a tier the CPU cannot run falls back to the best supported one.
const KernelTable& kernelsFor(Tier t) noexcept;

/// The tier activeKernels() currently dispatches to.
Tier activeTier() noexcept;

/// Re-resolve from GW2V_FORCE_SCALAR + CPUID (does not change the active
/// table; tests assert on the result after mutating the environment).
Tier detectTier() noexcept;

/// Best tier the CPU supports, ignoring the environment override.
Tier cpuTier() noexcept;

/// Pin the active table to `t` (clamped to cpuTier()); returns the tier
/// actually installed. Test-only: not synchronized with concurrent kernels.
Tier forceTierForTesting(Tier t) noexcept;

}  // namespace gw2v::util::simd
