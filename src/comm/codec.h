#pragma once

// Sync payload codecs: how many bytes each synced row costs on the wire.
//
// The sync engine ships rows as [u32 row id][encoded values]; the codec
// decides the encoded-value layout:
//
//   fp32  dim * 4 bytes, raw little-endian floats. Byte-identical to the
//         pre-codec wire format — the bit-exact golden path and default.
//   fp16  dim * 2 bytes, IEEE binary16 round-to-nearest-even.
//   int8  4-byte fp32 per-row scale followed by dim signed bytes:
//         q = clamp(rne(v * 127 / maxAbs), -127, 127), decoded as q * scale
//         with scale = maxAbs / 127. An all-zero row encodes scale = 0.
//
// Encode and decode route through the runtime SIMD dispatch layer
// (util/simd.h); the convert kernels are bitwise-identical across tiers, so
// the wire bytes do not depend on the host's ISA. Every consumer decodes the
// same bytes to the same floats, which is what keeps the SPMD replicas in
// lockstep under lossy codecs.

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string_view>

#include "util/simd.h"
#include "util/vecmath.h"

namespace gw2v::comm {

enum class SyncCodec : int { kFp32 = 0, kFp16 = 1, kInt8 = 2 };

inline const char* syncCodecName(SyncCodec c) noexcept {
  switch (c) {
    case SyncCodec::kFp32: return "fp32";
    case SyncCodec::kFp16: return "fp16";
    case SyncCodec::kInt8: return "int8";
  }
  return "?";
}

/// Parse "fp32" / "fp16" / "int8" (as spelled by syncCodecName); returns
/// false and leaves `out` untouched on anything else.
inline bool parseSyncCodec(std::string_view name, SyncCodec& out) noexcept {
  if (name == "fp32") { out = SyncCodec::kFp32; return true; }
  if (name == "fp16") { out = SyncCodec::kFp16; return true; }
  if (name == "int8") { out = SyncCodec::kInt8; return true; }
  return false;
}

/// Encoded bytes for one row's values (excluding the u32 row id).
inline constexpr std::size_t codecValueBytes(SyncCodec c, std::uint32_t dim) noexcept {
  switch (c) {
    case SyncCodec::kFp16: return static_cast<std::size_t>(dim) * 2;
    case SyncCodec::kInt8: return 4 + static_cast<std::size_t>(dim);
    case SyncCodec::kFp32: break;
  }
  return static_cast<std::size_t>(dim) * 4;
}

/// Full wire entry: u32 row id + encoded values.
inline constexpr std::size_t codecEntryBytes(SyncCodec c, std::uint32_t dim) noexcept {
  return 4 + codecValueBytes(c, dim);
}

/// Encode one row's values at `out` (codecValueBytes(c, v.size()) bytes).
/// For fp16, `out` must be 2-byte aligned; the sync payload layout (4-byte
/// label headers, even entry sizes) guarantees that.
inline void encodeRowValues(SyncCodec c, std::span<const float> v, std::uint8_t* out) noexcept {
  const auto& k = util::simd::activeKernels();
  switch (c) {
    case SyncCodec::kFp32:
      std::memcpy(out, v.data(), v.size() * 4);
      break;
    case SyncCodec::kFp16:
      assert(reinterpret_cast<std::uintptr_t>(out) % 2 == 0);
      k.fp32ToFp16(v.data(), reinterpret_cast<std::uint16_t*>(out), v.size());
      break;
    case SyncCodec::kInt8: {
      const float m = k.maxAbs(v.data(), v.size());
      const float scale = m > 0.0f ? m / 127.0f : 0.0f;
      const float invScale = m > 0.0f ? 127.0f / m : 0.0f;
      std::memcpy(out, &scale, 4);
      k.fp32ToInt8(v.data(), invScale, reinterpret_cast<std::int8_t*>(out + 4), v.size());
      break;
    }
  }
}

/// Decode one row's values from `in` into `out` (out.size() == dim).
inline void decodeRowValues(SyncCodec c, const std::uint8_t* in, std::span<float> out) noexcept {
  const auto& k = util::simd::activeKernels();
  switch (c) {
    case SyncCodec::kFp32:
      std::memcpy(out.data(), in, out.size() * 4);
      break;
    case SyncCodec::kFp16:
      assert(reinterpret_cast<std::uintptr_t>(in) % 2 == 0);
      k.fp16ToFp32(reinterpret_cast<const std::uint16_t*>(in), out.data(), out.size());
      break;
    case SyncCodec::kInt8: {
      float scale;
      std::memcpy(&scale, in, 4);
      k.int8ToFp32(reinterpret_cast<const std::int8_t*>(in + 4), scale, out.data(),
                   out.size());
      break;
    }
  }
}

/// One error-feedback step of a lossy codec: owe += residual, encode owe at
/// `out`, then residual = owe - decode(out), so the quantization error is
/// owed to the next encode of this row instead of lost. `owe` enters holding
/// the value to ship and leaves holding what was owed; `dec` is dim floats of
/// scratch.
inline void encodeWithFeedback(SyncCodec c, std::span<float> owe, std::span<float> residual,
                               std::uint8_t* out, std::span<float> dec) noexcept {
  util::add(residual, owe);
  encodeRowValues(c, owe, out);
  decodeRowValues(c, out, dec);
  util::sub(owe, dec, residual);
}

}  // namespace gw2v::comm
