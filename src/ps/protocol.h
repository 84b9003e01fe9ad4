#pragma once

// Wire protocol of the asynchronous parameter server (Multiverso-style).
//
// Ranks 0..numServers-1 are servers; the remaining ranks are workers. All
// traffic is point-to-point on the Transport seam, inside the TagSpace::kPs
// block (registered with the transport so a tag-range collision with another
// subsystem fails fast):
//
//   kTagRequest   worker -> server    Get / Add / Done
//   kTagReply     server -> worker    Get replies, matched by (server, tag)
//
// Every message carries a fixed envelope [u8 kind][f64 arriveVt]. The stamp
// is the *modelled* arrival time computed by the sender's VirtualTimeBoard
// (sim/virtual_time.h) — telemetry only; no protocol decision reads it, which
// is what keeps seeded replay bit-identical while still pricing asynchrony.
//
// Message bodies (after the envelope):
//
//   Get    [u64 round][u32 count] then count x [u32 row][u64 cachedEmbVer]
//          [u64 cachedTrnVer] — the version-keyed row cache's idea of each
//          row, kNoVersion when uncached. Rows ascending, all owned by the
//          destination server.
//   Reply  [u64 round][u32 count] then count x [u32 row] followed per label
//          by [u64 version][u8 fresh][encoded values if fresh]. fresh=0 means
//          the worker's cached copy is still the canonical value.
//   Add    [u64 clock][u8 lastChunk][u32 count] then count x [u8 label]
//          [u32 row][encoded delta]. One logical push per (worker, server,
//          clock) is split into pipelined chunks; the final one sets
//          lastChunk. A worker with nothing to push still sends one empty
//          chunk so the server's per-worker clock advances.
//   Done   empty body; the worker has pushed its final clock.
//
// Row values/deltas are encoded with comm::SyncCodec (fp32/fp16/int8). Both
// directions use error feedback for lossy codecs: the worker keeps per-row
// push residuals (PR 6 machinery — owe = delta + residual, ship Q(owe)), and
// the server keeps per-row reply residuals folded into the encode-once reply
// cache, so quantization error stays bounded instead of accumulating.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "comm/codec.h"
#include "comm/collectives.h"
#include "comm/serialize.h"

namespace gw2v::ps {

inline constexpr int kTagRequest = comm::tagSpaceRange(comm::TagSpace::kPs).first + 0;
inline constexpr int kTagReply = comm::tagSpaceRange(comm::TagSpace::kPs).first + 1;

enum class MsgKind : std::uint8_t { kGet = 0, kAdd = 1, kDone = 2, kReply = 3 };

/// Version sentinel: "I have no cached copy of this row".
inline constexpr std::uint64_t kNoVersion = ~std::uint64_t{0};

/// Protocol-level knobs shared by ServerCore and ClientCore.
struct PsConfig {
  std::uint32_t numRows = 0;
  std::uint32_t dim = 0;
  /// SSP staleness bound s: rounds are grouped into windows of s + 1; a
  /// worker at round r reads the canonical model at the window base
  /// r - r mod (s+1), so reads are up to s clocks stale and workers drift up
  /// to s rounds apart without blocking. s = 0 is BSP (every round a window).
  unsigned staleness = 0;
  /// Wire codec for Add deltas and Get replies. Lossy codecs always carry
  /// error-feedback residuals on both sides (client push, server reply).
  comm::SyncCodec codec = comm::SyncCodec::kFp32;
  /// Client row-cache capacity in rows (0 disables). Affects wire bytes
  /// only, never model bits: a cached row is byte-identical to what the
  /// server would re-send at the same version.
  std::size_t cacheRows = 4096;
};

/// Rows per pipelined Add chunk (the push is cut into messages of this many
/// rows so encode and transfer overlap on the modelled NIC).
inline constexpr std::uint32_t kPushChunkRows = 512;

// ---- Envelope ----

inline constexpr std::size_t kEnvelopeBytes = 1 + sizeof(double);

/// Prepend the envelope with a zero arrival stamp (patched by stampArrival
/// once the sender's VirtualTimeBoard has priced the send).
inline std::vector<std::uint8_t> withEnvelope(MsgKind kind, std::vector<std::uint8_t> body) {
  std::vector<std::uint8_t> msg(kEnvelopeBytes + body.size());
  msg[0] = static_cast<std::uint8_t>(kind);
  const double zero = 0.0;
  std::memcpy(msg.data() + 1, &zero, sizeof(double));
  if (!body.empty()) std::memcpy(msg.data() + kEnvelopeBytes, body.data(), body.size());
  return msg;
}

inline void stampArrival(std::vector<std::uint8_t>& msg, double arriveVt) {
  std::memcpy(msg.data() + 1, &arriveVt, sizeof(double));
}

/// Decodes the envelope off the wire; a kind outside MsgKind, or an arrival
/// stamp that is non-finite or negative, throws std::runtime_error like every
/// other malformed field (a bad stamp would silently poison modelled time).
inline std::pair<MsgKind, double> readEnvelope(comm::ByteReader& r) {
  const auto kind = r.get<std::uint8_t>();
  if (kind > static_cast<std::uint8_t>(MsgKind::kReply))
    throw std::runtime_error("ps: unknown message kind " + std::to_string(kind));
  const double arriveVt = r.get<double>();
  if (!std::isfinite(arriveVt) || arriveVt < 0.0)
    throw std::runtime_error("ps: arrival stamp is not a finite time >= 0");
  return {static_cast<MsgKind>(kind), arriveVt};
}

// ---- Codec'd row values inside message bodies ----

/// Append one row's encoded values; `scratch` is reused across calls.
inline void writeEncodedRow(comm::ByteWriter& w, comm::SyncCodec c, std::span<const float> v,
                            std::vector<std::uint8_t>& scratch) {
  scratch.resize(comm::codecValueBytes(c, static_cast<std::uint32_t>(v.size())));
  comm::encodeRowValues(c, v, scratch.data());
  w.putSpan(std::span<const std::uint8_t>(scratch));
}

/// Read one row's encoded values into `out`. Routed through ByteReader::view
/// with the codec's natural element type so the decode kernels always see
/// aligned input, wherever the entry landed in the message.
inline void readEncodedRow(comm::ByteReader& r, comm::SyncCodec c, std::span<float> out) {
  if (c == comm::SyncCodec::kFp16) {
    const auto h = r.view<std::uint16_t>(out.size());
    comm::decodeRowValues(c, reinterpret_cast<const std::uint8_t*>(h.data()), out);
  } else {
    const auto b = r.view<std::uint8_t>(
        comm::codecValueBytes(c, static_cast<std::uint32_t>(out.size())));
    comm::decodeRowValues(c, b.data(), out);
  }
}

}  // namespace gw2v::ps
