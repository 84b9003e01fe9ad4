#pragma once

// Flat byte (de)serialization for sync messages. Trivially-copyable scalars
// only; all hosts are the same binary so no endianness concerns.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <span>
#include <stdexcept>
#include <vector>

namespace gw2v::comm {

class ByteWriter {
 public:
  template <typename T>
  void put(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::size_t at = bytes_.size();
    bytes_.resize(at + sizeof(T));
    std::memcpy(bytes_.data() + at, &v, sizeof(T));
  }

  template <typename T>
  void putSpan(std::span<const T> v) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::size_t at = bytes_.size();
    bytes_.resize(at + v.size_bytes());
    if (!v.empty()) std::memcpy(bytes_.data() + at, v.data(), v.size_bytes());
  }

  void reserve(std::size_t bytes) { bytes_.reserve(bytes); }

  std::vector<std::uint8_t> take() noexcept { return std::move(bytes_); }
  std::size_t size() const noexcept { return bytes_.size(); }

 private:
  std::vector<std::uint8_t> bytes_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    T v;
    require(1, sizeof(T));
    std::memcpy(&v, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  /// View of the next n elements of T. Zero-copy when the cursor happens to
  /// be aligned for T; otherwise (e.g. a message that leads with a 1-byte
  /// kind tag) the elements are memcpy'd into owned aligned storage that
  /// lives as long as the reader, so earlier views stay valid too.
  template <typename T>
  std::span<const T> view(std::size_t n) {
    static_assert(std::is_trivially_copyable_v<T>);
    static_assert(alignof(T) <= alignof(std::max_align_t));
    require(n, sizeof(T));
    const std::uint8_t* raw = bytes_.data() + pos_;
    pos_ += n * sizeof(T);
    if (reinterpret_cast<std::uintptr_t>(raw) % alignof(T) == 0) {
      return {reinterpret_cast<const T*>(raw), n};
    }
    std::vector<std::uint8_t>& copy = aligned_.emplace_back(n * sizeof(T));
    if (n != 0) std::memcpy(copy.data(), raw, n * sizeof(T));
    return {reinterpret_cast<const T*>(copy.data()), n};
  }

  bool done() const noexcept { return pos_ == bytes_.size(); }
  std::size_t remaining() const noexcept { return bytes_.size() - pos_; }

 private:
  /// Throws unless n elements of `elemBytes` each remain; no overflow for
  /// any n a peer can send.
  void require(std::size_t n, std::size_t elemBytes) const {
    if (n > remaining() / elemBytes) throw std::runtime_error("ByteReader: truncated message");
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
  /// Aligned fallback copies handed out by view(); deque so spans into
  /// earlier copies survive later ones.
  std::deque<std::vector<std::uint8_t>> aligned_;
};

}  // namespace gw2v::comm
