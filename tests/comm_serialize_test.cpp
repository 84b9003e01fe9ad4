#include "comm/serialize.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace gw2v::comm {
namespace {

TEST(Serialize, ScalarRoundTrip) {
  ByteWriter w;
  w.put(std::uint32_t{42});
  w.put(float{1.5f});
  w.put(std::uint8_t{7});
  const auto buf = w.take();
  ByteReader r(buf);
  EXPECT_EQ(r.get<std::uint32_t>(), 42u);
  EXPECT_FLOAT_EQ(r.get<float>(), 1.5f);
  EXPECT_EQ(r.get<std::uint8_t>(), 7);
  EXPECT_TRUE(r.done());
}

TEST(Serialize, SpanRoundTrip) {
  const std::vector<float> data{1, 2, 3, 4};
  ByteWriter w;
  w.put(static_cast<std::uint32_t>(data.size()));
  w.putSpan(std::span<const float>(data));
  const auto buf = w.take();
  ByteReader r(buf);
  const auto n = r.get<std::uint32_t>();
  const auto view = r.view<float>(n);
  ASSERT_EQ(view.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(view[i], data[i]);
}

TEST(Serialize, EmptySpanOk) {
  ByteWriter w;
  w.putSpan(std::span<const float>{});
  EXPECT_EQ(w.size(), 0u);
  const auto buf = w.take();
  ByteReader r(buf);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(r.view<float>(0).size(), 0u);
}

TEST(Serialize, TruncatedReadThrows) {
  ByteWriter w;
  w.put(std::uint16_t{1});
  const auto buf = w.take();
  ByteReader r(buf);
  EXPECT_THROW(r.get<std::uint64_t>(), std::runtime_error);
}

TEST(Serialize, OverreadViewThrows) {
  ByteWriter w;
  w.put(float{1.0f});
  const auto buf = w.take();
  ByteReader r(buf);
  EXPECT_THROW(r.view<float>(2), std::runtime_error);
  // A count whose byte size wraps around size_t must not pass the check.
  EXPECT_THROW(r.view<std::uint64_t>(SIZE_MAX / 8 + 1), std::runtime_error);
}

TEST(Serialize, RemainingTracksPosition) {
  ByteWriter w;
  w.put(std::uint32_t{1});
  w.put(std::uint32_t{2});
  const auto buf = w.take();
  ByteReader r(buf);
  EXPECT_EQ(r.remaining(), 8u);
  r.get<std::uint32_t>();
  EXPECT_EQ(r.remaining(), 4u);
}

TEST(Serialize, TakeResetsWriter) {
  ByteWriter w;
  w.put(std::uint32_t{1});
  (void)w.take();
  EXPECT_EQ(w.size(), 0u);
}

TEST(Serialize, InterleavedStructure) {
  // The sync-message shape: per label, count + (node, row) entries.
  ByteWriter w;
  for (int l = 0; l < 2; ++l) {
    w.put(std::uint32_t{2});
    for (std::uint32_t n = 0; n < 2; ++n) {
      w.put(n + static_cast<std::uint32_t>(l) * 10);
      const std::vector<float> row{static_cast<float>(l), static_cast<float>(n)};
      w.putSpan(std::span<const float>(row));
    }
  }
  const auto buf = w.take();
  ByteReader r(buf);
  for (int l = 0; l < 2; ++l) {
    const auto count = r.get<std::uint32_t>();
    EXPECT_EQ(count, 2u);
    for (std::uint32_t i = 0; i < count; ++i) {
      const auto node = r.get<std::uint32_t>();
      EXPECT_EQ(node, i + static_cast<std::uint32_t>(l) * 10);
      const auto row = r.view<float>(2);
      EXPECT_FLOAT_EQ(row[0], static_cast<float>(l));
      EXPECT_FLOAT_EQ(row[1], static_cast<float>(i));
    }
  }
  EXPECT_TRUE(r.done());
}

TEST(Serialize, MisalignedViewReadsCorrectValues) {
  // A 1-byte kind tag (the parameter-server message shape) pushes every
  // following float to an odd offset; view() must still hand out a correctly
  // aligned, correctly valued span instead of a misaligned reinterpret.
  const std::vector<float> data{1.25f, -2.5f, 3.75f, 1e-3f};
  ByteWriter w;
  w.put(std::uint8_t{1});
  w.putSpan(std::span<const float>(data));
  const auto buf = w.take();
  ByteReader r(buf);
  EXPECT_EQ(r.get<std::uint8_t>(), 1);
  const auto view = r.view<float>(data.size());
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(view.data()) % alignof(float), 0u);
  ASSERT_EQ(view.size(), data.size());
  for (std::size_t i = 0; i < data.size(); ++i) EXPECT_FLOAT_EQ(view[i], data[i]);
  EXPECT_TRUE(r.done());
}

TEST(Serialize, EarlierMisalignedViewsSurviveLaterOnes) {
  // Fallback copies must not invalidate spans handed out earlier (a vector
  // of vectors that reallocated would).
  ByteWriter w;
  w.put(std::uint8_t{0});
  for (int i = 0; i < 16; ++i) w.put(static_cast<float>(i));
  const auto buf = w.take();
  ByteReader r(buf);
  (void)r.get<std::uint8_t>();
  std::vector<std::span<const float>> views;
  for (int i = 0; i < 16; ++i) views.push_back(r.view<float>(1));
  for (int i = 0; i < 16; ++i) {
    ASSERT_EQ(views[i].size(), 1u);
    EXPECT_FLOAT_EQ(views[i][0], static_cast<float>(i));
  }
}

}  // namespace
}  // namespace gw2v::comm
