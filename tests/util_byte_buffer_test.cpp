#include "util/byte_buffer.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace ppm {
namespace {

TEST(ByteBuffer, RoundTripScalars) {
  ByteWriter w;
  w.put<int32_t>(-7);
  w.put<uint64_t>(1ULL << 60);
  w.put<double>(3.25);
  w.put<char>('x');

  ByteReader r(w.bytes());
  EXPECT_EQ(r.get<int32_t>(), -7);
  EXPECT_EQ(r.get<uint64_t>(), 1ULL << 60);
  EXPECT_EQ(r.get<double>(), 3.25);
  EXPECT_EQ(r.get<char>(), 'x');
  EXPECT_TRUE(r.exhausted());
}

TEST(ByteBuffer, RoundTripVectorsAndStrings) {
  ByteWriter w;
  const std::vector<double> xs = {1.0, -2.5, 1e300};
  w.put_vector(xs);
  w.put_string("hello phase model");
  w.put_vector(std::vector<int>{});

  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_vector<double>(), xs);
  EXPECT_EQ(r.get_string(), "hello phase model");
  EXPECT_TRUE(r.get_vector<int>().empty());
  EXPECT_TRUE(r.exhausted());
}

TEST(ByteBuffer, RawBytesWithViews) {
  ByteWriter w;
  const uint32_t payload[3] = {1, 2, 3};
  w.put<uint8_t>(9);
  w.put_raw(payload, sizeof(payload));

  ByteReader r(w.bytes());
  EXPECT_EQ(r.get<uint8_t>(), 9);
  auto view = r.view(sizeof(payload));
  uint32_t out[3];
  std::memcpy(out, view.data(), sizeof(out));
  EXPECT_EQ(out[2], 3u);
  EXPECT_TRUE(r.exhausted());
}

TEST(ByteBuffer, TruncatedScalarThrows) {
  ByteWriter w;
  w.put<uint16_t>(5);
  ByteReader r(w.bytes());
  EXPECT_THROW(r.get<uint64_t>(), Error);
}

TEST(ByteBuffer, TruncatedVectorPayloadThrows) {
  ByteWriter w;
  w.put<uint64_t>(100);  // claims 100 elements with no payload
  ByteReader r(w.bytes());
  EXPECT_THROW(r.get_vector<double>(), Error);
}

TEST(ByteBuffer, GarbledLengthDoesNotOverflow) {
  ByteWriter w;
  w.put<uint64_t>(UINT64_MAX);  // adversarial length prefix
  ByteReader r(w.bytes());
  EXPECT_THROW(r.get_vector<uint64_t>(), Error);
}

TEST(ByteBuffer, ReadPastEndOfViewThrows) {
  ByteWriter w;
  w.put<uint32_t>(1);
  ByteReader r(w.bytes());
  r.get<uint32_t>();
  EXPECT_THROW(r.view(1), Error);
  EXPECT_THROW(r.get<uint8_t>(), Error);
}

TEST(ByteBuffer, RemainingTracksCursor) {
  ByteWriter w;
  w.put<uint32_t>(1);
  w.put<uint32_t>(2);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.remaining(), 8u);
  r.get<uint32_t>();
  EXPECT_EQ(r.remaining(), 4u);
}

TEST(ByteBuffer, VarintRoundTripsAndStaysShort) {
  const uint64_t values[] = {0, 1, 127, 128, 16383, 16384, ~uint64_t{0}};
  ByteWriter w;
  for (const uint64_t v : values) w.put_varint(v);
  // 1 + 1 + 1 + 2 + 2 + 3 + 10 bytes.
  EXPECT_EQ(w.size(), 20u);
  ByteReader r(w.bytes());
  for (const uint64_t v : values) EXPECT_EQ(r.get_varint(), v);
  EXPECT_TRUE(r.exhausted());
}

TEST(ByteBuffer, GarbledVarintAndHugeLengthRejected) {
  // Eleven continuation bytes: longer than any 64-bit value.
  const Bytes endless(11, std::byte{0xff});
  ByteReader r1(endless);
  EXPECT_THROW(r1.get_varint(), Error);
  // A wire length near 2^64 must not wrap the bounds check.
  ByteWriter w;
  w.put<uint8_t>(7);
  w.put<uint8_t>(8);
  ByteReader r2(w.bytes());
  r2.get<uint8_t>();
  EXPECT_THROW(r2.view(~size_t{0}), Error);
  uint8_t sink[1];
  EXPECT_THROW(r2.get_raw(sink, ~size_t{0}), Error);
}

TEST(ByteBuffer, TakeMovesBuffer) {
  ByteWriter w;
  w.put<int>(42);
  Bytes b = std::move(w).take();
  EXPECT_EQ(b.size(), sizeof(int));
}

}  // namespace
}  // namespace ppm
