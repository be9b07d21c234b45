// Flat binary serialization used for every simulated network message.
//
// ByteWriter appends trivially-copyable values and contiguous ranges to a
// growable byte vector; ByteReader consumes them back with bounds checking,
// throwing ppm::Error on truncated or garbled input (exercised by the
// failure-injection tests).
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "util/error.hpp"

namespace ppm {

using Bytes = std::vector<std::byte>;

class ByteWriter {
 public:
  ByteWriter() = default;
  /// Adopt an existing byte vector as backing store, keeping its capacity
  /// but discarding its contents — recycles a flushed buffer's allocation.
  explicit ByteWriter(Bytes recycled) : buf_(std::move(recycled)) {
    buf_.clear();
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void put(const T& value) {
    const size_t off = buf_.size();
    buf_.resize(off + sizeof(T));
    std::memcpy(buf_.data() + off, &value, sizeof(T));
  }

  /// Length-prefixed contiguous range of trivially-copyable elements.
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void put_span(std::span<const T> values) {
    put<uint64_t>(values.size());
    const size_t off = buf_.size();
    buf_.resize(off + values.size_bytes());
    if (!values.empty()) {
      std::memcpy(buf_.data() + off, values.data(), values.size_bytes());
    }
  }

  template <typename T>
  void put_vector(const std::vector<T>& values) {
    put_span(std::span<const T>(values));
  }

  void put_string(const std::string& s) {
    put_span(std::span<const char>(s.data(), s.size()));
  }

  /// Unsigned LEB128: 7 value bits per byte, high bit = "more follows".
  /// Small counts and lengths cost one byte instead of eight.
  void put_varint(uint64_t v) {
    while (v >= 0x80) {
      put<uint8_t>(static_cast<uint8_t>(v) | 0x80);
      v >>= 7;
    }
    put<uint8_t>(static_cast<uint8_t>(v));
  }

  /// Raw bytes without a length prefix (caller knows the size).
  void put_raw(const void* data, size_t n) {
    const size_t off = buf_.size();
    buf_.resize(off + n);
    if (n != 0) std::memcpy(buf_.data() + off, data, n);
  }

  /// Append n uninitialized-ish bytes and return a pointer to them; lets
  /// hot paths serialize a whole record with one growth operation.
  std::byte* extend(size_t n) {
    const size_t off = buf_.size();
    if (buf_.capacity() < off + n) {
      buf_.reserve(std::max(off + n, off * 2 + 64));
    }
    buf_.resize(off + n);
    return buf_.data() + off;
  }

  size_t size() const { return buf_.size(); }
  /// Drop the contents but keep the allocation (hot paths that refill the
  /// same writer every phase).
  void clear() { buf_.clear(); }
  Bytes take() && { return std::move(buf_); }
  const Bytes& bytes() const { return buf_; }
  /// Mutable access to already-written bytes (in-place record patching,
  /// e.g. write combining folding a value into a buffered entry). The
  /// pointer is invalidated by the next append.
  std::byte* data() { return buf_.data(); }

 private:
  Bytes buf_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> data) : data_(data) {}
  explicit ByteReader(const Bytes& data) : data_(data) {}

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  T get() {
    T value;
    PPM_CHECK(pos_ + sizeof(T) <= data_.size(),
              "truncated message: need %zu bytes at offset %zu, have %zu",
              sizeof(T), pos_, data_.size());
    std::memcpy(&value, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  std::vector<T> get_vector() {
    const auto n = get<uint64_t>();
    PPM_CHECK(n <= (data_.size() - pos_) / sizeof(T),
              "garbled message: claimed %llu elements exceeds payload",
              static_cast<unsigned long long>(n));
    std::vector<T> out(n);
    if (n != 0) {
      std::memcpy(out.data(), data_.data() + pos_, n * sizeof(T));
    }
    pos_ += n * sizeof(T);
    return out;
  }

  uint64_t get_varint() {
    uint64_t v = 0;
    for (int shift = 0;; shift += 7) {
      PPM_CHECK(shift < 64, "garbled message: varint longer than 64 bits");
      const auto b = get<uint8_t>();
      v |= static_cast<uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) return v;
    }
  }

  std::string get_string() {
    const auto v = get_vector<char>();
    return std::string(v.begin(), v.end());
  }

  void get_raw(void* out, size_t n) {
    PPM_CHECK(n <= data_.size() - pos_, "truncated message payload");
    if (n != 0) std::memcpy(out, data_.data() + pos_, n);
    pos_ += n;
  }

  /// View of the next n bytes without copying; advances the cursor.
  std::span<const std::byte> view(size_t n) {
    // n may come off the wire: compare against what is left, so a huge
    // length cannot wrap the sum.
    PPM_CHECK(n <= data_.size() - pos_, "truncated message payload");
    auto s = data_.subspan(pos_, n);
    pos_ += n;
    return s;
  }

  size_t remaining() const { return data_.size() - pos_; }
  bool exhausted() const { return remaining() == 0; }

 private:
  std::span<const std::byte> data_;
  size_t pos_ = 0;
};

}  // namespace ppm
