#pragma once
// Compact binary serialization for MapReduce keys and values.
//
// The in-memory engine still serializes shuffled records: this keeps the
// programming model honest (records crossing the shuffle boundary must be
// plain data, exactly as on a real cluster) and gives the DFS block store a
// uniform byte-oriented representation.

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/ids.hpp"

namespace evm {

/// Append-only byte sink.
class BinaryWriter {
 public:
  void WriteU64(std::uint64_t v) {
    unsigned char buf[8];
    for (int i = 0; i < 8; ++i) buf[i] = static_cast<unsigned char>(v >> (8 * i));
    bytes_.insert(bytes_.end(), buf, buf + 8);
  }
  void WriteI64(std::int64_t v) { WriteU64(static_cast<std::uint64_t>(v)); }
  void WriteU32(std::uint32_t v) {
    unsigned char buf[4];
    for (int i = 0; i < 4; ++i) buf[i] = static_cast<unsigned char>(v >> (8 * i));
    bytes_.insert(bytes_.end(), buf, buf + 4);
  }
  void WriteDouble(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    WriteU64(bits);
  }
  void WriteFloat(float v) {
    std::uint32_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    WriteU32(bits);
  }
  void WriteBytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    bytes_.insert(bytes_.end(), p, p + n);
  }
  void WriteString(const std::string& s) {
    WriteU64(s.size());
    WriteBytes(s.data(), s.size());
  }
  template <typename Tag>
  void WriteId(StrongId<Tag> id) {
    WriteU64(id.value());
  }
  void WriteU64Vector(const std::vector<std::uint64_t>& v) {
    WriteU64(v.size());
    for (auto x : v) WriteU64(x);
  }

  [[nodiscard]] const std::vector<unsigned char>& bytes() const noexcept {
    return bytes_;
  }
  [[nodiscard]] std::vector<unsigned char> Take() noexcept {
    return std::move(bytes_);
  }

 private:
  std::vector<unsigned char> bytes_;
};

/// Sequential byte source; throws evm::Error on underflow.
class BinaryReader {
 public:
  explicit BinaryReader(const std::vector<unsigned char>& bytes)
      : data_(bytes.data()), size_(bytes.size()) {}
  BinaryReader(const unsigned char* data, std::size_t size)
      : data_(data), size_(size) {}

  std::uint64_t ReadU64() {
    Require(8);
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | data_[pos_ + static_cast<std::size_t>(i)];
    pos_ += 8;
    return v;
  }
  std::int64_t ReadI64() { return static_cast<std::int64_t>(ReadU64()); }
  std::uint32_t ReadU32() {
    Require(4);
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i) v = (v << 8) | data_[pos_ + static_cast<std::size_t>(i)];
    pos_ += 4;
    return v;
  }
  double ReadDouble() {
    const std::uint64_t bits = ReadU64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  float ReadFloat() {
    const std::uint32_t bits = ReadU32();
    float v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string ReadString() {
    const auto n = ReadCount();
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }
  template <typename Tag>
  StrongId<Tag> ReadId() {
    return StrongId<Tag>{ReadU64()};
  }
  std::vector<std::uint64_t> ReadU64Vector() {
    const auto n = ReadCount();
    std::vector<std::uint64_t> v;
    v.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) v.push_back(ReadU64());
    return v;
  }

  /// Reads an element-count prefix. Every element takes at least one byte,
  /// so a count larger than the bytes left is corrupt; rejecting it here
  /// keeps a hostile prefix from driving a huge allocation before the
  /// underflow check would fire.
  std::uint64_t ReadCount() {
    const auto n = ReadU64();
    EVM_CHECK_MSG(n <= size_ - pos_, "BinaryReader count exceeds payload");
    return n;
  }

  [[nodiscard]] bool AtEnd() const noexcept { return pos_ == size_; }

 private:
  void Require(std::uint64_t n) const {
    // pos_ <= size_ always holds, so this cannot wrap (pos_ + n could).
    EVM_CHECK_MSG(n <= size_ - pos_, "BinaryReader underflow");
  }
  const unsigned char* data_;
  std::size_t size_;
  std::size_t pos_{0};
};

}  // namespace evm
