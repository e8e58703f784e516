#pragma once
// Codecs for record types crossing the shuffle boundary.
//
// The engine serializes every emitted (key, value) pair into byte buffers
// before the shuffle and decodes it on the reduce side. This keeps the
// programming model honest — anything crossing between "machines" must be
// plain data — and is what the real Spark/Hadoop substrate the paper used
// does between stages. Specialize Codec<T> for your own record types.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/ids.hpp"
#include "common/serde.hpp"

namespace evm::mapreduce {

template <typename T>
struct Codec;  // specialize: static void Encode(BinaryWriter&, const T&);
               //             static T Decode(BinaryReader&);

template <>
struct Codec<std::uint64_t> {
  static void Encode(BinaryWriter& w, const std::uint64_t& v) { w.WriteU64(v); }
  static std::uint64_t Decode(BinaryReader& r) { return r.ReadU64(); }
};

template <>
struct Codec<std::int64_t> {
  static void Encode(BinaryWriter& w, const std::int64_t& v) { w.WriteI64(v); }
  static std::int64_t Decode(BinaryReader& r) { return r.ReadI64(); }
};

template <>
struct Codec<double> {
  static void Encode(BinaryWriter& w, const double& v) { w.WriteDouble(v); }
  static double Decode(BinaryReader& r) { return r.ReadDouble(); }
};

template <>
struct Codec<std::string> {
  static void Encode(BinaryWriter& w, const std::string& v) { w.WriteString(v); }
  static std::string Decode(BinaryReader& r) { return r.ReadString(); }
};

template <typename Tag>
struct Codec<StrongId<Tag>> {
  static void Encode(BinaryWriter& w, const StrongId<Tag>& v) {
    w.WriteU64(v.value());
  }
  static StrongId<Tag> Decode(BinaryReader& r) {
    return StrongId<Tag>{r.ReadU64()};
  }
};

template <typename T>
struct Codec<std::vector<T>> {
  static void Encode(BinaryWriter& w, const std::vector<T>& v) {
    w.WriteU64(v.size());
    for (const auto& x : v) Codec<T>::Encode(w, x);
  }
  static std::vector<T> Decode(BinaryReader& r) {
    const auto n = r.ReadCount();
    std::vector<T> v;
    v.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) v.push_back(Codec<T>::Decode(r));
    return v;
  }
};

template <typename A, typename B>
struct Codec<std::pair<A, B>> {
  static void Encode(BinaryWriter& w, const std::pair<A, B>& v) {
    Codec<A>::Encode(w, v.first);
    Codec<B>::Encode(w, v.second);
  }
  static std::pair<A, B> Decode(BinaryReader& r) {
    A a = Codec<A>::Decode(r);
    B b = Codec<B>::Decode(r);
    return {std::move(a), std::move(b)};
  }
};

}  // namespace evm::mapreduce
