#include "mapreduce/codec.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "common/error.hpp"
#include "mapreduce/partitioner.hpp"

namespace evm::mapreduce {
namespace {

template <typename T>
T RoundTrip(const T& value) {
  BinaryWriter w;
  Codec<T>::Encode(w, value);
  BinaryReader r(w.bytes());
  return Codec<T>::Decode(r);
}

TEST(CodecTest, ScalarRoundTrips) {
  EXPECT_EQ(RoundTrip<std::uint64_t>(42), 42u);
  EXPECT_EQ(RoundTrip<std::int64_t>(-7), -7);
  EXPECT_EQ(RoundTrip<double>(2.5), 2.5);
  EXPECT_EQ(RoundTrip<std::string>("hello"), "hello");
}

TEST(CodecTest, StrongIdRoundTrips) {
  EXPECT_EQ(RoundTrip(Eid{9}), Eid{9});
  EXPECT_EQ(RoundTrip(ScenarioId{123}), ScenarioId{123});
}

TEST(CodecTest, VectorRoundTrips) {
  const std::vector<std::uint64_t> v{3, 1, 4, 1, 5};
  EXPECT_EQ(RoundTrip(v), v);
  EXPECT_TRUE(RoundTrip(std::vector<std::uint64_t>{}).empty());
}

TEST(CodecTest, HostileVectorLengthThrows) {
  // An 8-byte payload holding only the length prefix; 2^33 and 2^61 used to
  // throw std::bad_alloc / std::length_error from reserve().
  for (const std::uint64_t prefix :
       {std::uint64_t{1} << 33, std::uint64_t{1} << 61,
        std::numeric_limits<std::uint64_t>::max()}) {
    BinaryWriter w;
    w.WriteU64(prefix);
    BinaryReader r(w.bytes());
    EXPECT_THROW((void)Codec<std::vector<std::uint64_t>>::Decode(r), Error)
        << prefix;
    BinaryReader nested(w.bytes());
    EXPECT_THROW(
        (void)Codec<std::vector<std::vector<std::uint64_t>>>::Decode(nested),
        Error)
        << prefix;
  }
}

TEST(CodecTest, NestedPairRoundTrips) {
  const std::pair<std::vector<std::uint64_t>, std::uint64_t> p{{1, 2}, 3};
  EXPECT_EQ(RoundTrip(p), p);
}

TEST(PartitionerTest, PartitionInRange) {
  for (std::uint64_t k = 0; k < 1000; ++k) {
    EXPECT_LT(PartitionOf(k, 7), 7u);
  }
}

TEST(PartitionerTest, SequentialKeysSpreadEvenly) {
  // Dense integer keys (EID values) must not collapse onto few reducers.
  std::vector<int> counts(8, 0);
  for (std::uint64_t k = 0; k < 8000; ++k) {
    ++counts[PartitionOf(k, 8)];
  }
  for (const int c : counts) {
    EXPECT_GT(c, 700);
    EXPECT_LT(c, 1300);
  }
}

TEST(PartitionerTest, VectorKeysPartitionDeterministically) {
  const std::vector<std::uint64_t> key{5, 6, 7};
  EXPECT_EQ(PartitionOf(key, 13), PartitionOf(key, 13));
}

TEST(PartitionerTest, StringKeysWork) {
  EXPECT_LT(PartitionOf(std::string("hello"), 5), 5u);
}

}  // namespace
}  // namespace evm::mapreduce
