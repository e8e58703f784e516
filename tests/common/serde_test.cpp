#include "common/serde.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace evm {
namespace {

TEST(SerdeTest, U64RoundTrip) {
  BinaryWriter w;
  w.WriteU64(0);
  w.WriteU64(1);
  w.WriteU64(std::numeric_limits<std::uint64_t>::max());
  BinaryReader r(w.bytes());
  EXPECT_EQ(r.ReadU64(), 0u);
  EXPECT_EQ(r.ReadU64(), 1u);
  EXPECT_EQ(r.ReadU64(), std::numeric_limits<std::uint64_t>::max());
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerdeTest, I64RoundTripNegative) {
  BinaryWriter w;
  w.WriteI64(-123456789);
  BinaryReader r(w.bytes());
  EXPECT_EQ(r.ReadI64(), -123456789);
}

TEST(SerdeTest, U32RoundTrip) {
  BinaryWriter w;
  w.WriteU32(0xDEADBEEFu);
  BinaryReader r(w.bytes());
  EXPECT_EQ(r.ReadU32(), 0xDEADBEEFu);
}

TEST(SerdeTest, DoubleRoundTripExactBits) {
  BinaryWriter w;
  w.WriteDouble(3.141592653589793);
  w.WriteDouble(-0.0);
  w.WriteDouble(std::numeric_limits<double>::infinity());
  BinaryReader r(w.bytes());
  EXPECT_EQ(r.ReadDouble(), 3.141592653589793);
  EXPECT_EQ(r.ReadDouble(), -0.0);
  EXPECT_EQ(r.ReadDouble(), std::numeric_limits<double>::infinity());
}

TEST(SerdeTest, FloatRoundTripExactBits) {
  BinaryWriter w;
  w.WriteFloat(3.1415927f);
  w.WriteFloat(-0.0f);
  w.WriteFloat(std::numeric_limits<float>::infinity());
  w.WriteFloat(std::numeric_limits<float>::denorm_min());
  EXPECT_EQ(w.bytes().size(), 16u);  // half the bytes of WriteDouble
  BinaryReader r(w.bytes());
  EXPECT_EQ(r.ReadFloat(), 3.1415927f);
  const float neg_zero = r.ReadFloat();
  EXPECT_EQ(neg_zero, -0.0f);
  EXPECT_TRUE(std::signbit(neg_zero));
  EXPECT_EQ(r.ReadFloat(), std::numeric_limits<float>::infinity());
  EXPECT_EQ(r.ReadFloat(), std::numeric_limits<float>::denorm_min());
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerdeTest, StringRoundTrip) {
  BinaryWriter w;
  w.WriteString("");
  w.WriteString("hello world");
  w.WriteString(std::string("\0binary\xff", 8));
  BinaryReader r(w.bytes());
  EXPECT_EQ(r.ReadString(), "");
  EXPECT_EQ(r.ReadString(), "hello world");
  EXPECT_EQ(r.ReadString(), std::string("\0binary\xff", 8));
}

TEST(SerdeTest, IdRoundTrip) {
  BinaryWriter w;
  w.WriteId(Eid{77});
  w.WriteId(Vid{88});
  BinaryReader r(w.bytes());
  EXPECT_EQ(r.ReadId<EidTag>(), Eid{77});
  EXPECT_EQ(r.ReadId<VidTag>(), Vid{88});
}

TEST(SerdeTest, U64VectorRoundTrip) {
  BinaryWriter w;
  w.WriteU64Vector({});
  w.WriteU64Vector({5, 4, 3});
  BinaryReader r(w.bytes());
  EXPECT_TRUE(r.ReadU64Vector().empty());
  EXPECT_EQ(r.ReadU64Vector(), (std::vector<std::uint64_t>{5, 4, 3}));
}

TEST(SerdeTest, UnderflowThrows) {
  BinaryWriter w;
  w.WriteU32(1);
  BinaryReader r(w.bytes());
  EXPECT_THROW(r.ReadU64(), Error);
}

// An 8-byte payload holding only a length prefix: each of these counts must
// be rejected as evm::Error before any allocation is sized from it (2^64-1
// once wrapped the underflow check, 2^33 and 2^61 threw from reserve()).
constexpr std::uint64_t kHostilePrefixes[] = {
    std::uint64_t{1} << 33, std::uint64_t{1} << 61,
    std::numeric_limits<std::uint64_t>::max()};

TEST(SerdeTest, HostileStringLengthThrows) {
  for (const std::uint64_t prefix : kHostilePrefixes) {
    BinaryWriter w;
    w.WriteU64(prefix);
    BinaryReader r(w.bytes());
    EXPECT_THROW((void)r.ReadString(), Error) << prefix;
  }
}

TEST(SerdeTest, HostileVectorLengthThrows) {
  for (const std::uint64_t prefix : kHostilePrefixes) {
    BinaryWriter w;
    w.WriteU64(prefix);
    BinaryReader r(w.bytes());
    EXPECT_THROW((void)r.ReadU64Vector(), Error) << prefix;
  }
}

TEST(SerdeTest, MixedSequencePreservesOrder) {
  BinaryWriter w;
  w.WriteU64(10);
  w.WriteString("mid");
  w.WriteDouble(2.5);
  BinaryReader r(w.bytes());
  EXPECT_EQ(r.ReadU64(), 10u);
  EXPECT_EQ(r.ReadString(), "mid");
  EXPECT_EQ(r.ReadDouble(), 2.5);
  EXPECT_TRUE(r.AtEnd());
}

}  // namespace
}  // namespace evm
