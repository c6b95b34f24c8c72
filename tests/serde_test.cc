#include "common/serde.h"

#include <gtest/gtest.h>

#include <string>

#include "common/random.h"

namespace streamline {
namespace {

// The textbook bitwise CRC-32 (reflected 0xEDB88320, init and final xor
// 0xFFFFFFFF), one byte at a time: the definition Crc32 must reproduce
// bit for bit so frames, WAL segments and snapshots stay readable.
uint32_t ReferenceCrc32(const unsigned char* p, size_t len) {
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    crc ^= p[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(SerdeTest, Crc32KnownAnswers) {
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
  EXPECT_EQ(Crc32("The quick brown fox jumps over the lazy dog"),
            0x414FA339u);
}

TEST(SerdeTest, Crc32MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  Rng rng(7);
  std::string buf(8 + 257, '\0');
  for (char& c : buf) c = static_cast<char>(rng.NextBelow(256));
  const auto* bytes = reinterpret_cast<const unsigned char*>(buf.data());
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 257; ++len) {
      ASSERT_EQ(Crc32(buf.data() + offset, len),
                ReferenceCrc32(bytes + offset, len))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(SerdeTest, PrimitivesRoundTrip) {
  BinaryWriter w;
  w.WriteU8(7);
  w.WriteI64(-123456789);
  w.WriteU64(987654321);
  w.WriteDouble(3.25);
  w.WriteBool(true);
  w.WriteString("hello");

  BinaryReader r(w.buffer());
  EXPECT_EQ(r.ReadU8().value(), 7);
  EXPECT_EQ(r.ReadI64().value(), -123456789);
  EXPECT_EQ(r.ReadU64().value(), 987654321u);
  EXPECT_DOUBLE_EQ(r.ReadDouble().value(), 3.25);
  EXPECT_TRUE(r.ReadBool().value());
  EXPECT_EQ(r.ReadString().value(), "hello");
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerdeTest, ValueRoundTripAllTypes) {
  const Value values[] = {Value::Null(), Value(int64_t{-5}), Value(2.75),
                          Value(false), Value("abc def")};
  BinaryWriter w;
  for (const Value& v : values) w.WriteValue(v);
  BinaryReader r(w.buffer());
  for (const Value& v : values) {
    auto got = r.ReadValue();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, v);
  }
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerdeTest, RecordRoundTrip) {
  Record rec = MakeRecord(99, Value("user-1"), Value(int64_t{17}),
                          Value(0.5));
  BinaryWriter w;
  w.WriteRecord(rec);
  BinaryReader r(w.buffer());
  auto got = r.ReadRecord();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, rec);
}

TEST(SerdeTest, ReadRecordIntoReplacesPreviousFields) {
  const Record wide = MakeRecord(5, Value(int64_t{1}), Value("a"), Value(2.0),
                                 Value(true), Value(), Value("spill"));
  const Record narrow = MakeRecord(6, Value("b"));
  BinaryWriter w;
  w.WriteRecord(wide);
  w.WriteRecord(narrow);
  BinaryReader r(w.buffer());
  Record got = MakeRecord(0, Value("stale"), Value(int64_t{9}));
  ASSERT_TRUE(r.ReadRecordInto(&got).ok());
  EXPECT_EQ(got, wide);
  ASSERT_TRUE(r.ReadRecordInto(&got).ok());
  EXPECT_EQ(got, narrow);
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerdeTest, FailedReadRecordIntoKeepsReadPosition) {
  BinaryWriter w;
  w.WriteRecord(MakeRecord(1, Value(int64_t{2}), Value("xyz")));
  std::string buf = w.Release();
  buf.pop_back();
  BinaryReader r(buf);
  Record got;
  const Status st = r.ReadRecordInto(&got);
  EXPECT_EQ(st.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(r.remaining(), buf.size());
}

TEST(SerdeTest, EmptyStringRoundTrip) {
  BinaryWriter w;
  w.WriteString("");
  BinaryReader r(w.buffer());
  EXPECT_EQ(r.ReadString().value(), "");
}

TEST(SerdeTest, TruncatedBufferReportsOutOfRange) {
  BinaryWriter w;
  w.WriteI64(1);
  std::string buf = w.Release();
  buf.resize(buf.size() - 1);
  BinaryReader r(buf);
  auto got = r.ReadI64();
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kOutOfRange);
}

TEST(SerdeTest, TruncatedStringReportsOutOfRange) {
  BinaryWriter w;
  w.WriteString("long payload");
  std::string buf = w.Release();
  buf.resize(buf.size() - 4);
  BinaryReader r(buf);
  auto got = r.ReadString();
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kOutOfRange);
}

TEST(SerdeTest, UnknownValueTagReportsInternal) {
  std::string buf(1, static_cast<char>(250));
  BinaryReader r(buf);
  auto got = r.ReadValue();
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInternal);
}

TEST(SerdeTest, TruncatedRecordReportsError) {
  Record rec = MakeRecord(1, Value(int64_t{2}), Value("xyz"));
  BinaryWriter w;
  w.WriteRecord(rec);
  std::string buf = w.Release();
  buf.resize(buf.size() / 2);
  BinaryReader r(buf);
  EXPECT_FALSE(r.ReadRecord().ok());
}

}  // namespace
}  // namespace streamline
