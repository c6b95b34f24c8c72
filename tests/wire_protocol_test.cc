// Wire protocol: serde round-trip property over random records, and the
// fail-closed decoder contract against torn/garbage frames -- CRC
// mismatch, oversized length prefix, mid-frame truncation. The decoder
// must never over-read, never return a partial frame, and stay poisoned
// once the stream is provably corrupt.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "common/serde.h"
#include "net/frame.h"

namespace streamline {
namespace net {
namespace {

/// Random record with 0..6 fields of mixed types (including strings with
/// embedded NULs and null values), random timestamp sign included.
Record RandomRecord(Rng* rng) {
  Record r;
  r.timestamp = static_cast<Timestamp>(rng->NextU64());
  const size_t fields = rng->NextBelow(7);
  r.fields.reserve(fields);
  for (size_t i = 0; i < fields; ++i) {
    switch (rng->NextBelow(5)) {
      case 0:
        r.fields.push_back(Value(static_cast<int64_t>(rng->NextU64())));
        break;
      case 1:
        r.fields.push_back(Value(rng->NextDouble(-1e9, 1e9)));
        break;
      case 2:
        r.fields.push_back(Value(rng->NextBool(0.5)));
        break;
      case 3: {
        std::string s;
        const size_t n = rng->NextBelow(24);
        for (size_t j = 0; j < n; ++j) {
          s.push_back(static_cast<char>(rng->NextBelow(256)));  // incl. '\0'
        }
        r.fields.push_back(Value(std::move(s)));
        break;
      }
      default:
        r.fields.push_back(Value());  // null
        break;
    }
  }
  return r;
}

/// Feeds `stream` into `dec` in random chunks, draining every complete
/// payload into `decoded` via DecodeDataBatch. Returns the first error.
Status FeedChunked(FrameDecoder* dec, std::string_view stream, Rng* rng,
                   std::vector<Record>* decoded, size_t* frames) {
  size_t off = 0;
  while (off < stream.size()) {
    const size_t chunk =
        std::min<size_t>(1 + rng->NextBelow(13), stream.size() - off);
    dec->Append(stream.data() + off, chunk);
    off += chunk;
    while (true) {
      std::string_view payload;
      auto has = dec->Next(&payload);
      if (!has.ok()) return has.status();
      if (!*has) break;
      ++*frames;
      STREAMLINE_RETURN_IF_ERROR(DecodeDataBatch(payload, decoded));
    }
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Round-trip property: random records, random batch sizes, random chunking.

TEST(WireProtocolTest, RandomBatchesRoundTripThroughChunkedDecoder) {
  Rng rng(2024);
  std::vector<Record> sent;
  std::string stream;
  size_t frames_encoded = 0;
  for (int batch = 0; batch < 200; ++batch) {
    std::vector<Record> records;
    const size_t n = rng.NextBelow(17);  // incl. empty batches
    for (size_t i = 0; i < n; ++i) records.push_back(RandomRecord(&rng));
    stream += EncodeDataBatch(records.data(), records.size());
    ++frames_encoded;
    for (auto& r : records) sent.push_back(std::move(r));
  }

  FrameDecoder dec;
  std::vector<Record> got;
  size_t frames = 0;
  ASSERT_TRUE(FeedChunked(&dec, stream, &rng, &got, &frames).ok());
  EXPECT_EQ(frames, frames_encoded);
  EXPECT_EQ(dec.buffered_bytes(), 0u);
  ASSERT_EQ(got.size(), sent.size());
  for (size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(got[i], sent[i]) << "record " << i << " diverged";
  }
}

TEST(WireProtocolTest, SubscribeFrameRoundTrips) {
  const std::string framed = EncodeSubscribe("pixels/m4");
  FrameDecoder dec;
  dec.Append(framed.data(), framed.size());
  std::string_view payload;
  auto has = dec.Next(&payload);
  ASSERT_TRUE(has.ok());
  ASSERT_TRUE(*has);
  BinaryReader r(payload);
  auto type = r.ReadU8();
  ASSERT_TRUE(type.ok());
  EXPECT_EQ(*type, kMsgSubscribe);
  auto topic = r.ReadString();
  ASSERT_TRUE(topic.ok());
  EXPECT_EQ(*topic, "pixels/m4");
  EXPECT_TRUE(r.AtEnd());
}

TEST(WireProtocolTest, ControlFramesAreEmptyBodied) {
  for (uint8_t type : {kMsgSnapshotBegin, kMsgSnapshotEnd}) {
    const std::string framed = EncodeControl(type);
    FrameDecoder dec;
    dec.Append(framed.data(), framed.size());
    std::string_view payload;
    auto has = dec.Next(&payload);
    ASSERT_TRUE(has.ok());
    ASSERT_TRUE(*has);
    ASSERT_EQ(payload.size(), 1u);
    EXPECT_EQ(static_cast<uint8_t>(payload[0]), type);
  }
}

// ---------------------------------------------------------------------------
// Fail-closed decoding: corruption poisons, truncation waits.

TEST(WireProtocolTest, CrcMismatchPoisonsDecoderPermanently) {
  Rng rng(7);
  std::vector<Record> records = {RandomRecord(&rng), RandomRecord(&rng)};
  std::string stream = EncodeDataBatch(records.data(), records.size());
  // Flip one payload byte; the header (and its CRC field) stay intact.
  stream[kFrameHeaderBytes + (stream.size() - kFrameHeaderBytes) / 2] ^= 0x40;

  FrameDecoder dec;
  dec.Append(stream.data(), stream.size());
  std::string_view payload;
  auto has = dec.Next(&payload);
  ASSERT_FALSE(has.ok());
  EXPECT_TRUE(dec.poisoned());
  // Sticky: a later good frame cannot resurrect the stream.
  const std::string good = EncodeDataBatch(records.data(), 1);
  dec.Append(good.data(), good.size());
  EXPECT_FALSE(dec.Next(&payload).ok());
}

TEST(WireProtocolTest, OversizedLengthPrefixFailsWithoutAllocating) {
  // Header advertising a 1 GiB frame against a 4 KiB limit: rejected from
  // the 8 header bytes alone -- no buffering of attacker-sized lengths.
  char header[kFrameHeaderBytes];
  const uint32_t huge = 1u << 30;
  std::memcpy(header, &huge, 4);
  std::memset(header + 4, 0, 4);
  FrameDecoder dec(/*max_frame_bytes=*/4096);
  dec.Append(header, sizeof(header));
  std::string_view payload;
  auto has = dec.Next(&payload);
  ASSERT_FALSE(has.ok());
  EXPECT_TRUE(dec.poisoned());
}

TEST(WireProtocolTest, TruncatedFrameNeverYieldsAndNeverOverReads) {
  Rng rng(11);
  std::vector<Record> records = {RandomRecord(&rng)};
  const std::string stream = EncodeDataBatch(records.data(), records.size());
  // Byte at a time: exactly one frame appears, exactly when the last byte
  // lands. A mid-frame disconnect at any prefix leaves the decoder clean
  // (no error, no partial frame) -- the frame simply never happened.
  FrameDecoder dec;
  std::string_view payload;
  for (size_t i = 0; i + 1 < stream.size(); ++i) {
    dec.Append(&stream[i], 1);
    auto has = dec.Next(&payload);
    ASSERT_TRUE(has.ok()) << "at byte " << i;
    EXPECT_FALSE(*has) << "frame surfaced " << stream.size() - 1 - i
                       << " bytes early";
    EXPECT_EQ(dec.buffered_bytes(), i + 1);
    EXPECT_FALSE(dec.poisoned());
  }
  dec.Append(&stream[stream.size() - 1], 1);
  auto has = dec.Next(&payload);
  ASSERT_TRUE(has.ok());
  ASSERT_TRUE(*has);
  std::vector<Record> got;
  ASSERT_TRUE(DecodeDataBatch(payload, &got).ok());
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], records[0]);
  EXPECT_FALSE(*dec.Next(&payload));  // and nothing invented after it
}

TEST(WireProtocolTest, DataPayloadRejectsWrongType) {
  std::vector<Record> out;
  const std::string sub = EncodeSubscribe("t");
  // Strip the frame header to get the raw payload.
  EXPECT_FALSE(
      DecodeDataBatch(
          std::string_view(sub).substr(kFrameHeaderBytes), &out)
          .ok());
  EXPECT_TRUE(out.empty());
}

TEST(WireProtocolTest, DataPayloadRejectsAbsurdCountBeforeAllocating) {
  // type + count claiming 2^60 records in a 9-byte payload.
  BinaryWriter w;
  w.WriteU8(kMsgData);
  w.WriteU64(uint64_t{1} << 60);
  std::vector<Record> out;
  EXPECT_FALSE(DecodeDataBatch(w.buffer(), &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST(WireProtocolTest, DataPayloadDecodeIsAllOrNothing) {
  Rng rng(13);
  std::vector<Record> records = {RandomRecord(&rng), RandomRecord(&rng),
                                 RandomRecord(&rng)};
  const std::string framed = EncodeDataBatch(records.data(), records.size());
  const std::string_view payload =
      std::string_view(framed).substr(kFrameHeaderBytes);

  // Pre-existing (recycled-vector) contents must survive a failed decode.
  std::vector<Record> out;
  out.push_back(MakeRecord(99, Value(int64_t{7})));

  // Truncated mid-record: error, out untouched.
  EXPECT_FALSE(
      DecodeDataBatch(payload.substr(0, payload.size() - 3), &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].timestamp, 99);

  // Trailing garbage after the last record: error, out untouched.
  std::string padded(payload);
  padded += "xx";
  EXPECT_FALSE(DecodeDataBatch(padded, &out).ok());
  ASSERT_EQ(out.size(), 1u);

  // The intact payload appends after the recycled prefix.
  ASSERT_TRUE(DecodeDataBatch(payload, &out).ok());
  ASSERT_EQ(out.size(), 1u + records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(out[1 + i], records[i]);
  }
}

TEST(WireProtocolTest, DataPayloadCountBoundIsTwentyFourBytesPerRecord) {
  // Records with no fields take exactly 24 bytes (timestamp, key hash,
  // field count), so a 9 + 24n byte payload holds at most n records.
  const std::vector<Record> records(3, Record());
  const std::string framed = EncodeDataBatch(records.data(), records.size());
  std::string payload = framed.substr(kFrameHeaderBytes);
  ASSERT_EQ(payload.size(), 9 + 24 * records.size());
  std::vector<Record> out;
  ASSERT_TRUE(DecodeDataBatch(payload, &out).ok());
  ASSERT_EQ(out.size(), records.size());

  // One record more than the payload can hold: rejected before reserve.
  const uint64_t over = payload.size() / 24 + 1;
  std::memcpy(payload.data() + 1, &over, sizeof(over));
  std::vector<Record> fresh;
  const Status st = DecodeDataBatch(payload, &fresh);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  EXPECT_EQ(fresh.capacity(), 0u);
}

/// A data payload of two records holding every value type, built field by
/// field so the offsets of each value's tag byte and of each string's
/// length prefix are known.
struct AnnotatedPayload {
  std::string bytes;
  std::vector<size_t> tag_offsets;
  std::vector<size_t> string_length_offsets;
};

AnnotatedPayload AllTypesPayload() {
  const std::vector<Record> records = {
      MakeRecord(-3, Value(), Value(int64_t{-42}), Value(2.5), Value(true),
                 Value("hello")),
      MakeRecord(7, Value("wide"), Value(false), Value(int64_t{1} << 40),
                 Value(-0.0), Value(), Value("")),
  };
  AnnotatedPayload p;
  BinaryWriter w;
  w.WriteU8(kMsgData);
  w.WriteU64(records.size());
  for (const Record& r : records) {
    w.WriteI64(r.timestamp);
    w.WriteU64(r.key_hash);
    w.WriteU64(r.fields.size());
    for (const Value& v : r.fields) {
      p.tag_offsets.push_back(w.size());
      if (v.type() == DataType::kString) {
        p.string_length_offsets.push_back(w.size() + 1);
      }
      w.WriteValue(v);
    }
  }
  p.bytes = w.Release();
  // The hand-built payload is exactly what the encoder sends.
  const std::string framed = EncodeDataBatch(records.data(), records.size());
  EXPECT_EQ(p.bytes, framed.substr(kFrameHeaderBytes));
  return p;
}

/// Decodes `payload` into a vector holding one earlier record and checks
/// the decode fails with `code` and leaves exactly that record behind.
void ExpectRejected(std::string_view payload, StatusCode code,
                    const std::string& what) {
  const Record earlier = MakeRecord(99, Value(int64_t{7}), Value("kept"));
  std::vector<Record> out = {earlier};
  const Status st = DecodeDataBatch(payload, &out);
  EXPECT_EQ(st.code(), code) << what << ": " << st.ToString();
  ASSERT_EQ(out.size(), 1u) << what;
  EXPECT_EQ(out[0], earlier) << what;
}

TEST(WireProtocolTest, DataPayloadTruncatedAtEveryByteFailsClosed) {
  const AnnotatedPayload p = AllTypesPayload();
  std::vector<Record> whole;
  ASSERT_TRUE(DecodeDataBatch(p.bytes, &whole).ok());
  ASSERT_EQ(whole.size(), 2u);
  for (size_t len = 0; len < p.bytes.size(); ++len) {
    // A prefix too short for the declared record count is refused by the
    // count bound; any other prefix runs out of bytes mid-record.
    const StatusCode code = len >= 9 && 2 > len / 24
                                ? StatusCode::kInvalidArgument
                                : StatusCode::kOutOfRange;
    ExpectRejected(std::string_view(p.bytes).substr(0, len), code,
                   "prefix of " + std::to_string(len) + " bytes");
  }
}

TEST(WireProtocolTest, DataPayloadCorruptTagOrStringLengthFailsClosed) {
  const AnnotatedPayload p = AllTypesPayload();
  ASSERT_EQ(p.tag_offsets.size(), 11u);
  ASSERT_EQ(p.string_length_offsets.size(), 3u);
  for (size_t off : p.tag_offsets) {
    for (uint8_t bad : {uint8_t{5}, uint8_t{0x80}, uint8_t{0xFF}}) {
      std::string corrupt = p.bytes;
      corrupt[off] = static_cast<char>(bad);
      ExpectRejected(corrupt, StatusCode::kInternal,
                     "tag at " + std::to_string(off) + " set to " +
                         std::to_string(bad));
    }
  }
  // Inverting any byte of a length prefix claims more string bytes than
  // the payload holds.
  for (size_t off : p.string_length_offsets) {
    for (size_t byte = 0; byte < sizeof(uint64_t); ++byte) {
      std::string corrupt = p.bytes;
      corrupt[off + byte] = static_cast<char>(~corrupt[off + byte]);
      ExpectRejected(corrupt, StatusCode::kOutOfRange,
                     "string length at " + std::to_string(off) +
                         " byte " + std::to_string(byte) + " inverted");
    }
  }
}

TEST(WireProtocolTest, GarbageBytesPoisonInsteadOfLoopingOrOverreading) {
  // 64 KiB of deterministic garbage: the decoder must terminate with an
  // error (poisoned) or keep waiting for more bytes -- never yield a frame,
  // never touch memory past what it was handed.
  Rng rng(17);
  std::string garbage(64u << 10, '\0');
  for (char& c : garbage) c = static_cast<char>(rng.NextBelow(256));
  FrameDecoder dec(/*max_frame_bytes=*/1u << 20);
  size_t off = 0;
  bool poisoned = false;
  while (off < garbage.size() && !poisoned) {
    const size_t chunk =
        std::min<size_t>(1 + rng.NextBelow(4096), garbage.size() - off);
    dec.Append(garbage.data() + off, chunk);
    off += chunk;
    std::string_view payload;
    auto has = dec.Next(&payload);
    if (!has.ok()) {
      poisoned = true;
    } else {
      // A random 4-byte length happening to be small enough is possible,
      // but the CRC then fails with probability 1 - 2^-32; either way a
      // frame must not surface from noise.
      EXPECT_FALSE(*has);
    }
  }
  EXPECT_TRUE(poisoned || dec.buffered_bytes() > 0);
}

}  // namespace
}  // namespace net
}  // namespace streamline
