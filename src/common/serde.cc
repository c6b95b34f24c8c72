#include "common/serde.h"

#include <array>

namespace streamline {

namespace {

// Slice-by-8 tables for the reflected polynomial 0xEDB88320: kCrc[0] is
// the classic byte-at-a-time table, and kCrc[k][b] is the CRC of byte b
// followed by k zero bytes, so eight table lookups fold one 8-byte word.
using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Crc32Tables BuildCrc32Tables() {
  Crc32Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < t.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr Crc32Tables kCrc = BuildCrc32Tables();

static_assert(kCrc[0][1] == 0x77073096u && kCrc[0][255] == 0x2D02EF8Du,
              "byte table must be the zlib CRC-32 table");

// Copies sizeof(T) bytes at *p into *v and advances *p; false (and nothing
// read) when fewer than sizeof(T) bytes are left before `end`.
template <typename T>
bool Take(const char** p, const char* end, T* v) {
  if (static_cast<size_t>(end - *p) < sizeof(T)) return false;
  std::memcpy(v, *p, sizeof(T));
  *p += sizeof(T);
  return true;
}

Status TruncatedStatus(size_t need, size_t have) {
  return Status::OutOfRange("truncated buffer: need " + std::to_string(need) +
                            " bytes, have " + std::to_string(have));
}

template <typename T>
Result<T> ReadFixed(const char** cur, const char* end) {
  T v{};
  if (!Take(cur, end, &v)) {
    return TruncatedStatus(sizeof(T), static_cast<size_t>(end - *cur));
  }
  return v;
}

// Why a value decode stopped. The hot loop carries this byte, not a
// Status; ValueDecodeStatus builds the Status once, on failure only.
enum class DecodeError : uint8_t { kNone, kTruncated, kUnknownTag };

// Decodes the tagged value at *p (bounded by `end`) into *slot, which must
// hold the null Value. Advances *p only on success.
inline DecodeError DecodeValue(const char** p, const char* end, Value* slot) {
  const char* q = *p;
  if (q == end) return DecodeError::kTruncated;
  const auto tag = static_cast<DataType>(*q++);
  const auto left = static_cast<size_t>(end - q);
  switch (tag) {
    case DataType::kNull:
      break;
    case DataType::kInt64: {
      if (left < sizeof(int64_t)) return DecodeError::kTruncated;
      int64_t v = 0;
      std::memcpy(&v, q, sizeof(v));
      q += sizeof(v);
      *slot = Value(v);
      break;
    }
    case DataType::kDouble: {
      if (left < sizeof(double)) return DecodeError::kTruncated;
      double v = 0;
      std::memcpy(&v, q, sizeof(v));
      q += sizeof(v);
      *slot = Value(v);
      break;
    }
    case DataType::kBool:
      if (left < 1) return DecodeError::kTruncated;
      *slot = Value(*q++ != 0);
      break;
    case DataType::kString: {
      uint64_t len = 0;
      if (left < sizeof(len)) return DecodeError::kTruncated;
      std::memcpy(&len, q, sizeof(len));
      q += sizeof(len);
      if (len > left - sizeof(len)) return DecodeError::kTruncated;
      *slot = Value(std::string(q, static_cast<size_t>(len)));
      q += len;
      break;
    }
    default:
      return DecodeError::kUnknownTag;
  }
  *p = q;
  return DecodeError::kNone;
}

// The Status for a failed DecodeValue at `at` (the value's tag byte).
Status ValueDecodeStatus(DecodeError e, const char* at, const char* end) {
  if (e == DecodeError::kUnknownTag) {
    return Status::Internal(
        "unknown Value tag " +
        std::to_string(static_cast<unsigned>(static_cast<uint8_t>(*at))));
  }
  return Status::OutOfRange("truncated value: " + std::to_string(end - at) +
                            " bytes left");
}

}  // namespace

uint32_t Crc32(const void* data, size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t crc = 0xFFFFFFFFu;
  for (; len >= 8; len -= 8, p += 8) {
    uint32_t lo = 0;
    uint32_t hi = 0;
    std::memcpy(&lo, p, sizeof(lo));  // little-endian word loads
    std::memcpy(&hi, p + 4, sizeof(hi));
    lo ^= crc;
    crc = kCrc[7][lo & 0xFFu] ^ kCrc[6][(lo >> 8) & 0xFFu] ^
          kCrc[5][(lo >> 16) & 0xFFu] ^ kCrc[4][lo >> 24] ^
          kCrc[3][hi & 0xFFu] ^ kCrc[2][(hi >> 8) & 0xFFu] ^
          kCrc[1][(hi >> 16) & 0xFFu] ^ kCrc[0][hi >> 24];
  }
  for (; len > 0; --len, ++p) {
    crc = kCrc[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

void BinaryWriter::WriteValue(const Value& v) {
  WriteU8(static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case DataType::kNull:
      break;
    case DataType::kInt64:
      WriteI64(v.AsInt64());
      break;
    case DataType::kDouble:
      WriteDouble(v.AsDouble());
      break;
    case DataType::kBool:
      WriteBool(v.AsBool());
      break;
    case DataType::kString:
      WriteString(v.AsString());
      break;
  }
}

void BinaryWriter::WriteRecord(const Record& r) {
  WriteI64(r.timestamp);
  // The carried key hash survives serde so a snapshot/restore cycle does
  // not silently reintroduce re-hashing on buffered records.
  WriteU64(r.key_hash);
  WriteU64(r.fields.size());
  for (const Value& v : r.fields) WriteValue(v);
}

Result<uint8_t> BinaryReader::ReadU8() {
  return ReadFixed<uint8_t>(&cur_, end_);
}
Result<int64_t> BinaryReader::ReadI64() {
  return ReadFixed<int64_t>(&cur_, end_);
}
Result<uint64_t> BinaryReader::ReadU64() {
  return ReadFixed<uint64_t>(&cur_, end_);
}
Result<double> BinaryReader::ReadDouble() {
  return ReadFixed<double>(&cur_, end_);
}

Result<bool> BinaryReader::ReadBool() {
  auto v = ReadU8();
  if (!v.ok()) return v.status();
  return *v != 0;
}

Result<std::string> BinaryReader::ReadString() {
  auto len = ReadU64();
  if (!len.ok()) return len.status();
  if (*len > remaining()) {
    return Status::OutOfRange("truncated string of length " +
                              std::to_string(*len));
  }
  std::string s(cur_, static_cast<size_t>(*len));
  cur_ += *len;
  return s;
}

Result<Value> BinaryReader::ReadValue() {
  Value v;
  const DecodeError e = DecodeValue(&cur_, end_, &v);
  if (e != DecodeError::kNone) return ValueDecodeStatus(e, cur_, end_);
  return v;
}

Result<Record> BinaryReader::ReadRecord() {
  Record r;
  STREAMLINE_RETURN_IF_ERROR(ReadRecordInto(&r));
  return r;
}

Status BinaryReader::ReadRecordInto(Record* out) {
  const char* p = cur_;
  int64_t ts = 0;
  uint64_t key_hash = 0;
  uint64_t n = 0;
  if (!Take(&p, end_, &ts) || !Take(&p, end_, &key_hash) ||
      !Take(&p, end_, &n)) {
    return TruncatedStatus(3 * sizeof(uint64_t), remaining());
  }
  // Every field needs at least one tag byte: a count beyond the remaining
  // buffer is corrupt input, not a reason to attempt a huge allocation.
  if (n > static_cast<size_t>(end_ - p)) {
    return Status::OutOfRange("field count " + std::to_string(n) +
                              " exceeds remaining buffer");
  }
  out->timestamp = ts;
  out->key_hash = key_hash;
  FieldVec& fields = out->fields;
  if (!fields.empty()) fields.clear();
  fields.resize(static_cast<size_t>(n));  // n null Values to decode into
  Value* slot = fields.data();
  for (uint64_t i = 0; i < n; ++i) {
    const DecodeError e = DecodeValue(&p, end_, slot + i);
    if (e != DecodeError::kNone) return ValueDecodeStatus(e, p, end_);
  }
  cur_ = p;
  return Status::Ok();
}

}  // namespace streamline
