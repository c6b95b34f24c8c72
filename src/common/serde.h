#ifndef STREAMLINE_COMMON_SERDE_H_
#define STREAMLINE_COMMON_SERDE_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/record.h"
#include "common/status.h"
#include "common/value.h"

namespace streamline {

// Every fixed-width field in the serde encoding (and so in checkpoints, the
// WAL and the wire protocol) is little-endian, and the writer, the reader
// and Crc32's word loads move host integers with memcpy. A big-endian port
// would need explicit byte swaps in all three.
static_assert(std::endian::native == std::endian::little,
              "serde encodes host integers byte for byte as little-endian");

/// CRC-32 (IEEE 802.3 polynomial, the zlib/PNG variant) over a byte range.
/// Frames the wire protocol, WAL segments and durable snapshot files.
uint32_t Crc32(const void* data, size_t len);
inline uint32_t Crc32(std::string_view bytes) {
  return Crc32(bytes.data(), bytes.size());
}

/// Append-only little-endian binary writer. Used for state snapshots
/// (checkpointing) and for channel byte accounting.
class BinaryWriter {
 public:
  void WriteU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void WriteI64(int64_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteU64(uint64_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteDouble(double v) { WriteRaw(&v, sizeof(v)); }
  void WriteBool(bool v) { WriteU8(v ? 1 : 0); }
  void WriteString(const std::string& s) {
    WriteU64(s.size());
    WriteRaw(s.data(), s.size());
  }
  void WriteValue(const Value& v);
  void WriteRecord(const Record& r);

  const std::string& buffer() const { return buf_; }
  std::string Release() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  void WriteRaw(const void* data, size_t len) {
    const char* p = static_cast<const char*>(data);
    buf_.append(p, len);
  }
  std::string buf_;
};

/// Sequential reader over a buffer produced by BinaryWriter. All Read*
/// methods return OutOfRange on truncated input instead of crashing, so a
/// corrupted snapshot surfaces as a recoverable error.
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view data)
      : cur_(data.data()), end_(data.data() + data.size()) {}

  Result<uint8_t> ReadU8();
  Result<int64_t> ReadI64();
  Result<uint64_t> ReadU64();
  Result<double> ReadDouble();
  Result<bool> ReadBool();
  Result<std::string> ReadString();
  Result<Value> ReadValue();
  Result<Record> ReadRecord();

  /// The record decoder every path shares (wire ingest, snapshot restore,
  /// changelog replay): decodes one record in a single bounds-checked pass,
  /// building its values straight into `out->fields`, whose previous
  /// contents are replaced. Errors: OutOfRange on truncation (including a
  /// field count larger than the bytes left), Internal on an unknown value
  /// tag. On error `*out` is valid but unspecified and the read position
  /// is unchanged.
  Status ReadRecordInto(Record* out);

  bool AtEnd() const { return cur_ == end_; }
  size_t remaining() const { return static_cast<size_t>(end_ - cur_); }

 private:
  const char* cur_;
  const char* end_;
};

}  // namespace streamline

#endif  // STREAMLINE_COMMON_SERDE_H_
