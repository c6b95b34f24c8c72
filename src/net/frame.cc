#include "net/frame.h"

#include <cstring>

#include "common/serde.h"

namespace streamline {
namespace net {

namespace {

void PutU32(char* dst, uint32_t v) {
  dst[0] = static_cast<char>(v & 0xFF);
  dst[1] = static_cast<char>((v >> 8) & 0xFF);
  dst[2] = static_cast<char>((v >> 16) & 0xFF);
  dst[3] = static_cast<char>((v >> 24) & 0xFF);
}

uint32_t GetU32(const char* src) {
  return static_cast<uint32_t>(static_cast<unsigned char>(src[0])) |
         static_cast<uint32_t>(static_cast<unsigned char>(src[1])) << 8 |
         static_cast<uint32_t>(static_cast<unsigned char>(src[2])) << 16 |
         static_cast<uint32_t>(static_cast<unsigned char>(src[3])) << 24;
}

}  // namespace

void AppendFrame(std::string* out, std::string_view payload) {
  char header[kFrameHeaderBytes];
  PutU32(header, static_cast<uint32_t>(payload.size()));
  PutU32(header + 4, Crc32(payload));
  out->append(header, kFrameHeaderBytes);
  out->append(payload.data(), payload.size());
}

std::string EncodeDataBatch(const Record* records, size_t n) {
  BinaryWriter w;
  w.WriteU8(kMsgData);
  w.WriteU64(n);
  for (size_t i = 0; i < n; ++i) w.WriteRecord(records[i]);
  std::string framed;
  framed.reserve(kFrameHeaderBytes + w.size());
  AppendFrame(&framed, w.buffer());
  return framed;
}

std::string EncodeSubscribe(const std::string& topic) {
  BinaryWriter w;
  w.WriteU8(kMsgSubscribe);
  w.WriteString(topic);
  std::string framed;
  AppendFrame(&framed, w.buffer());
  return framed;
}

std::string EncodeControl(uint8_t msg_type) {
  BinaryWriter w;
  w.WriteU8(msg_type);
  std::string framed;
  AppendFrame(&framed, w.buffer());
  return framed;
}

Status DecodeDataBatch(std::string_view payload, std::vector<Record>* out) {
  BinaryReader r(payload);
  auto type = r.ReadU8();
  if (!type.ok()) return type.status();
  if (*type != kMsgData) {
    return Status::InvalidArgument("expected data frame, got message type " +
                                   std::to_string(int{*type}));
  }
  auto count = r.ReadU64();
  if (!count.ok()) return count.status();
  // A record is at least 24 bytes on the wire (timestamp, key hash and
  // field count); a count that cannot fit in the payload is corruption,
  // rejected before any allocation sized from it.
  if (*count > payload.size() / 24) {
    return Status::InvalidArgument("data frame record count " +
                                   std::to_string(*count) +
                                   " exceeds payload capacity");
  }
  const size_t base = out->size();
  out->reserve(base + static_cast<size_t>(*count));
  for (uint64_t i = 0; i < *count; ++i) {
    Status st = r.ReadRecordInto(&out->emplace_back());
    if (!st.ok()) {
      out->resize(base);  // fail closed: all-or-nothing per frame
      return st;
    }
  }
  if (!r.AtEnd()) {
    out->resize(base);
    return Status::InvalidArgument("data frame has " +
                                   std::to_string(r.remaining()) +
                                   " trailing bytes");
  }
  return Status::Ok();
}

void FrameDecoder::Append(const char* data, size_t n) {
  if (!error_.ok()) return;  // poisoned: drop input, the conn is dead
  // Compact the consumed prefix before growing; keeps the buffer bounded
  // by one frame plus one read chunk.
  if (pos_ > 0 && (pos_ >= buf_.size() || pos_ > (64u << 10))) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(data, n);
}

Result<bool> FrameDecoder::Next(std::string_view* payload) {
  if (!error_.ok()) return error_;
  if (buf_.size() - pos_ < kFrameHeaderBytes) return false;
  const uint32_t len = GetU32(buf_.data() + pos_);
  const uint32_t crc = GetU32(buf_.data() + pos_ + 4);
  if (len > max_frame_bytes_) {
    error_ = Status::InvalidArgument(
        "frame length " + std::to_string(len) + " exceeds limit " +
        std::to_string(max_frame_bytes_));
    return error_;
  }
  if (buf_.size() - pos_ - kFrameHeaderBytes < len) return false;
  const std::string_view body(buf_.data() + pos_ + kFrameHeaderBytes, len);
  if (Crc32(body) != crc) {
    error_ = Status::InvalidArgument("frame crc mismatch");
    return error_;
  }
  pos_ += kFrameHeaderBytes + len;
  *payload = body;
  return true;
}

}  // namespace net
}  // namespace streamline
