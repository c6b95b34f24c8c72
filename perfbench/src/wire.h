#ifndef PERFBENCH_WIRE_H_
#define PERFBENCH_WIRE_H_

// Load-generator side of the network edge: a producer connection that
// measures how long it waited on TCP backpressure, and a subscriber client
// that decodes result frames and timestamps each one on receipt.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/record.h"
#include "common/status.h"
#include "net/frame.h"
#include "net/socket.h"

namespace perfbench {

/// One producer connection to a SocketIngest. Sends never block inside
/// send(2): the socket is non-blocking and a full TCP window is waited out
/// in poll(2), so the time spent there is exactly the time the engine held
/// the generator back.
class Producer {
 public:
  static streamline::Result<std::unique_ptr<Producer>> Connect(uint16_t port);

  /// Sends all `n` bytes.
  streamline::Status Send(const char* data, size_t n);
  /// Orderly close: the ingest sees end of input.
  void Close() { fd_.reset(); }

  int64_t blocked_ns() const { return blocked_ns_; }

 private:
  explicit Producer(streamline::net::Fd fd) : fd_(std::move(fd)) {}

  streamline::net::Fd fd_;
  int64_t blocked_ns_ = 0;
};

/// A subscriber connection to a SubscriptionServer topic.
class Subscriber {
 public:
  /// Called per decoded data record with its receive time (NowNs) and
  /// whether it arrived inside the snapshot bracket.
  using OnRecord = std::function<void(const streamline::Record& record,
                                      int64_t recv_ns, bool in_snapshot)>;

  /// Connects and subscribes; the socket is left non-blocking.
  static streamline::Result<std::unique_ptr<Subscriber>> Connect(
      uint16_t port, const std::string& topic);

  /// Reads everything available without blocking and decodes it. Returns
  /// false once the server closed the connection or a frame failed to
  /// decode (the stream cannot resynchronize).
  bool Poll(const OnRecord& on_record);

  int fd() const { return fd_.get(); }

 private:
  explicit Subscriber(streamline::net::Fd fd) : fd_(std::move(fd)) {}

  streamline::net::Fd fd_;
  streamline::net::FrameDecoder decoder_;
  bool in_snapshot_ = false;
  streamline::Status error_;  // sticky: a broken stream stays broken
  std::vector<streamline::Record> scratch_;
  std::vector<char> buf_ = std::vector<char>(64 << 10);
};

}  // namespace perfbench

#endif  // PERFBENCH_WIRE_H_
