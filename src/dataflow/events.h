#ifndef STREAMLINE_DATAFLOW_EVENTS_H_
#define STREAMLINE_DATAFLOW_EVENTS_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/record.h"
#include "common/time.h"

namespace streamline {

/// One unit of in-flight data on a channel. Besides record batches,
/// channels carry the three control events of the pipelined engine:
/// watermarks (event-time progress), checkpoint barriers (asynchronous
/// barrier snapshotting) and end-of-stream markers (what makes a bounded
/// "batch" job just a stream that ends).
struct StreamEvent {
  enum class Kind : uint8_t {
    kBatch = 0,
    kWatermark = 1,
    kBarrier = 2,
    kEndOfStream = 3,
  };

  Kind kind = Kind::kBatch;
  std::vector<Record> batch;          // kBatch (network-buffer batching)
  Timestamp watermark = kMinTimestamp;  // kWatermark
  uint64_t barrier_id = 0;            // kBarrier

  static StreamEvent OfBatch(std::vector<Record> records) {
    StreamEvent e;
    e.kind = Kind::kBatch;
    e.batch = std::move(records);
    return e;
  }
  static StreamEvent OfWatermark(Timestamp wm) {
    StreamEvent e;
    e.kind = Kind::kWatermark;
    e.watermark = wm;
    return e;
  }
  static StreamEvent OfBarrier(uint64_t id) {
    StreamEvent e;
    e.kind = Kind::kBarrier;
    e.barrier_id = id;
    return e;
  }
  static StreamEvent EndOfStream() {
    StreamEvent e;
    e.kind = Kind::kEndOfStream;
    return e;
  }
};

}  // namespace streamline

#endif  // STREAMLINE_DATAFLOW_EVENTS_H_
