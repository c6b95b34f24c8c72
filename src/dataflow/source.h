#ifndef STREAMLINE_DATAFLOW_SOURCE_H_
#define STREAMLINE_DATAFLOW_SOURCE_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/record.h"
#include "common/serde.h"
#include "common/status.h"
#include "common/time.h"

namespace streamline {

/// Handed to SourceFunction::Poll; the source pushes records and watermarks
/// through it. Emit() doubles as the cancellation and checkpoint point: the
/// runtime injects pending checkpoint barriers between two emissions, which
/// is what makes source offsets consistent with downstream state.
class SourceContext {
 public:
  virtual ~SourceContext() = default;

  /// Emits a record (using record.timestamp as its event time). The callee
  /// takes ownership. Returns false when the job was cancelled: the source
  /// should return promptly.
  virtual bool Emit(Record&& record) = 0;

  /// Span twin of Emit(): hands `n` records (moved from) to the engine,
  /// equivalent to Emit()-ing each in order. Sources that hold records
  /// contiguously (data at rest) should prefer this: the engine amortizes
  /// its per-emission bookkeeping -- cancellation, checkpoint-barrier
  /// injection, batch-boundary checks -- over the span instead of paying
  /// it per record. Barriers are injected at span boundaries, which is
  /// still "between two emissions"; keep spans modest (the watermark
  /// cadence or a few batches) so cancellation stays responsive.
  virtual bool EmitSpan(Record* records, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      if (!Emit(std::move(records[i]))) return false;
    }
    return true;
  }

  /// Hands a whole staged batch to the engine, equivalent to Emit()-ing
  /// each record in order. The batch is drained: on return the vector is
  /// empty (usually with its capacity preserved -- the engine threads the
  /// same vector through the chain), so a source can stage into one
  /// scratch buffer and reuse it every batch. Stage at most
  /// PreferredBatchSize() records per call.
  virtual bool EmitBatch(std::vector<Record>&& batch) {
    for (Record& r : batch) {
      if (!Emit(std::move(r))) {
        batch.clear();
        return false;
      }
    }
    batch.clear();
    return true;
  }

  /// How many records the engine would like per EmitBatch call: the job's
  /// configured batch size. The default of 1 suits contexts outside the
  /// engine (tests, adapters).
  virtual size_t PreferredBatchSize() const { return 1; }

  /// Emits an event-time watermark: a promise that all records emitted
  /// later have ts >= wm.
  virtual void EmitWatermark(Timestamp wm) = 0;

  virtual bool IsCancelled() const = 0;
};

/// What one SourceFunction::Poll call accomplished.
enum class SourcePoll {
  /// Emitted data (or made progress); poll again immediately.
  kHasMore,
  /// Nothing available right now (empty queue/log/socket); re-poll after a
  /// short delay. Only unbounded inputs waiting on external producers
  /// return this.
  kIdle,
  /// Bounded input fully emitted (the "data at rest" case), or emission
  /// was cut short by cancellation; the source subtask finishes.
  kExhausted,
};

/// A data source, written as a step function: each Poll() emits a bounded
/// amount of data -- at most about one batch -- and returns, keeping all
/// read position in member state (which is also what the checkpoint hooks
/// serialize). The morsel scheduler runs a few polls per morsel and
/// re-schedules; after kIdle it flushes staged output, services pending
/// checkpoint barriers and re-polls on a short timer. The engine makes no
/// other distinction between batch and streaming; an unbounded source
/// simply never returns kExhausted.
class SourceFunction {
 public:
  virtual ~SourceFunction() = default;

  /// Emits at most about one batch. When an Emit/EmitSpan/EmitBatch call
  /// returns false (cancellation), stop emitting and return kExhausted.
  virtual Result<SourcePoll> Poll(SourceContext* ctx) = 0;

  /// Checkpoint hooks: serialize the read position so a restored job
  /// resumes exactly where the snapshot was taken.
  virtual Status SnapshotState(BinaryWriter* w) const {
    (void)w;
    return Status::Ok();
  }
  virtual Status RestoreState(BinaryReader* r) {
    (void)r;
    return Status::Ok();
  }

  virtual std::string Name() const = 0;
};

/// Creates the source instance for one subtask; the (subtask, parallelism)
/// pair lets implementations split their input.
using SourceFactory =
    std::function<std::unique_ptr<SourceFunction>(int subtask,
                                                  int parallelism)>;

}  // namespace streamline

#endif  // STREAMLINE_DATAFLOW_SOURCE_H_
