#ifndef STREAMLINE_DATAFLOW_OPERATORS_H_
#define STREAMLINE_DATAFLOW_OPERATORS_H_

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/flat_hash_map.h"
#include "dataflow/changelog.h"
#include "dataflow/operator.h"
#include "dataflow/sink.h"

namespace streamline {

/// 1:1 record transform.
class MapOperator : public Operator {
 public:
  using MapFn = std::function<Record(Record&&)>;
  MapOperator(std::string name, MapFn fn)
      : name_(std::move(name)), fn_(std::move(fn)) {}

  void ProcessRecord(int, Record&& record, Collector* out) override {
    out->Emit(fn_(std::move(record)));
  }
  /// Transforms the batch in place: one fn_ call per record, one virtual
  /// call per batch, no per-record dispatch.
  void ProcessBatch(int, std::vector<Record>&& batch,
                    Collector* out) override {
    for (Record& record : batch) record = fn_(std::move(record));
    out->EmitBatch(std::move(batch));
  }
  std::string Name() const override { return name_; }

 private:
  std::string name_;
  MapFn fn_;
};

/// 1:N record transform.
class FlatMapOperator : public Operator {
 public:
  using FlatMapFn = std::function<void(Record&&, Collector*)>;
  FlatMapOperator(std::string name, FlatMapFn fn)
      : name_(std::move(name)), fn_(std::move(fn)) {}

  void ProcessRecord(int, Record&& record, Collector* out) override {
    fn_(std::move(record), out);
  }
  /// Gathers the per-record expansions into one output batch so the rest
  /// of the chain still runs batch-at-a-time. scratch_ keeps its capacity
  /// across batches (downstream drains it and leaves it empty).
  void ProcessBatch(int, std::vector<Record>&& batch,
                    Collector* out) override {
    scratch_.clear();
    VectorCollector gather(&scratch_);
    for (Record& record : batch) fn_(std::move(record), &gather);
    batch.clear();
    out->EmitBatch(std::move(scratch_));
  }
  std::string Name() const override { return name_; }

 private:
  std::string name_;
  FlatMapFn fn_;
  std::vector<Record> scratch_;
};

/// Keeps records matching a predicate.
class FilterOperator : public Operator {
 public:
  using Predicate = std::function<bool(const Record&)>;
  FilterOperator(std::string name, Predicate pred)
      : name_(std::move(name)), pred_(std::move(pred)) {}

  void ProcessRecord(int, Record&& record, Collector* out) override {
    if (pred_(record)) out->Emit(std::move(record));
  }
  /// In-place swap-compaction: survivors slide down over the dropped
  /// records, the batch shrinks, order is preserved.
  void ProcessBatch(int, std::vector<Record>&& batch,
                    Collector* out) override {
    size_t keep = 0;
    for (size_t i = 0; i < batch.size(); ++i) {
      if (!pred_(batch[i])) continue;
      if (keep != i) batch[keep] = std::move(batch[i]);
      ++keep;
    }
    batch.resize(keep);
    out->EmitBatch(std::move(batch));
  }
  std::string Name() const override { return name_; }

 private:
  std::string name_;
  Predicate pred_;
};

/// Per-key running reduce (Flink-style keyed reduce): emits the updated
/// accumulated record for every input. State is checkpointable.
class KeyedReduceOperator : public Operator {
 public:
  using ReduceFn = std::function<Record(const Record&, const Record&)>;
  KeyedReduceOperator(std::string name, KeySelector key, ReduceFn reduce)
      : name_(std::move(name)), key_(std::move(key)),
        reduce_(std::move(reduce)) {}

  Status Open(const OperatorContext& ctx) override;
  void ProcessRecord(int, Record&& record, Collector* out) override;
  void ProcessBatch(int, std::vector<Record>&& batch,
                    Collector* out) override;
  void ProcessWatermark(Timestamp wm, Collector* out) override;
  Status SnapshotState(BinaryWriter* w) const override;
  Status RestoreState(BinaryReader* r) override;
  bool SupportsIncrementalState() const override { return true; }
  void EnableIncrementalState() override { changelog_.Enable(); }
  Status SnapshotDelta(ChangelogSink* sink) override;
  Status ApplyDelta(BinaryReader* r) override;
  void ResetDelta() override { changelog_.Clear(); }
  std::string Name() const override { return name_; }

  size_t num_keys() const { return state_.size(); }

 private:
  std::string name_;
  KeySelector key_;
  ReduceFn reduce_;
  FlatHashMap<Value, Record> state_;
  KeyedChangelog changelog_;

  // Per-batch key cache: open-addressed {key_hash -> dense entry index}
  // scratch table, generation-stamped so clearing between batches is O(1).
  // Repeated keys within a batch (the common case behind a hash shuffle)
  // skip the full state_ probe. Entry indices are stable because state_
  // stores entries densely and ProcessBatch never erases.
  struct CacheSlot {
    uint64_t hash = 0;
    uint32_t index = 0;
    uint32_t gen = 0;
  };
  std::vector<CacheSlot> cache_;
  uint32_t cache_gen_ = 0;
  std::vector<Record> batch_out_;

  Gauge* load_gauge_ = nullptr;
  Gauge* probe_gauge_ = nullptr;
  Gauge* keys_gauge_ = nullptr;
};

/// Merges any number of inputs into one stream (the input ordinal is
/// ignored); watermarks are combined by the runtime.
class UnionOperator : public Operator {
 public:
  explicit UnionOperator(std::string name) : name_(std::move(name)) {}
  void ProcessRecord(int, Record&& record, Collector* out) override {
    out->Emit(std::move(record));
  }
  void ProcessBatch(int, std::vector<Record>&& batch,
                    Collector* out) override {
    out->EmitBatch(std::move(batch));
  }
  std::string Name() const override { return name_; }

 private:
  std::string name_;
};

/// Keyed interval join of two streams: a left record l (input 0) joins every
/// right record r (input 1) with the same key and r.ts - l.ts in
/// [lower, upper]. Emits [l.fields..., r.fields...] with
/// ts = max(l.ts, r.ts). Buffered state is evicted by watermark and is
/// checkpointable.
class IntervalJoinOperator : public Operator {
 public:
  IntervalJoinOperator(std::string name, KeySelector left_key,
                       KeySelector right_key, Duration lower, Duration upper);

  Status Open(const OperatorContext& ctx) override;
  void ProcessRecord(int input, Record&& record, Collector* out) override;
  void ProcessWatermark(Timestamp wm, Collector* out) override;
  Status SnapshotState(BinaryWriter* w) const override;
  Status RestoreState(BinaryReader* r) override;
  bool SupportsIncrementalState() const override { return true; }
  void EnableIncrementalState() override { changelog_.Enable(); }
  Status SnapshotDelta(ChangelogSink* sink) override;
  Status ApplyDelta(BinaryReader* r) override;
  void ResetDelta() override { changelog_.Clear(); }
  std::string Name() const override { return name_; }

  size_t buffered() const;

 private:
  struct KeyBuffers {
    std::deque<Record> left;
    std::deque<Record> right;
  };

  void EmitJoined(const Record& l, const Record& r, Collector* out) const;

  std::string name_;
  KeySelector left_key_;
  KeySelector right_key_;
  Duration lower_;
  Duration upper_;
  FlatHashMap<Value, KeyBuffers> state_;
  KeyedChangelog changelog_;
  Gauge* load_gauge_ = nullptr;
  Gauge* probe_gauge_ = nullptr;
  Gauge* keys_gauge_ = nullptr;
};

/// Adapts a SinkFunction to the operator interface.
class SinkOperator : public Operator {
 public:
  SinkOperator(std::string name, std::shared_ptr<SinkFunction> sink)
      : name_(std::move(name)), sink_(std::move(sink)) {}

  Status Open(const OperatorContext& ctx) override {
    (void)ctx;
    // Shared sink functions outlive job instances; a restarted job must
    // abort the transaction its predecessor left open.
    sink_->OnRestart();
    return Status::Ok();
  }
  void ProcessRecord(int, Record&& record, Collector*) override {
    const Status st = sink_->Invoke(record);
    if (!st.ok()) throw StatusError(st);
  }
  /// One virtual ProcessBatch per batch; sink_->Invoke is the only
  /// indirect call left per record. A mid-batch failure throws and drops
  /// the rest of the batch, exactly like ProcessRecord would.
  void ProcessBatch(int, std::vector<Record>&& batch, Collector*) override {
    for (const Record& record : batch) {
      const Status st = sink_->Invoke(record);
      if (!st.ok()) throw StatusError(st);
    }
    batch.clear();
  }
  void ProcessWatermark(Timestamp wm, Collector*) override {
    sink_->OnWatermark(wm);
  }
  void OnBarrier(uint64_t id) override { sink_->OnBarrier(id); }
  Status Close() override { return sink_->Close(); }
  std::string Name() const override { return name_; }

 private:
  std::string name_;
  std::shared_ptr<SinkFunction> sink_;
};

}  // namespace streamline

#endif  // STREAMLINE_DATAFLOW_OPERATORS_H_
