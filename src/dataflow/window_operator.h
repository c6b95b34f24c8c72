#ifndef STREAMLINE_DATAFLOW_WINDOW_OPERATOR_H_
#define STREAMLINE_DATAFLOW_WINDOW_OPERATOR_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "agg/slicing_aggregator.h"
#include "common/flat_hash_map.h"
#include "dataflow/changelog.h"
#include "dataflow/operator.h"
#include "dataflow/query_registry.h"
#include "window/dyn_aggregate.h"
#include "window/window_fn.h"

namespace streamline {

/// Adapts the runtime DynAggregate to the algebraic-aggregate concept used
/// by the slicing machinery, so the engine's windowed operators run on the
/// exact same Cutty code path the micro-benchmarks measure.
struct DynAggAdapter {
  struct Input {
    Value value;
    Timestamp ts = 0;
  };
  using Partial = DynPartial;
  using Output = Value;
  static constexpr bool kInvertible = false;  // conservative: kind-dependent
  static constexpr bool kCommutative = true;

  explicit DynAggAdapter(DynAggKind kind = DynAggKind::kSum) : dyn(kind) {}

  Partial Identity() const { return dyn.Identity(); }
  Partial Lift(const Input& in) const { return dyn.Lift(in.value, in.ts); }
  Partial Combine(const Partial& a, const Partial& b) const {
    return dyn.Combine(a, b);
  }
  Output Lower(const Partial& p) const { return dyn.Lower(p); }

  /// Contiguous fold kernel for the hot numeric kinds: the per-element
  /// Combine's branches (validity check, kind switch) are hoisted out of
  /// the loop and the accumulator lives in registers. Bit-identical to the
  /// sequential `acc = Combine(acc, Lift(v))` chain -- the batch vs
  /// per-record equivalence tests compare sink output bytes. Keep-one kinds
  /// (variance/first/last/argmax) fall back to that chain unchanged.
  void FoldSpan(Partial* acc, const Input* values, size_t n) const {
    if (n == 0) return;
    size_t i = 0;
    if (!acc->valid) {
      // Combine(invalid, y) returns y exactly; take the first element
      // directly (folding into 0.0 could flip the sign of -0.0).
      *acc = dyn.Lift(values[0].value, values[0].ts);
      i = 1;
      if (i == n) return;
    }
    const size_t start = i;
    switch (dyn.kind()) {
      case DynAggKind::kSum:
      case DynAggKind::kAvg: {
        double s = acc->a;
        Timestamp ts = acc->ts;
        for (; i < n; ++i) {
          s = s + values[i].value.ToDouble();
          ts = std::max(ts, values[i].ts);
        }
        acc->a = s;
        acc->ts = ts;
        break;
      }
      case DynAggKind::kCount: {
        Timestamp ts = acc->ts;
        for (; i < n; ++i) ts = std::max(ts, values[i].ts);
        acc->a = acc->a + 0.0;  // matches x.a + y.a with y.a == 0
        acc->ts = ts;
        break;
      }
      case DynAggKind::kMin: {
        double m = acc->a;
        Timestamp ts = acc->ts;
        for (; i < n; ++i) {
          m = std::min(m, values[i].value.ToDouble());
          ts = std::max(ts, values[i].ts);
        }
        acc->a = m;
        acc->ts = ts;
        break;
      }
      case DynAggKind::kMax: {
        double m = acc->a;
        Timestamp ts = acc->ts;
        for (; i < n; ++i) {
          m = std::max(m, values[i].value.ToDouble());
          ts = std::max(ts, values[i].ts);
        }
        acc->a = m;
        acc->ts = ts;
        break;
      }
      default:
        for (; i < n; ++i) {
          *acc = dyn.Combine(*acc, dyn.Lift(values[i].value, values[i].ts));
        }
        return;  // Combine maintained n itself
    }
    acc->n += static_cast<int64_t>(n - start);
  }

  DynAggregate dyn;
};

/// How the windowed operator maintains per-window state.
enum class WindowBackend : uint8_t {
  kShared,  // Cutty slicing with a shared FlatFAT slice store (default)
  kEager,   // one partial per open window (pre-sharing state of practice)
};

/// Configuration of a keyed event-time window aggregation.
struct WindowAggSpec {
  /// Key extractor; nullptr aggregates the whole stream under one key.
  KeySelector key;
  /// Index of the aggregated field in the input record.
  size_t value_field = 0;
  DynAggKind agg_kind = DynAggKind::kSum;
  /// Prototype window definitions; each key gets fresh clones. Multiple
  /// entries = multi-query sharing over the same slice store.
  std::vector<std::shared_ptr<const WindowFunction>> windows;
  WindowBackend backend = WindowBackend::kShared;
  /// Passed as payload to content-sensitive window functions; nullptr
  /// passes a null Value.
  std::function<Value(const Record&)> payload;
  /// Tolerated lateness beyond the upstream watermark: records up to this
  /// much older than the watermark are still included, at the price of
  /// window results firing `allowed_lateness` later (the operator holds
  /// its internal event-time clock back by this amount).
  Duration allowed_lateness = 0;
  /// Standing-query registry this operator serves (kShared backend only).
  /// Subtasks drain the registry's attach/detach command log at watermark
  /// boundaries, so queries come and go while the job runs; dynamic-query
  /// results carry the registry query id in output field 3.
  std::shared_ptr<QueryRegistry> registry;
};

/// Keyed event-time windowed aggregation operator.
///
/// Out-of-order robustness: records are buffered until the watermark passes
/// them, then applied in timestamp order -- so upstream parallelism (which
/// interleaves channels arbitrarily) never breaks window contents.
///
/// Output records: [key, window_start, window_end, query_index, result]
/// with timestamp = window_end - 1 (the last instant inside the window),
/// so downstream windowed consumers see results in the period they
/// describe.
class WindowAggOperator : public Operator {
 public:
  WindowAggOperator(std::string name, WindowAggSpec spec);
  ~WindowAggOperator() override;

  Status Open(const OperatorContext& ctx) override;
  void ProcessRecord(int input, Record&& record, Collector* out) override;
  void ProcessBatch(int input, std::vector<Record>&& batch,
                    Collector* out) override;
  void ProcessWatermark(Timestamp wm, Collector* out) override;
  void OnEndOfInput(Collector* out) override;
  Status SnapshotState(BinaryWriter* w) const override;
  Status RestoreState(BinaryReader* r) override;
  bool SupportsIncrementalState() const override { return true; }
  void EnableIncrementalState() override { changelog_.Enable(); }
  Status SnapshotDelta(ChangelogSink* sink) override;
  Status ApplyDelta(BinaryReader* r) override;
  void ResetDelta() override { changelog_.Clear(); }
  std::string Name() const override { return name_; }

  /// Aggregation work counters summed over all keys (shared backend only).
  AggStats SharedStats() const;
  size_t num_keys() const { return keys_.size(); }

 private:
  using SharedAgg = SlicingAggregator<DynAggAdapter, FlatFatStore<DynAggAdapter>>;

  struct EagerQueryState {
    std::unique_ptr<WindowFunction> wf;  // used only for periodic params
    Duration range = 0;
    Duration slide = 0;
    Timestamp origin = 0;
    /// Open windows sorted by Window::operator< (end, then start); small and
    /// short-lived, so a sorted vector beats a node-based map.
    std::vector<std::pair<Window, DynPartial>> open;
  };

  /// One registry-attached query, as applied by this subtask. The table is
  /// a pure function of the command-log prefix [1, applied_seq_], so it is
  /// identical across subtasks and across checkpoint restore/replay. Each
  /// entry owns one slot of every key's shared slicing aggregator (see
  /// SharedSlotOfDyn). Entries are append-only -- a detach flips `active`
  /// but keeps the entry, because per-key slot indices and snapshot layouts
  /// are derived from entry positions.
  struct DynQuery {
    uint64_t id = 0;
    QueryDescriptor desc;
    bool active = true;
  };

  struct KeyState {
    // kShared backend.
    std::unique_ptr<SharedAgg> shared;
    // kEager backend.
    std::vector<EagerQueryState> eager;
  };

  KeyState* GetOrCreateKey(const Value& key, uint64_t hash);
  void ApplyElement(const Value& key, KeyState* ks, const Record& record);
  void AdvanceKeyWatermark(const Value& key, KeyState* ks, Timestamp wm);
  void SnapshotKeyState(const KeyState& ks, BinaryWriter* w) const;
  Status RestoreKeyState(KeyState* ks, BinaryReader* r);
  /// Cheap serialized-state fingerprint used to detect keys mutated by a
  /// watermark advance (window fires, slice eviction) without walking the
  /// aggregation state. Shared backend: any firing bumps stats().fires, any
  /// slice churn moves slices_created or the store size, and every other
  /// OnWatermark-reachable mutation is gated on one of those. Eager
  /// backend: EagerFire only erases, so the total open-window count
  /// strictly decreases whenever anything fired.
  std::array<uint64_t, 3> KeyFingerprint(const KeyState& ks) const;
  void EmitResult(const Value& key, size_t query, const Window& w,
                  const Value& result);
  void EagerFire(const Value& key, KeyState* ks, Timestamp wm);
  void UpdateStateGauges();

  // -- standing-query registry integration --------------------------------
  /// Polls the registry command log and applies new attach/detach commands
  /// to every key; called at the end of each watermark (a deterministic
  /// point of the event-time order). Acks the applied prefix.
  void DrainRegistryCommands();
  /// Structural application of one dyn-table entry to live keys. Shared by
  /// the live drain and by checkpoint-delta replay (which reconciles the
  /// key layout before re-restoring the keys the epoch touched).
  void ApplyDynAttach(const DynQuery& dq);
  void ApplyDynDetach(size_t index, uint64_t* slices_freed);
  /// Slicer slot of dyn entry `index`: spec windows first, then one slot
  /// per dyn entry in table order, detached holes included.
  size_t SharedSlotOfDyn(size_t index) const {
    return spec_.windows.size() + index;
  }
  /// Registers the dyn-table queries on a freshly created key (slot layout
  /// must match the table for snapshots to line up).
  void InitDynStateForKey(const Value& key, KeyState* ks);
  uint64_t TotalStoredSlices() const;
  /// Replaces the dyn table with `table`, structurally retrofitting live
  /// keys (new entries attached, newly inactive entries detached).
  void ReconcileDynTable(std::vector<DynQuery> table, uint64_t applied_seq);
  /// The operator header shared by full snapshots and the delta meta
  /// record: watermark, arrival sequence, dyn-query table, reorder buffer.
  void WriteHeader(BinaryWriter* w) const;
  /// Reads a header written by WriteHeader, reconciling the dyn table with
  /// the live keys and replacing the clock and the reorder buffer.
  Status ReadHeader(BinaryReader* r);

  std::string name_;
  WindowAggSpec spec_;
  DynAggAdapter adapter_;

  using PendingEntry = std::pair<Record, uint64_t>;
  /// Min-heap order on (timestamp, arrival seq) -- `a` sorts after `b`.
  static bool PendingAfter(const PendingEntry& a, const PendingEntry& b) {
    if (a.first.timestamp != b.first.timestamp) {
      return a.first.timestamp > b.first.timestamp;
    }
    return a.second > b.second;
  }

  // Reorder buffer: records not yet covered by the watermark, kept as a
  // binary min-heap on (ts, seq). A watermark pops exactly the records it
  // covers, in apply order; nothing ever costs O(buffer) per watermark.
  // That bound matters: one slow input channel holds the min-watermark
  // back while fast channels keep buffering, so the buffer can reach
  // millions of records -- per-watermark sorting (or merging, or erasing a
  // prefix) of the whole buffer turns that stall into quadratic dispatch
  // cost and starves the scheduler.
  std::vector<PendingEntry> pending_;
  // Covered records popped off the heap, in (ts, seq) order; capacity
  // persists across watermarks.
  std::vector<PendingEntry> apply_scratch_;
  // Scratch for contiguous same-key runs handed to the aggregator's batch
  // entry point (shared backend only); capacity persists across watermarks.
  std::vector<Timestamp> run_ts_;
  std::vector<DynAggAdapter::Input> run_in_;
  uint64_t seq_ = 0;
  Timestamp current_wm_ = kMinTimestamp;

  // Standing-query state (empty without a registry).
  std::vector<DynQuery> dyn_queries_;
  uint64_t applied_seq_ = 0;
  int subtask_index_ = 0;
  // The job MetricsRegistry handed to the registry in Open; unbound in the
  // destructor so a registry outliving this job never writes into it.
  MetricsRegistry* bound_metrics_ = nullptr;

  FlatHashMap<Value, KeyState> keys_;
  KeyedChangelog changelog_;
  // Hash of the synthetic key used when spec_.key is null (global windows);
  // computed on first use (KeyHashOf never returns 0).
  uint64_t global_key_hash_ = 0;
  Collector* current_out_ = nullptr;

  // Keyed-state observability (null when the job exposes no registry).
  Gauge* load_gauge_ = nullptr;
  Gauge* probe_gauge_ = nullptr;
  Gauge* keys_gauge_ = nullptr;
};

}  // namespace streamline

#endif  // STREAMLINE_DATAFLOW_WINDOW_OPERATOR_H_
