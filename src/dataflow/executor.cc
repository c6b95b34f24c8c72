#include "dataflow/executor.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "common/logging.h"
#include "common/spsc_ring.h"
#include "dataflow/events.h"
#include "dataflow/graph_validator.h"
#include "dataflow/operator.h"
#include "dataflow/source.h"

namespace streamline {
namespace internal {

class Task;

namespace {

/// ChangelogSink writing each delta record as one CRC-framed WAL frame.
class WalChangelogSink : public ChangelogSink {
 public:
  explicit WalChangelogSink(WalWriter* wal) : wal_(wal) {}
  Status Append(std::string_view record) override {
    return wal_->Append(record);
  }

 private:
  WalWriter* wal_;
};

/// One data-plane edge instance: a lock-free SPSC event ring from one
/// upstream subtask into one downstream subtask, plus the reverse-direction
/// recycle ring that returns drained batch buffers to the producer. Both
/// rings are single-producer/single-consumer by construction -- every
/// (upstream subtask, downstream subtask) pair gets its own InputChannel.
struct InputChannel {
  explicit InputChannel(size_t capacity)
      : events(capacity), recycle(capacity + 2) {}

  SpscChannel<StreamEvent> events;
  // Lossy buffer recycling: the consumer TryPushes drained
  // std::vector<Record> buffers back (dropped when full), the producer
  // TryPops them instead of allocating (allocates when empty). Steady
  // state ships batches with zero heap allocations.
  SpscRing<std::vector<Record>> recycle;
};

struct OutputTarget {
  InputChannel* channel = nullptr;
  // Per-target record buffer ("network buffer"): amortizes channel
  // synchronization over batch_size records.
  std::vector<Record> buffer;
  // Backpressure: events that found the ring full wait here, in order,
  // and are re-offered before anything newer (see PushEvent). Bounded by one morsel's output -- a task with pending
  // overflow stops consuming input until the queue drains.
  std::deque<StreamEvent> overflow;
};

struct OutputEdge {
  PartitionScheme scheme = PartitionScheme::kForward;
  KeySelector key;
  int key_field = -1;  // >= 0: hash this record field in place
  KeyHashFn key_hash;  // hash-only selector for generic (non-field) keys
  std::vector<OutputTarget> targets;  // indexed by downstream subtask
  uint64_t rr = 0;
};

// Records between ApproxBytes samples on the routing path: walking string
// fields per record is hot-path work, so bytes_out is sampled (every
// sampled record stands in for the whole stride).
constexpr uint64_t kBytesSampleStride = 32;

// Events drained from one channel before the poll loop moves on. One event
// is already a whole record batch, so amortization does not need a larger
// budget -- and visiting channels event-by-event keeps multi-input
// operators (joins, unions) close to arrival order and lets the combined
// watermark advance instead of one channel racing ahead by thousands of
// records.
constexpr size_t kDrainBudgetPerVisit = 1;

}  // namespace

/// One physical task: a chain of operators (possibly headed by a source),
/// with one SPSC input channel per upstream subtask, multiplexed
/// round-robin with per-channel watermark and barrier-alignment tracking.
/// The morsel scheduler runs bounded Step() calls on a fixed work-stealing
/// pool, so a logical task is just a schedulable unit and parallelism above
/// the core count does not add OS threads. Because the pool serializes
/// Step() calls per task and channels stay FIFO, barrier positions and sink
/// output are byte-identical at every worker count.
class Task : public Schedulable {
 public:
  Task(Job* job, std::vector<int> node_ids, int subtask, int parallelism)
      : job_(job), node_ids_(std::move(node_ids)), subtask_(subtask),
        parallelism_(parallelism) {}

  // --- construction-time setup (main thread) ------------------------------

  std::string base_name;   // e.g. "source->tokenize->count"
  std::string task_name;   // base_name + "#subtask"
  bool is_source = false;
  std::unique_ptr<SourceFunction> source;
  std::vector<std::unique_ptr<Operator>> ops;  // chain after optional source
  // One SPSC channel per upstream subtask, indexed by channel id; every
  // push notifies this task on the pool (see AttachScheduler).
  std::vector<std::unique_ptr<InputChannel>> inputs;
  int num_inputs = 0;
  std::vector<int> channel_ordinal;
  std::vector<OutputEdge> outputs;
  size_t batch_size = 256;
  // Fault injection (chaos testing): one site label per chain element,
  // "source:<name>" / "op:<name>". Null injector = no faults.
  FaultInjector* injector = nullptr;
  std::vector<std::string> sites;
  // Incremental checkpoints: non-null when barriers write changelog deltas
  // into an IncrementalSnapshotStore instead of full per-element snapshots.
  IncrementalSnapshotStore* inc_store = nullptr;

  int subtask() const { return subtask_; }
  int parallelism() const { return parallelism_; }
  const std::vector<int>& node_ids() const { return node_ids_; }

  Status Init() {
    // Build the collector chain: op i emits into op i+1; the last op emits
    // into the router.
    router_ = std::make_unique<RouterCollector>(this);
    collectors_.resize(ops.size());
    for (size_t i = ops.size(); i-- > 0;) {
      Collector* downstream =
          (i + 1 < ops.size()) ? static_cast<Collector*>(collectors_[i + 1].get())
                               : static_cast<Collector*>(router_.get());
      collectors_[i] = std::make_unique<ChainCollector>(
          this, i + 1 < ops.size() ? ops[i + 1].get() : nullptr,
          (is_source ? 1 : 0) + i + 1, downstream);
    }
    // Batch-at-a-time execution: whole channel events flow through
    // ProcessBatch chains (batch_size 1 ships batches of one). Batch hops
    // probe fault sites for a whole span of record hits at once
    // (FaultInjector::OnSpan) with per-record hit accounting.
    if (is_source) source_batch_.reserve(batch_size);
    OperatorContext ctx;
    ctx.subtask_index = subtask_;
    ctx.parallelism = parallelism_;
    ctx.task_name = task_name;
    ctx.metrics = job_->metrics();
    for (auto& op : ops) {
      STREAMLINE_RETURN_IF_ERROR(op->Open(ctx));
    }
    channel_wm_.assign(num_inputs, kMinTimestamp);
    channel_open_.assign(num_inputs, true);
    channel_aligned_.assign(num_inputs, false);
    open_channels_ = num_inputs;
    for (OutputEdge& edge : outputs) {
      for (OutputTarget& target : edge.targets) {
        target.buffer.reserve(batch_size);
      }
    }
    records_in_ = job_->metrics()->GetCounter("task." + base_name +
                                              ".records_in");
    records_out_ = job_->metrics()->GetCounter("task." + base_name +
                                               ".records_out");
    bytes_out_ = job_->metrics()->GetCounter("task." + base_name +
                                             ".bytes_out");
    watermark_gauge_ = job_->metrics()->GetGauge("task." + task_name +
                                                 ".watermark");
    return Status::Ok();
  }

  /// State key of chain element `i` (0 = source or first operator).
  std::string StateKey(size_t i) const {
    return "node" + std::to_string(node_ids_[i]) + "/" +
           std::to_string(subtask_);
  }

  Status RestoreFrom(SnapshotStore* store, uint64_t checkpoint_id) {
    size_t idx = 0;
    if (is_source) {
      auto bytes = store->Get(checkpoint_id, StateKey(idx));
      if (!bytes.ok()) return bytes.status();
      BinaryReader r(*bytes);
      STREAMLINE_RETURN_IF_ERROR(source->RestoreState(&r));
      ++idx;
    }
    for (auto& op : ops) {
      STREAMLINE_RETURN_IF_ERROR(
          RestoreElement(store, checkpoint_id, idx, op.get()));
      ++idx;
    }
    // This checkpoint becomes the parent of the next delta chain; if it
    // was a full snapshot (no manifest), the next barrier writes a base.
    chain_parent_cp_ = checkpoint_id;
    return Status::Ok();
  }

  /// Restores one operator element: base + changelog replay when the
  /// checkpoint has an incremental manifest for this key, full entry bytes
  /// otherwise. Replay re-performs the recorded structural operation
  /// sequence, so the recovered state is byte-identical to the full-
  /// snapshot path.
  Status RestoreElement(SnapshotStore* store, uint64_t checkpoint_id,
                        size_t idx, Operator* op) {
    const std::string key = StateKey(idx);
    if (inc_store != nullptr && inc_store->HasIncremental(checkpoint_id, key)) {
      auto snap = inc_store->GetIncremental(checkpoint_id, key);
      if (!snap.ok()) return snap.status();
      BinaryReader base(snap->base);
      STREAMLINE_RETURN_IF_ERROR(op->RestoreState(&base));
      for (const std::vector<std::string>& segment : snap->deltas) {
        for (const std::string& record : segment) {
          BinaryReader r(record);
          STREAMLINE_RETURN_IF_ERROR(op->ApplyDelta(&r));
        }
      }
      op->ResetDelta();  // replay must never record changelog events
      return Status::Ok();
    }
    auto bytes = store->Get(checkpoint_id, key);
    if (!bytes.ok()) return bytes.status();
    BinaryReader r(*bytes);
    return op->RestoreState(&r);
  }

  void RequestBarrier(uint64_t id) {
    pending_barrier_.store(id, std::memory_order_release);
  }

  /// Pool wiring (main thread, before Start): pushes into any of this
  /// task's input channels mark it runnable on the pool.
  void AttachScheduler(WorkStealingPool* pool) {
    notify_waker_.pool = pool;
    notify_waker_.task = this;
    for (auto& in : inputs) in->events.set_waker(&notify_waker_);
  }

  /// True once the task ran its final morsel.
  bool done() const {
    return phase_.load(std::memory_order_acquire) == kPhaseDone;
  }

  /// One-line diagnostic snapshot for stall dumps (racy reads; the task
  /// may be running concurrently -- values are hints, not truth).
  std::string DebugString() const {
    std::string s = task_name;
    s += " phase=" + std::to_string(phase_.load(std::memory_order_relaxed));
    s += " sched=" + std::to_string(debug_sched_state());
    s += " steps=" + std::to_string(debug_steps_.load(std::memory_order_relaxed));
    s += " open=" + std::to_string(open_channels_);
    s += aligning_ ? " aligning" : "";
    s += finishing_ ? " finishing" : "";
    size_t ovf = 0;
    for (const auto& edge : outputs) {
      for (const auto& t : edge.targets) ovf += t.overflow.size();
    }
    if (ovf != 0) s += " overflow=" + std::to_string(ovf);
    const uint64_t pending = pending_barrier_.load(std::memory_order_relaxed);
    if (pending != 0) s += " pending_barrier=" + std::to_string(pending);
    for (size_t c = 0; c < inputs.size(); ++c) {
      s += " ch" + std::to_string(c) + "[sz=" +
           std::to_string(inputs[c]->events.size()) +
           (channel_open_[c] ? "" : " eos") +
           (inputs[c]->events.closed() ? " closed" : "") +
           (channel_aligned_[c] ? " aligned" : "") + "]";
    }
    return s;
  }

  // --- morsel body ----------------------------------------------------------

  /// One bounded morsel, the unit of execution. The pool serializes Step
  /// calls per task (run-once claiming with acquire/release handover), so
  /// all task state stays effectively single-threaded even though
  /// successive morsels may run on different workers.
  bool Step() override {
    debug_steps_.fetch_add(1, std::memory_order_relaxed);
    const uint8_t phase = phase_.load(std::memory_order_relaxed);
    if (phase == kPhaseDone) return false;
    // Backpressure gate: stashed output must reach its rings before this
    // task consumes anything new (or finishes). Keep rescheduling until
    // the consumer makes room; FIFO requeues guarantee the consumer (and,
    // during barrier alignment, the peer producer whose barrier it waits
    // for) gets its turn in between.
    if (overflow_pending_ && !FlushOverflow()) {
      // Sustained failure means the consumer is behind; on oversubscribed
      // cores an unthrottled respin storm here takes the very CPU the
      // consumer needs to make room. Keep a short hot burst for latency,
      // then hand the core over.
      if (++flush_retry_streak_ >= kFlushRetryYieldThreshold) {
        flush_retry_streak_ = 0;
        std::this_thread::yield();
      }
      return true;
    }
    flush_retry_streak_ = 0;
    if (finishing_) {
      MarkDone();
      return false;
    }
    if (phase == kPhaseAborting) return StepAbort();
    try {
      const bool more = is_source ? StepSource() : StepOperator();
      if (task_status_.ok()) return more;
    } catch (const StatusError& e) {
      Fail(e.status());
    } catch (const std::exception& e) {
      Fail(Status::Internal("uncaught exception in task '" + task_name +
                            "': " + e.what()));
    } catch (...) {
      Fail(Status::Internal("uncaught non-standard exception in task '" +
                            task_name + "'"));
    }
    // Failure epilogue: report once, then spread the abort-drain over
    // subsequent morsels.
    job_->ReportTaskFailure(task_name, task_status_);
    BeginAbort();
    return StepAbort();
  }

 private:
  class RouterCollector : public Collector {
   public:
    explicit RouterCollector(Task* task) : task_(task) {}
    void Emit(Record&& record) override {
      task_->RouteRecord(std::move(record));
    }
    void EmitBatch(std::vector<Record>&& batch) override {
      task_->RouteBatch(std::move(batch));
    }

   private:
    Task* task_;
  };

  class ChainCollector : public Collector {
   public:
    ChainCollector(Task* task, Operator* next, size_t next_element,
                   Collector* downstream)
        : task_(task), next_(next), next_element_(next_element),
          downstream_(downstream) {}
    void Emit(Record&& record) override {
      if (next_ != nullptr) {
        if (!task_->InjectFault(next_element_)) return;
        next_->ProcessRecord(0, std::move(record), downstream_);
      } else {
        downstream_->Emit(std::move(record));
      }
    }
    /// Batch hop: the whole batch moves to the next chain element in one
    /// virtual call. Fault sites fire here too: one span probe covers the
    /// batch with per-record hit accounting, the prefix before a fired
    /// fault is processed, and the rest is dropped -- record-by-record
    /// semantics at batch granularity.
    void EmitBatch(std::vector<Record>&& batch) override {
      if (next_ == nullptr) {
        downstream_->EmitBatch(std::move(batch));
        return;
      }
      if (task_->injector != nullptr) {
        FaultInjector::SpanFault fault =
            task_->injector->OnSpan(task_->sites[next_element_], batch.size());
        if (fault.fired) {
          batch.resize(fault.passed);
          if (!batch.empty()) {
            next_->ProcessBatch(0, std::move(batch), downstream_);
          }
          task_->RaiseSpanFault(std::move(fault));
          return;
        }
      }
      next_->ProcessBatch(0, std::move(batch), downstream_);
    }

   private:
    Task* task_;
    Operator* next_;         // operator this collector feeds (null: router)
    size_t next_element_;    // chain-element index of `next_` (fault site)
    Collector* downstream_;  // what `next_` emits into
  };

  class SourceTaskContext : public SourceContext {
   public:
    explicit SourceTaskContext(Task* task) : task_(task) {}
    bool Emit(Record&& record) override {
      // Barriers are injected between records: the snapshot sees the source
      // position before this record, and the barrier is broadcast before
      // the record travels downstream. (The barrier handler flushes the
      // pending source batch first, so batching never reorders a record
      // across a barrier.)
      task_->MaybeHandleSourceBarrier();
      if (!task_->task_status_.ok() ||
          task_->job_->cancelled_.load(std::memory_order_relaxed)) {
        return false;
      }
      if (!task_->InjectFault(0)) {
        // Records emitted before the fault were already accepted: flush
        // the staged ones down the chain before the task fails.
        task_->FlushSourceBatch();
        return false;
      }
      task_->BufferSourceRecord(std::move(record));
      // A chained operator or sink may have failed while processing this
      // record (recorded via Fail); stop emitting then.
      return task_->task_status_.ok();
    }
    bool EmitSpan(Record* records, size_t n) override {
      // Barrier and cancellation checks once per span. The barrier
      // handler flushes the pending source batch before broadcasting, and
      // the snapshot sees the source position before this span, so
      // restore replays exactly the unemitted suffix.
      task_->MaybeHandleSourceBarrier();
      if (!task_->task_status_.ok() ||
          task_->job_->cancelled_.load(std::memory_order_relaxed)) {
        return false;
      }
      if (task_->injector != nullptr) {
        FaultInjector::SpanFault fault =
            task_->injector->OnSpan(task_->sites[0], n);
        if (fault.fired) {
          // Records before the fault still travel the full chain, exactly
          // as if they had been emitted one by one.
          task_->BufferSourceSpan(records, fault.passed);
          task_->FlushSourceBatch();
          task_->RaiseSpanFault(std::move(fault));  // kThrow leaves here
          return false;
        }
      }
      task_->BufferSourceSpan(records, n);
      return task_->task_status_.ok();
    }
    bool EmitBatch(std::vector<Record>&& batch) override {
      task_->MaybeHandleSourceBarrier();
      if (!task_->task_status_.ok() ||
          task_->job_->cancelled_.load(std::memory_order_relaxed)) {
        batch.clear();
        return false;
      }
      if (task_->injector != nullptr) {
        FaultInjector::SpanFault fault =
            task_->injector->OnSpan(task_->sites[0], batch.size());
        if (fault.fired) {
          // Same prefix parity as EmitSpan.
          task_->BufferSourceSpan(batch.data(), fault.passed);
          batch.clear();
          task_->FlushSourceBatch();
          task_->RaiseSpanFault(std::move(fault));
          return false;
        }
      }
      if (batch.size() > task_->batch_size) {
        // Oversized batch: re-chunk through the staging buffer so the
        // configured batch granularity holds downstream.
        task_->BufferSourceSpan(batch.data(), batch.size());
        batch.clear();
        return task_->task_status_.ok();
      }
      // Any records staged via Emit() must go first to preserve order.
      task_->FlushSourceBatch();
      if (!task_->task_status_.ok()) return false;
      // Straight into the chain: no per-record staging move. DeliverBatch
      // threads the vector's identity through in-place chain hops, so the
      // caller usually gets its capacity back for the next batch.
      task_->DeliverBatch(0, std::move(batch));
      return task_->task_status_.ok();
    }
    size_t PreferredBatchSize() const override { return task_->batch_size; }
    void EmitWatermark(Timestamp wm) override {
      task_->DeliverWatermark(wm);
    }
    bool IsCancelled() const override {
      return task_->job_->cancelled_.load(std::memory_order_relaxed);
    }

   private:
    Task* task_;
  };

  /// Source morsel: service any pending barrier, then a few polls. An
  /// idle source goes quiet (the job's 1 ms source timer re-notifies it);
  /// an exhausted or cancelled source runs FinishSource.
  bool StepSource() {
    MaybeHandleSourceBarrier();
    if (!task_status_.ok()) return true;
    if (job_->cancelled_.load(std::memory_order_relaxed)) {
      return FinishSource();
    }
    SourceTaskContext ctx(this);
    constexpr int kPollsPerMorsel = 4;
    for (int i = 0; i < kPollsPerMorsel; ++i) {
      Result<SourcePoll> polled = source->Poll(&ctx);
      if (!polled.ok()) {
        // Fail() keeps the first error: a fault recorded mid-Emit wins over
        // whatever the source returned in response to the rejected Emit.
        Fail(polled.status());
        return true;
      }
      if (!task_status_.ok()) return true;
      switch (*polled) {
        case SourcePoll::kHasMore:
          break;
        case SourcePoll::kIdle:
          // An idle source must not sit on staged records or partially
          // filled output buffers (downstream would starve), and must
          // service pending barriers before going quiet.
          FlushSourceBatch();
          FlushAllBuffers();
          MaybeHandleSourceBarrier();
          return !task_status_.ok() || overflow_pending_;
        case SourcePoll::kExhausted:
          return FinishSource();
      }
      if (job_->cancelled_.load(std::memory_order_relaxed)) {
        return FinishSource();
      }
      // A downstream ring filled up: stop polling and reschedule; Step's
      // preamble re-offers the overflow until the consumer makes room.
      if (overflow_pending_) return true;
    }
    return true;
  }

  /// Exhaustion/cancellation epilogue: flush, service a checkpoint
  /// triggered while the source was finishing, then end the stream.
  /// Returns false after marking the task done; true on failure (the Step
  /// wrapper takes the abort path).
  bool FinishSource() {
    FlushSourceBatch();
    if (!task_status_.ok()) return true;
    MaybeHandleSourceBarrier();
    DeliverWatermark(kMaxTimestamp);
    FinishChain();
    if (!task_status_.ok()) return true;
    return FinishMorsel();
  }

  /// Completion epilogue shared by every finish path: the task is done as
  /// soon as its stashed output (if any) has drained into the rings.
  bool FinishMorsel() {
    if (overflow_pending_) {
      finishing_ = true;
      return true;  // requeue; Step's preamble drains, then marks done
    }
    MarkDone();
    return false;
  }

  /// Operator morsel: drain a bounded number of events round-robin across
  /// the input channels, then either requeue (work left), go idle (every
  /// producer's next push notifies us), or finish (all inputs closed).
  bool StepOperator() {
    constexpr size_t kPassesPerMorsel = 8;
    for (size_t pass = 0; pass < kPassesPerMorsel && open_channels_ > 0 &&
                          task_status_.ok() && !overflow_pending_;
         ++pass) {
      size_t drained = 0;
      for (size_t c = 0; c < inputs.size(); ++c) {
        drained += DrainChannel(c, kDrainBudgetPerVisit);
      }
      if (drained == 0) break;
    }
    if (!task_status_.ok()) return true;
    if (open_channels_ == 0) {
      if (task_wm_ < kMaxTimestamp) DeliverWatermark(kMaxTimestamp);
      FinishChain();
      if (!task_status_.ok()) return true;
      return FinishMorsel();
    }
    // A push racing with this check is not lost: the producer's Notify
    // lands as kRunningNotified and the pool requeues us.
    return AnyInputReady() || overflow_pending_;
  }

  void MarkDone() {
    phase_.store(kPhaseDone, std::memory_order_release);
    job_->TaskFinished();
  }

  /// Pops and dispatches up to `budget` events from channel `c`. A channel
  /// is skipped while it is closed or already aligned for the in-flight
  /// barrier: its producer simply backs up -- that IS the alignment, no
  /// stashing needed, because each producer owns exactly one channel into
  /// this task.
  size_t DrainChannel(size_t c, size_t budget) {
    size_t drained = 0;
    StreamEvent ev;
    while (drained < budget && channel_open_[c] && task_status_.ok() &&
           !(aligning_ && channel_aligned_[c]) &&
           inputs[c]->events.TryPop(&ev)) {
      Dispatch(static_cast<int>(c), std::move(ev));
      ++drained;
    }
    return drained;
  }

  bool AnyInputReady() const {
    if (open_channels_ == 0) return true;
    for (size_t c = 0; c < inputs.size(); ++c) {
      if (!channel_open_[c]) continue;
      if (aligning_ && channel_aligned_[c]) continue;
      if (!inputs[c]->events.Empty()) return true;
    }
    return false;
  }

  void FinishChain() {
    for (size_t i = 0; i < ops.size(); ++i) {
      ops[i]->OnEndOfInput(collectors_[i].get());
    }
    for (auto& op : ops) {
      Status st = op->Close();
      if (!st.ok()) {
        Fail(Status(st.code(),
                    "close of '" + op->Name() + "' failed: " + st.message()));
      }
    }
    if (!task_status_.ok()) return;  // Step takes the abort path
    Broadcast(StreamEvent::EndOfStream());
  }

  void Dispatch(int c, StreamEvent&& event) {
    switch (event.kind) {
      case StreamEvent::Kind::kBatch:
        records_in_->Increment(event.batch.size());
        // The whole event flows through the operator chain in one
        // ProcessBatch call per hop. Most batch overrides transform in
        // place, so `event.batch` usually keeps its identity (and
        // capacity) all the way through and gets recycled below.
        DeliverBatch(channel_ordinal[c], std::move(event.batch));
        // Hand the drained buffer back to the producer for reuse; if the
        // recycle ring is full the vector just frees here.
        event.batch.clear();
        if (event.batch.capacity() > 0) {
          inputs[c]->recycle.TryPush(std::move(event.batch));
        }
        break;
      case StreamEvent::Kind::kWatermark:
        channel_wm_[c] = std::max(channel_wm_[c], event.watermark);
        RecomputeWatermark();
        break;
      case StreamEvent::Kind::kBarrier:
        HandleBarrier(c, event.barrier_id);
        break;
      case StreamEvent::Kind::kEndOfStream:
        if (channel_open_[c]) {
          channel_open_[c] = false;
          --open_channels_;
        }
        CheckAlignmentComplete();
        RecomputeWatermark();
        break;
    }
  }

  /// Hands a whole batch to the chain head in one call. ops[0] is chain
  /// element 0 of an operator task, element 1 behind a source (element 0
  /// is the source itself, probed in Emit). The head element's fault site
  /// fires via a span probe with per-record hit accounting (see
  /// ChainCollector::EmitBatch).
  void DeliverBatch(int ordinal, std::vector<Record>&& batch) {
    if (batch.empty()) return;
    if (ops.empty()) {
      RouteBatch(std::move(batch));
      return;
    }
    if (injector != nullptr) {
      FaultInjector::SpanFault fault =
          injector->OnSpan(sites[is_source ? 1 : 0], batch.size());
      if (fault.fired) {
        batch.resize(fault.passed);
        if (!batch.empty()) {
          ops[0]->ProcessBatch(ordinal, std::move(batch),
                               collectors_[0].get());
        }
        RaiseSpanFault(std::move(fault));
        return;
      }
    }
    ops[0]->ProcessBatch(ordinal, std::move(batch), collectors_[0].get());
  }

  /// Source-side batching: records a source Emit()s accumulate here and
  /// travel through the chain batch-at-a-time. Flushed eagerly before
  /// every control event (watermark, barrier, idle, end of input) so
  /// batching never reorders records against control flow.
  void BufferSourceRecord(Record&& record) {
    source_batch_.push_back(std::move(record));
    if (source_batch_.size() >= batch_size) FlushSourceBatch();
  }

  /// Span twin of BufferSourceRecord: appends a contiguous run of records
  /// to the pending source batch, flushing at batch-size boundaries. The
  /// inner loop is just a move per record -- no per-record virtual
  /// dispatch or status checks.
  void BufferSourceSpan(Record* records, size_t n) {
    size_t i = 0;
    while (i < n) {
      const size_t room = batch_size - source_batch_.size();
      const size_t take = std::min(room, n - i);
      for (size_t k = 0; k < take; ++k) {
        // The span usually streams out of a cold source vector; pull the
        // next lines in while the current record is being moved.
        __builtin_prefetch(records + i + k + 8);
        source_batch_.push_back(std::move(records[i + k]));
      }
      i += take;
      if (source_batch_.size() >= batch_size) {
        FlushSourceBatch();
        if (!task_status_.ok()) return;  // chained failure: drop the rest
      }
    }
  }

  void FlushSourceBatch() {
    if (source_batch_.empty()) return;
    // DeliverBatch preserves the vector's identity through in-place chain
    // hops, so source_batch_ keeps its capacity for the next fill.
    DeliverBatch(0, std::move(source_batch_));
    source_batch_.clear();
  }

  void DeliverWatermark(Timestamp wm) {
    // Records emitted before this watermark must reach the operators
    // before it does (no-op on operator tasks).
    FlushSourceBatch();
    for (size_t i = 0; i < ops.size(); ++i) {
      ops[i]->ProcessWatermark(wm, collectors_[i].get());
    }
    Broadcast(StreamEvent::OfWatermark(wm));
  }

  void RecomputeWatermark() {
    if (open_channels_ == 0) return;  // final watermark handled at loop exit
    Timestamp min_wm = kMaxTimestamp;
    for (int c = 0; c < num_inputs; ++c) {
      if (channel_open_[c]) min_wm = std::min(min_wm, channel_wm_[c]);
    }
    if (min_wm > task_wm_) {
      task_wm_ = min_wm;
      watermark_gauge_->Set(static_cast<double>(min_wm));
      DeliverWatermark(min_wm);
    }
  }

  void HandleBarrier(int channel, uint64_t id) {
    if (!aligning_) {
      aligning_ = true;
      barrier_id_ = id;
      std::fill(channel_aligned_.begin(), channel_aligned_.end(), false);
    } else {
      STREAMLINE_CHECK_EQ(barrier_id_, id)
          << "overlapping checkpoints are not supported";
    }
    channel_aligned_[channel] = true;
    CheckAlignmentComplete();
  }

  void CheckAlignmentComplete() {
    if (!aligning_) return;
    for (int c = 0; c < num_inputs; ++c) {
      if (channel_open_[c] && !channel_aligned_[c]) return;
    }
    // Every live input delivered the barrier: state is consistent. The
    // poll loop resumes the aligned channels once `aligning_` drops; any
    // events they buffered meanwhile were simply never popped.
    SnapshotChain(barrier_id_);
    // A failed snapshot means this checkpoint is dead: committing it at
    // the sinks (OnBarrier) or forwarding the barrier would make an
    // incomplete checkpoint look durable downstream.
    if (task_status_.ok()) {
      for (auto& op : ops) op->OnBarrier(barrier_id_);
      Broadcast(StreamEvent::OfBarrier(barrier_id_));
    }
    aligning_ = false;
  }

  void MaybeHandleSourceBarrier() {
    // Called between every two source records: keep the common no-barrier
    // case a plain load, not an atomic RMW.
    if (pending_barrier_.load(std::memory_order_acquire) == 0) return;
    const uint64_t id = pending_barrier_.exchange(0, std::memory_order_acq_rel);
    if (id == 0) return;
    // Records emitted before the barrier must be in operator state before
    // the snapshot (the snapshotted source position already covers them).
    FlushSourceBatch();
    if (!task_status_.ok()) return;
    // Checkpoint barriers persist chain state durably (fsync) by design:
    // the cost is bounded per barrier, not per record, and asynchronous
    // snapshot upload is tracked as a roadmap item.
    // analyzer:allow(block-in-morsel): barrier snapshots are synchronously durable by design
    SnapshotChain(id);
    if (!task_status_.ok()) return;  // dead checkpoint: do not commit/forward
    for (auto& op : ops) op->OnBarrier(id);
    Broadcast(StreamEvent::OfBarrier(id));
  }

  /// Checkpoint-time fault hook for chain element `idx` ("task X fails on
  /// checkpoint K"). kThrow faults throw out of OnCheckpoint.
  Status CheckpointFault(size_t idx, uint64_t checkpoint_id) {
    if (injector == nullptr) return Status::Ok();
    return injector->OnCheckpoint(sites[idx], checkpoint_id);
  }

  void SnapshotChain(uint64_t checkpoint_id) {
    SnapshotStore* store = job_->snapshot_store();
    STREAMLINE_CHECK(store != nullptr);
    size_t idx = 0;
    Status st = Status::Ok();
    if (is_source) {
      st = CheckpointFault(idx, checkpoint_id);
      if (st.ok()) {
        BinaryWriter w;
        st = source->SnapshotState(&w);
        // A failed write (ENOSPC, short write) fails the checkpoint -- and
        // the task -- with the failing path in the message.
        if (st.ok()) st = store->Put(checkpoint_id, StateKey(idx), w.Release());
      }
      ++idx;
    }
    for (auto& op : ops) {
      if (!st.ok()) break;
      st = CheckpointFault(idx, checkpoint_id);
      if (st.ok()) st = SnapshotElement(store, checkpoint_id, idx, op.get());
      ++idx;
    }
    if (!st.ok()) {
      // The task never acks, so the checkpoint stays incomplete and is
      // never a restore candidate. The failure takes the job down.
      Fail(Status(st.code(), "checkpoint " + std::to_string(checkpoint_id) +
                                 " failed: " + st.message()));
      return;
    }
    // Every element persisted: this checkpoint heads the delta chain the
    // next barrier extends. Only advanced on success -- a failed or
    // crashed barrier leaves the chain parented at the last durable one.
    chain_parent_cp_ = checkpoint_id;
    if (job_->coordinator_ != nullptr) {
      job_->coordinator_->AckTask(checkpoint_id);
    }
  }

  /// Persists one operator element at a barrier. Incremental mode writes
  /// the changelog delta into a sealed WAL segment (or a compacted base
  /// when the chain outgrew the threshold); everything else -- and every
  /// operator without delta support -- takes the full SnapshotState path.
  Status SnapshotElement(SnapshotStore* store, uint64_t checkpoint_id,
                         size_t idx, Operator* op) {
    if (inc_store != nullptr && op->SupportsIncrementalState()) {
      const std::string key = StateKey(idx);
      if (inc_store->NeedsBase(key, chain_parent_cp_)) {
        BinaryWriter w;
        STREAMLINE_RETURN_IF_ERROR(op->SnapshotState(&w));
        STREAMLINE_RETURN_IF_ERROR(
            inc_store->PutBase(checkpoint_id, key, w.Release()));
        // The base captured everything; pending delta events are stale.
        op->ResetDelta();
        return Status::Ok();
      }
      auto wal = inc_store->OpenDeltaSegment(checkpoint_id, key);
      if (!wal.ok()) return wal.status();
      WalChangelogSink sink(wal->get());
      STREAMLINE_RETURN_IF_ERROR(op->SnapshotDelta(&sink));
      return inc_store->SealDeltas(checkpoint_id, key, chain_parent_cp_,
                                   std::move(*wal));
    }
    BinaryWriter w;
    STREAMLINE_RETURN_IF_ERROR(op->SnapshotState(&w));
    return store->Put(checkpoint_id, StateKey(idx), w.Release());
  }

  /// Records the first failure; later ones lose (user code downstream of a
  /// fault often fails too, with less interesting errors).
  /// Task-serialized, like all non-atomic task state.
  void Fail(Status st) {
    if (task_status_.ok() && !st.ok()) task_status_ = std::move(st);
  }

  /// Fires any matching injected fault for chain element `element`.
  /// Returns false when a Status fault fired (the task is now failing);
  /// kThrow faults leave by exception.
  bool InjectFault(size_t element) {
    if (injector == nullptr) return true;
    Status st = injector->OnHit(sites[element]);
    if (!st.ok()) {
      Fail(std::move(st));
      return false;
    }
    return true;
  }

  /// Applies a span fault after its passed prefix was processed, exactly
  /// where record-by-record delivery would have: kThrow leaves by
  /// exception (like OnHit), kStatus fails the task (like InjectFault).
  void RaiseSpanFault(FaultInjector::SpanFault&& fault) {
    if (fault.kind == FaultInjector::FaultKind::kThrow) {
      throw std::runtime_error(fault.message);
    }
    Fail(std::move(fault.status));
  }

  /// Crash-like teardown after a failure, first half: drop buffered
  /// (uncommitted) output and push end-of-stream so downstream tasks
  /// terminate. The drain that follows (StepAbort morsels) is what
  /// unblocks upstream tasks backed up on a full ring; without it a failed
  /// consumer would stall its producers forever.
  void BeginAbort() {
    source_batch_.clear();  // uncommitted, dropped like buffered output
    for (OutputEdge& edge : outputs) {
      for (OutputTarget& target : edge.targets) {
        target.buffer.clear();
        StreamEvent eos = StreamEvent::EndOfStream();
        PushEvent(target, std::move(eos));
      }
    }
    aligning_ = false;  // stop skipping aligned channels
    phase_.store(kPhaseAborting, std::memory_order_relaxed);
  }

  /// Abort-drain morsel: discard whatever the inputs hold until every
  /// producer's EOS arrived. Goes idle between pushes -- each producer
  /// push notifies this task. Barriers drained here are deliberately not
  /// acked: a checkpoint interrupted by the failure must stay incomplete.
  bool StepAbort() {
    StreamEvent ev;
    size_t drained = 0;
    for (size_t c = 0; c < inputs.size(); ++c) {
      while (channel_open_[c] && inputs[c]->events.TryPop(&ev)) {
        if (ev.kind == StreamEvent::Kind::kEndOfStream) {
          channel_open_[c] = false;
          --open_channels_;
        }
        ++drained;
      }
    }
    if (open_channels_ == 0) return FinishMorsel();
    return drained > 0;
  }

  void RouteRecord(Record&& record) {
    // Metric updates are batched: per-record atomic RMWs and per-record
    // ApproxBytes walks both show up on profiles. Record counts stay exact
    // (flushed with every shipped batch); bytes are sampled, with every
    // kBytesSampleStride-th record standing in for the whole stride.
    ++pending_records_out_;
    if ((route_count_++ & (kBytesSampleStride - 1)) == 0) {
      pending_bytes_out_ += record.ApproxBytes() * kBytesSampleStride;
    }
    for (size_t e = 0; e < outputs.size(); ++e) {
      OutputEdge& edge = outputs[e];
      const bool last_edge = (e + 1 == outputs.size());
      switch (edge.scheme) {
        case PartitionScheme::kForward: {
          record.key_hash = Record::kNoKeyHash;
          // analyzer:allow(record-copy-in-hot-path): non-last edges must keep the record; only the final edge may move it
          Push(edge.targets[subtask_],
               last_edge ? std::move(record) : record);
          break;
        }
        case PartitionScheme::kHash: {
          // Hash-once: compute the key hash here and stamp it on the
          // record, so the keyed operator behind this edge indexes its
          // state with the carried hash instead of re-hashing. A plain
          // field key is hashed in place; a generic key goes through the
          // edge's hash-only selector. An inbound key_hash is never
          // trusted (it may belong to a different edge's key).
          const uint64_t h = edge.key_field >= 0
                                 ? KeyHashOf(record.fields[edge.key_field])
                                 : edge.key_hash(record);
          record.key_hash = h;
          // analyzer:allow(record-copy-in-hot-path): non-last edges must keep the record; only the final edge may move it
          Push(edge.targets[h % edge.targets.size()],
               last_edge ? std::move(record) : record);
          break;
        }
        case PartitionScheme::kRebalance: {
          // Reset the carried hash on non-hash edges: a stale hash from an
          // upstream shuffle keyed differently must never reach a keyed
          // operator looking like its own.
          record.key_hash = Record::kNoKeyHash;
          const size_t target = edge.rr++ % edge.targets.size();
          // analyzer:allow(record-copy-in-hot-path): non-last edges must keep the record; only the final edge may move it
          Push(edge.targets[target], last_edge ? std::move(record) : record);
          break;
        }
        case PartitionScheme::kBroadcast: {
          record.key_hash = Record::kNoKeyHash;
          // Fan out with copies to all but the final target; the final
          // target takes the move when this is also the last edge.
          const size_t fanout = edge.targets.size();
          for (size_t t = 0; t + 1 < fanout; ++t) {
            // analyzer:allow(record-copy-in-hot-path): broadcast must hand every non-final target its own copy
            Push(edge.targets[t], record);
          }
          // analyzer:allow(record-copy-in-hot-path): non-last edges must keep the record; only the final edge may move it
          Push(edge.targets[fanout - 1],
               last_edge ? std::move(record) : record);
          break;
        }
      }
    }
  }

  /// Batch-path twin of RouteRecord: partitions a whole batch in one pass.
  /// The common single-edge case gets a tight per-scheme loop (hash
  /// stamping + target push, no per-record dispatch); multi-edge plans
  /// fall back to the per-record router.
  void RouteBatch(std::vector<Record>&& batch) {
    if (batch.empty()) return;
    if (outputs.empty()) {
      // Terminal chain (sink emitted nothing downstream of it); count the
      // records like RouteRecord would.
      CountRoutedBatch(batch);
      batch.clear();
      return;
    }
    if (outputs.size() != 1) {
      for (Record& record : batch) RouteRecord(std::move(record));
      batch.clear();
      return;
    }
    CountRoutedBatch(batch);
    OutputEdge& edge = outputs[0];
    const size_t num_targets = edge.targets.size();
    switch (edge.scheme) {
      case PartitionScheme::kForward: {
        OutputTarget& target = edge.targets[subtask_];
        for (Record& record : batch) {
          record.key_hash = Record::kNoKeyHash;
          target.buffer.push_back(std::move(record));
        }
        if (target.buffer.size() >= batch_size) FlushTarget(&target);
        break;
      }
      case PartitionScheme::kHash: {
        // Hash-once, one pass: stamp every record's key hash and scatter
        // into the per-target buffers (see RouteRecord for the stamping
        // contract).
        if (edge.key_field >= 0) {
          const int field = edge.key_field;
          for (Record& record : batch) {
            const uint64_t h = KeyHashOf(record.fields[field]);
            record.key_hash = h;
            OutputTarget& target = edge.targets[h % num_targets];
            target.buffer.push_back(std::move(record));
            if (target.buffer.size() >= batch_size) FlushTarget(&target);
          }
        } else {
          for (Record& record : batch) {
            const uint64_t h = edge.key_hash(record);
            record.key_hash = h;
            OutputTarget& target = edge.targets[h % num_targets];
            target.buffer.push_back(std::move(record));
            if (target.buffer.size() >= batch_size) FlushTarget(&target);
          }
        }
        break;
      }
      case PartitionScheme::kRebalance: {
        for (Record& record : batch) {
          record.key_hash = Record::kNoKeyHash;
          OutputTarget& target = edge.targets[edge.rr++ % num_targets];
          target.buffer.push_back(std::move(record));
          if (target.buffer.size() >= batch_size) FlushTarget(&target);
        }
        break;
      }
      case PartitionScheme::kBroadcast: {
        for (Record& record : batch) {
          record.key_hash = Record::kNoKeyHash;
          // Copies go to all but the final target; the batch owns its
          // records, so the final target always takes the move.
          for (size_t t = 0; t + 1 < num_targets; ++t) {
            // analyzer:allow(record-copy-in-hot-path): broadcast must hand every non-final target its own copy
            Push(edge.targets[t], record);
          }
          Push(edge.targets[num_targets - 1], std::move(record));
        }
        break;
      }
    }
    batch.clear();
  }

  /// Batched routing metrics, same cadence as RouteRecord: record counts
  /// exact, bytes sampled every kBytesSampleStride-th routed record.
  void CountRoutedBatch(const std::vector<Record>& batch) {
    pending_records_out_ += batch.size();
    const uint64_t mask = kBytesSampleStride - 1;
    size_t off = static_cast<size_t>((kBytesSampleStride -
                                      (route_count_ & mask)) & mask);
    for (; off < batch.size(); off += kBytesSampleStride) {
      pending_bytes_out_ += batch[off].ApproxBytes() * kBytesSampleStride;
    }
    route_count_ += batch.size();
  }

  void Push(OutputTarget& target, Record record) {
    target.buffer.push_back(std::move(record));
    if (target.buffer.size() >= batch_size) FlushTarget(&target);
  }

  /// Ships one event into a downstream channel. A task must never block a
  /// worker -- and must not run other tasks from inside a push either:
  /// "helping" suspends this task mid-Step while it still holds its
  /// run-once claim, and any helped task that then blocks on a channel
  /// only this suspended task can drain deadlocks the whole stack
  /// (suspended claims put cycles in the wait graph even though the
  /// dataflow itself is acyclic). Instead a full ring stashes the event
  /// in the per-target overflow queue and the task simply reschedules:
  /// its morsel loop stops consuming input and re-offers the overflow
  /// (oldest first, so per-target order holds) until the consumer makes
  /// room. Backpressure becomes scheduling state instead of a blocked
  /// thread, which is what makes workers < tasks deadlock-free.
  void PushEvent(OutputTarget& target, StreamEvent&& event) {
    InputChannel* ch = target.channel;
    if (target.overflow.empty() && ch->events.TryPush(std::move(event))) {
      return;
    }
    if (ch->events.closed()) return;  // dropped: the consumer is gone
    target.overflow.push_back(std::move(event));
    overflow_pending_ = true;
  }

  /// Re-offers stashed overflow events, oldest first. Returns true when
  /// every target's overflow is empty (the task may consume input again).
  bool FlushOverflow() {
    bool all_empty = true;
    for (OutputEdge& edge : outputs) {
      for (OutputTarget& target : edge.targets) {
        std::deque<StreamEvent>& q = target.overflow;
        while (!q.empty()) {
          if (target.channel->events.closed()) {
            q.clear();  // dropped: the consumer is gone
            break;
          }
          if (!target.channel->events.TryPush(std::move(q.front()))) break;
          q.pop_front();
        }
        if (!q.empty()) all_empty = false;
      }
    }
    overflow_pending_ = !all_empty;
    return all_empty;
  }

  void FlushTarget(OutputTarget* target) {
    if (target->buffer.empty()) return;
    FlushRouteMetrics();
    InputChannel* ch = target->channel;
    StreamEvent event = StreamEvent::OfBatch(std::move(target->buffer));
    // Next buffer: prefer one the consumer recycled (steady state ships
    // batches without touching the allocator).
    target->buffer = std::vector<Record>();
    ch->recycle.TryPop(&target->buffer);
    if (target->buffer.capacity() < batch_size) {
      target->buffer.reserve(batch_size);
    }
    PushEvent(*target, std::move(event));
  }

  void FlushAllBuffers() {
    for (OutputEdge& edge : outputs) {
      for (OutputTarget& target : edge.targets) FlushTarget(&target);
    }
  }

  void FlushRouteMetrics() {
    if (pending_records_out_ != 0) {
      records_out_->Increment(pending_records_out_);
      pending_records_out_ = 0;
    }
    if (pending_bytes_out_ != 0) {
      bytes_out_->Increment(pending_bytes_out_);
      pending_bytes_out_ = 0;
    }
  }

  void Broadcast(const StreamEvent& event) {
    // Control events (watermarks, barriers, EOS) must not overtake the
    // records emitted before them.
    FlushAllBuffers();
    FlushRouteMetrics();
    for (OutputEdge& edge : outputs) {
      for (OutputTarget& target : edge.targets) {
        StreamEvent copy = event;
        PushEvent(target, std::move(copy));
      }
    }
  }

  Job* job_;
  std::vector<int> node_ids_;
  int subtask_;
  int parallelism_;

  std::unique_ptr<RouterCollector> router_;
  std::vector<std::unique_ptr<ChainCollector>> collectors_;

  std::vector<Timestamp> channel_wm_;
  std::vector<bool> channel_open_;
  std::vector<bool> channel_aligned_;
  int open_channels_ = 0;
  Timestamp task_wm_ = kMinTimestamp;
  // First failure of this task (user-code error Status, injected fault, or
  // caught exception). Reported to the Job once, by the Step that first
  // sees it.
  Status task_status_;
  bool aligning_ = false;
  uint64_t barrier_id_ = 0;
  // Checkpoint the current delta chain is parented on: the restore point
  // at startup, then the last checkpoint this task fully persisted.
  // Incremental mode only; untouched (0) otherwise.
  uint64_t chain_parent_cp_ = 0;
  std::atomic<uint64_t> pending_barrier_{0};

  // Push notifications: marks this task runnable on the pool. Wake() is
  // called by producers from arbitrary workers.
  class NotifyWaker : public Waker {
   public:
    void Wake() override { pool->Notify(task); }
    WorkStealingPool* pool = nullptr;
    Schedulable* task = nullptr;
  };

  // Lifecycle: kPhaseRunning covers the normal body, a failure switches
  // to kPhaseAborting (EOS sent, draining inputs), kPhaseDone tasks
  // refuse further morsels. Atomic only because the idle-source
  // timer reads done() from the timer thread; transitions happen on the
  // task's (serialized) morsels.
  static constexpr uint8_t kPhaseRunning = 0;
  static constexpr uint8_t kPhaseAborting = 1;
  static constexpr uint8_t kPhaseDone = 2;
  std::atomic<uint8_t> phase_{kPhaseRunning};
  // Total Step() invocations; stall-dump diagnostics only.
  std::atomic<uint64_t> debug_steps_{0};
  // True while any OutputTarget::overflow is non-empty; the task's morsel
  // loop stops consuming input until FlushOverflow drains everything
  // (task-serialized, like all non-atomic task state).
  bool overflow_pending_ = false;
  // Consecutive morsels whose flush failed; past the threshold each failed
  // respin yields the core to whoever should be draining (task-serialized).
  static constexpr uint32_t kFlushRetryYieldThreshold = 16;
  uint32_t flush_retry_streak_ = 0;
  // The finish epilogue ran but overflow was still pending: the next
  // morsel whose flush succeeds marks the task done.
  bool finishing_ = false;
  NotifyWaker notify_waker_;

  // Source-side staging (see BufferSourceRecord): accumulates source
  // emits; its capacity survives every flush (task-serialized).
  std::vector<Record> source_batch_;

  // Batched metric state (task thread only; see RouteRecord).
  uint64_t pending_records_out_ = 0;
  uint64_t pending_bytes_out_ = 0;
  uint64_t route_count_ = 0;

  Counter* records_in_ = nullptr;
  Counter* records_out_ = nullptr;
  Counter* bytes_out_ = nullptr;
  Gauge* watermark_gauge_ = nullptr;
};

}  // namespace internal

// ---------------------------------------------------------------------------
// Job

Job::~Job() {
  if (started_.load() && !finished_.load()) {
    Cancel();
    AwaitCompletion().IgnoreError(
        "destructor teardown after Cancel; any failure was already "
        "observable via Run()/FirstFailure()");
  }
}

Result<std::unique_ptr<Job>> Job::Create(const LogicalGraph& graph,
                                         JobOptions options) {
  STREAMLINE_RETURN_IF_ERROR(ValidateGraph(graph));
  auto job = std::unique_ptr<Job>(new Job());
  job->options_ = options;

  // 1) Operator chaining: group forward-connected nodes into tasks.
  const std::vector<int> topo = graph.TopologicalOrder();
  std::vector<int> chain_head(graph.nodes().size());
  for (size_t i = 0; i < chain_head.size(); ++i) {
    chain_head[i] = static_cast<int>(i);
  }
  for (int id : topo) {
    const auto in_edges = graph.InEdges(id);
    if (in_edges.size() != 1) continue;
    const GraphEdge* e = in_edges[0];
    if (e->scheme != PartitionScheme::kForward) continue;
    if (e->input_ordinal != 0) continue;
    if (graph.OutEdges(e->from).size() != 1) continue;
    chain_head[id] = chain_head[e->from];
  }
  // Group members in topological order.
  // lint:allow(unordered-map-hot-path): plan construction, once per job
  std::unordered_map<int, std::vector<int>> groups;
  std::vector<int> group_order;
  for (int id : topo) {
    auto [it, inserted] = groups.try_emplace(chain_head[id]);
    if (inserted) group_order.push_back(chain_head[id]);
    it->second.push_back(id);
  }

  // 2) Instantiate tasks.
  // task_index[head][subtask] -> index into job->tasks_.
  // lint:allow(unordered-map-hot-path): plan construction, once per job
  std::unordered_map<int, std::vector<size_t>> task_index;
  for (int head : group_order) {
    const std::vector<int>& members = groups[head];
    const GraphNode& head_node = graph.node(head);
    std::string base_name = head_node.name;
    for (size_t i = 1; i < members.size(); ++i) {
      base_name += "->" + graph.node(members[i]).name;
    }
    for (int s = 0; s < head_node.parallelism; ++s) {
      auto task = std::make_unique<internal::Task>(job.get(), members, s,
                                                   head_node.parallelism);
      task->base_name = base_name;
      task->task_name = base_name + "#" + std::to_string(s);
      task->is_source = head_node.is_source;
      if (head_node.is_source) {
        task->source = head_node.source_factory(s, head_node.parallelism);
      } else {
        task->ops.push_back(head_node.op_factory());
      }
      for (size_t i = 1; i < members.size(); ++i) {
        task->ops.push_back(graph.node(members[i]).op_factory());
      }
      task->batch_size = std::max<size_t>(options.batch_size, 1);
      task->injector = options.fault_injector.get();
      task->sites.push_back(
          (head_node.is_source ? "source:" : "op:") + head_node.name);
      for (size_t i = 1; i < members.size(); ++i) {
        task->sites.push_back("op:" + graph.node(members[i]).name);
      }
      task_index[head].push_back(job->tasks_.size());
      job->tasks_.push_back(std::move(task));
    }
  }

  // 3) Wire channels for every inter-group edge.
  for (const GraphEdge& e : graph.edges()) {
    if (chain_head[e.from] == chain_head[e.to]) continue;  // fused
    const int up_head = chain_head[e.from];
    const int down_head = chain_head[e.to];
    // The edge must leave the tail of the upstream group and enter the head
    // of the downstream group.
    STREAMLINE_CHECK_EQ(groups[up_head].back(), e.from)
        << "edge leaves the middle of a chain";
    STREAMLINE_CHECK_EQ(down_head, e.to) << "edge enters a chained operator";
    const auto& up_tasks = task_index[up_head];
    const auto& down_tasks = task_index[down_head];
    // Allocate one input channel per (upstream subtask, downstream subtask).
    // channel_of[s][t] is the downstream task t's channel index fed by
    // upstream subtask s.
    std::vector<std::vector<int>> channel_of(
        up_tasks.size(), std::vector<int>(down_tasks.size(), -1));
    for (size_t s = 0; s < up_tasks.size(); ++s) {
      for (size_t t = 0; t < down_tasks.size(); ++t) {
        internal::Task* down = job->tasks_[down_tasks[t]].get();
        channel_of[s][t] = down->num_inputs++;
        down->channel_ordinal.push_back(e.input_ordinal);
        // Dedicated SPSC channel: upstream subtask s is its only producer,
        // downstream task t its only consumer.
        down->inputs.push_back(std::make_unique<internal::InputChannel>(
            options.channel_capacity));
      }
    }
    for (size_t s = 0; s < up_tasks.size(); ++s) {
      internal::Task* up = job->tasks_[up_tasks[s]].get();
      internal::OutputEdge out;
      out.scheme = e.scheme;
      out.key = e.key;
      out.key_field = e.key_field;
      out.key_hash = e.key_hash;
      for (size_t t = 0; t < down_tasks.size(); ++t) {
        internal::Task* down = job->tasks_[down_tasks[t]].get();
        internal::OutputTarget target;
        target.channel = down->inputs[channel_of[s][t]].get();
        out.targets.push_back(std::move(target));
      }
      up->outputs.push_back(std::move(out));
    }
  }

  // 4) Open operators, set up metrics and runtime state.
  for (auto& task : job->tasks_) {
    STREAMLINE_RETURN_IF_ERROR(task->Init());
  }

  // 5) Checkpointing infrastructure.
  const bool wants_checkpoints = options.snapshot_store != nullptr ||
                                 options.checkpoint_interval_ms > 0 ||
                                 options.restore_from_checkpoint != 0;
  if (options.incremental_checkpoints && !wants_checkpoints) {
    return Status::InvalidArgument(
        "incremental_checkpoints requires a snapshot store "
        "(set JobOptions::snapshot_store to an IncrementalSnapshotStore)");
  }
  if (wants_checkpoints) {
    job->snapshot_store_ = options.snapshot_store
                               ? options.snapshot_store
                               : std::make_shared<SnapshotStore>();
    if (options.incremental_checkpoints) {
      auto* inc =
          dynamic_cast<IncrementalSnapshotStore*>(job->snapshot_store_.get());
      if (inc == nullptr) {
        return Status::InvalidArgument(
            "incremental_checkpoints requires JobOptions::snapshot_store to "
            "be an IncrementalSnapshotStore");
      }
      inc->SetCompactionThreshold(options.changelog_compaction_bytes);
      inc->SetFaultInjector(options.fault_injector.get());
      for (auto& task : job->tasks_) task->inc_store = inc;
    }
    // Checkpoint ids continue after anything already in the store, so a
    // restarted job never collides with its predecessor's checkpoints.
    job->coordinator_ = std::make_unique<CheckpointCoordinator>(
        job->snapshot_store_.get(), static_cast<int>(job->tasks_.size()),
        job->snapshot_store_->MaxCheckpointId() + 1);
    Job* j = job.get();
    for (auto& task : job->tasks_) {
      if (task->is_source) {
        internal::Task* t = task.get();
        job->coordinator_->RegisterSourceTrigger([t, j](uint64_t id) {
          t->RequestBarrier(id);
          // An idle source won't poll on its own, so nudge it -- barrier
          // latency becomes one morsel instead of waiting for the 1 ms
          // re-poll timer.
          if (j->started_.load()) j->pool_->Notify(t);
        });
      }
    }
  }

  // 6) Restore.
  if (options.restore_from_checkpoint != 0) {
    for (auto& task : job->tasks_) {
      STREAMLINE_RETURN_IF_ERROR(task->RestoreFrom(
          job->snapshot_store_.get(), options.restore_from_checkpoint));
    }
  }
  // Changelogs switch on only after restore: replaying a snapshot must
  // never record delta events of its own.
  if (options.incremental_checkpoints) {
    for (auto& task : job->tasks_) {
      for (auto& op : task->ops) {
        if (op->SupportsIncrementalState()) op->EnableIncrementalState();
      }
    }
  }

  // 7) The scheduler: worker pool plus the timer thread that drives the
  // checkpoint cadence and idle-source re-polls.
  WorkStealingPool::Options popts;
  popts.num_workers = options.worker_threads;  // 0 = hardware
  job->pool_ = std::make_unique<WorkStealingPool>(std::move(popts));
  for (auto& task : job->tasks_) task->AttachScheduler(job->pool_.get());
  return job;
}

Status Job::Start() {
  if (started_.exchange(true)) {
    return Status::FailedPrecondition("job already started");
  }
  start_time_ = std::chrono::steady_clock::now();
  {
    MutexLock lock(&done_mu_);
    live_tasks_ = tasks_.size();
  }
  // Every task gets an initial morsel; operator tasks find their channels
  // empty and go idle until a producer pushes.
  for (auto& task : tasks_) {
    pool_->Notify(task.get());
  }
  // Idle sources are re-polled on a timer: external input (logs, gates)
  // can arrive without any channel push to notify them, pending checkpoint
  // barriers must be serviced while no records flow, and cancellation must
  // reach a quiet source.
  source_poll_timer_id_ = pool_->ScheduleRepeating(1, [this] {
    if (finished_.load()) return;
    for (auto& task : tasks_) {
      if (task->is_source && !task->done()) pool_->Notify(task.get());
    }
  });
  if (options_.checkpoint_interval_ms > 0) {
    last_cp_time_ = start_time_;
    checkpoint_timer_id_ = pool_->ScheduleRepeating(
        options_.checkpoint_interval_ms, [this] { CheckpointTick(); });
  }
  return Status::Ok();
}

void Job::CheckpointTick() {
  if (finished_.load() || cancelled_.load()) return;
  if (coordinator_ == nullptr) return;
  const auto now = std::chrono::steady_clock::now();
  if (last_cp_id_ != 0 && !coordinator_->IsComplete(last_cp_id_)) {
    // In-flight checkpoint: hold the cadence rather than overlap barriers
    // (tasks CHECK against overlap). Bounded, though: a checkpoint that
    // can never complete -- triggered as a bounded source finished -- must
    // not stall the cadence forever. 2 s matches the bounded wait the old
    // dedicated timer thread used.
    if (now - last_cp_time_ < std::chrono::seconds(2)) return;
  }
  last_cp_id_ = coordinator_->Trigger();
  last_cp_time_ = now;
}

void Job::TaskFinished() {
  MutexLock lock(&done_mu_);
  if (live_tasks_ > 0) --live_tasks_;
  if (live_tasks_ == 0) done_cv_.NotifyAll();
}

Status Job::AwaitCompletion() {
  if (!started_.load()) {
    return Status::FailedPrecondition("job not started");
  }
  {
    // Optional stall diagnostics: with STREAMLINE_STALL_DUMP_SECS=N set,
    // a job whose live-task count stops moving for N seconds dumps every
    // task's scheduling state to stderr (and keeps dumping every N
    // seconds). Reads are racy -- this is a debugging aid, not a metric.
    int64_t dump_secs = 0;
    // Nothing in the engine calls setenv, so this lone read cannot race.
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    if (const char* env = std::getenv("STREAMLINE_STALL_DUMP_SECS")) {
      dump_secs = std::atoll(env);
    }
    MutexLock lock(&done_mu_);
    size_t last_seen = live_tasks_;
    auto last_change = std::chrono::steady_clock::now();
    while (live_tasks_ > 0) {
      // Timed backstop: a (theoretical) lost wakeup costs one period, not a
      // hang.
      done_cv_.WaitFor(&done_mu_, std::chrono::milliseconds(10));
      if (dump_secs <= 0) continue;
      const auto now = std::chrono::steady_clock::now();
      if (live_tasks_ != last_seen) {
        last_seen = live_tasks_;
        last_change = now;
      } else if (now - last_change >= std::chrono::seconds(dump_secs)) {
        last_change = now;
        std::string dump = "=== streamline stall dump: live_tasks=" +
                           std::to_string(live_tasks_) + "\n";
        for (const auto& task : tasks_) {
          char ptr[32];
          std::snprintf(ptr, sizeof(ptr), "%p",
                        static_cast<void*>(
                            static_cast<Schedulable*>(task.get())));
          dump += "  " + std::string(ptr) + " " + task->DebugString() + "\n";
        }
        dump += "  queues: " + pool_->DebugQueues() + "\n";
        const SchedulerCounters& c = pool_->counters();
        dump += "  pool: ready=" + std::to_string(pool_->ApproxReadyDepth()) +
                " morsels=" + std::to_string(c.morsels_local.load()) +
                " notifies=" + std::to_string(c.notifies.load()) +
                " parks=" + std::to_string(c.parks.load()) +
                " wakeups=" + std::to_string(c.wakeups.load()) + " busy_us=[";
        for (size_t i = 0; i < pool_->num_workers(); ++i) {
          if (i > 0) dump += " ";
          dump += std::to_string(pool_->WorkerBusyMicros(i));
        }
        dump += "]\n";
        std::fputs(dump.c_str(), stderr);
      }
    }
  }
  finished_.store(true);
  if (checkpoint_timer_id_ != 0) {
    pool_->CancelTimer(checkpoint_timer_id_);
    checkpoint_timer_id_ = 0;
  }
  if (source_poll_timer_id_ != 0) {
    pool_->CancelTimer(source_poll_timer_id_);
    source_poll_timer_id_ = 0;
  }
  ExportSchedulerMetrics();
  // Joins the workers and the timer thread; queued morsels of finished
  // tasks (stale hints) are dropped.
  pool_->Shutdown();
  return FirstFailure();
}

void Job::ExportSchedulerMetrics() {
  const SchedulerCounters& c = pool_->counters();
  auto set = [this](const std::string& name, double v) {
    metrics_.GetGauge("scheduler." + name)->Set(v);
  };
  const auto rel = std::memory_order_relaxed;
  set("workers", static_cast<double>(pool_->num_workers()));
  set("morsels_local", static_cast<double>(c.morsels_local.load(rel)));
  set("morsels_stolen", static_cast<double>(c.morsels_stolen.load(rel)));
  set("morsels_injected", static_cast<double>(c.morsels_injected.load(rel)));
  set("steals", static_cast<double>(c.steals.load(rel)));
  set("parks", static_cast<double>(c.parks.load(rel)));
  set("wakeups", static_cast<double>(c.wakeups.load(rel)));
  set("notifies", static_cast<double>(c.notifies.load(rel)));
  set("ready_depth", static_cast<double>(pool_->ApproxReadyDepth()));
  const auto wall = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - start_time_);
  set("wall_micros", static_cast<double>(wall.count()));
  for (size_t i = 0; i < pool_->num_workers(); ++i) {
    set("worker" + std::to_string(i) + ".busy_micros",
        static_cast<double>(pool_->WorkerBusyMicros(i)));
  }
}

Status Job::FirstFailure() const {
  MutexLock lock(&failure_mu_);
  return first_failure_;
}

void Job::ReportTaskFailure(const std::string& task_name,
                            const Status& status) {
  {
    MutexLock lock(&failure_mu_);
    if (first_failure_.ok()) {
      first_failure_ = Status(status.code(), "task '" + task_name +
                                                 "' failed: " +
                                                 status.message());
    }
  }
  LOG_ERROR << "task " << task_name << " failed: " << status.ToString();
  // Cancelling stops the sources; every other task sees end-of-stream (or
  // the failing task's abort EOS) and winds down.
  cancelled_.store(true);
}

Status Job::Run() {
  STREAMLINE_RETURN_IF_ERROR(Start());
  return AwaitCompletion();
}

void Job::Cancel() { cancelled_.store(true); }

uint64_t Job::TriggerCheckpoint() {
  STREAMLINE_CHECK(coordinator_ != nullptr)
      << "job has no snapshot store (set JobOptions::snapshot_store)";
  return coordinator_->Trigger();
}

bool Job::AwaitCheckpoint(uint64_t id, double timeout_seconds) {
  STREAMLINE_CHECK(coordinator_ != nullptr);
  return coordinator_->AwaitCompletion(id, timeout_seconds);
}

uint64_t Job::LatestCompletedCheckpoint() const {
  return coordinator_ == nullptr ? 0 : coordinator_->latest_completed();
}

size_t Job::num_tasks() const { return tasks_.size(); }

std::string Job::PlanDescription() const {
  std::ostringstream os;
  for (const auto& task : tasks_) {
    if (task->subtask() != 0) continue;
    os << task->base_name << " x" << task->parallelism() << " (nodes:";
    for (int id : task->node_ids()) os << " " << id;
    os << ")\n";
  }
  return os.str();
}

}  // namespace streamline
