// sessions_replay: data at rest replayed as a bounded flood. A Zipf
// clickstream over 1M users is pre-loaded into a partitioned EventLog:
//
//   LogSource -> KeyBy(user) -> 30 s-gap session COUNT -> transactional sink
//             -> Filter(purchases) -> KeyBy(user) -> running purchase Reduce
//                                                 -> transactional sink
//
// The benchmark triggers incremental checkpoints at a fixed cadence (in
// input progress) into a fresh IncrementalSnapshotStore, fails the job
// through FaultInjector::FailOnCheckpoint right after checkpoint K, restores
// the latest completed checkpoint into a new job and runs it to completion;
// the committed output must match the reference exactly once. Large keyed
// state with changelog/WAL writes beside the reads, and no sockets.

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "api/datastream.h"
#include "bench.h"
#include "checkers.h"
#include "dataflow/event_log.h"
#include "dataflow/snapshot.h"
#include "stats.h"

namespace perfbench {
namespace {

using namespace streamline;  // NOLINT(build/namespaces)

constexpr uint64_t kEvents = 200'000;
constexpr int kLogPartitions = 4;
// One source subtask reads all partitions: with two, their contention on
// the log made whole runs 20 % slower or faster at random.
constexpr int kSourceParallelism = 1;
constexpr int kParallelism = 4;
// Checkpoint k is triggered once the source read k fifths of the input; the
// snapshot of checkpoint kFailAt fails, so the job restores kFailAt - 1.
constexpr uint64_t kFailAt = 3;
constexpr int kMinRounds = 3;
// Read progress is stamped once per this many milliseconds of event time.
constexpr int64_t kStampEveryMs = 64;
constexpr uint64_t kLatencySampleEvery = 8;

/// Wall time at which the source first read each kStampEveryMs bucket of
/// event time: the due time of results the bucket completes. Written by
/// the stamping Map in the source chain, first write wins.
class ReadStamps {
 public:
  explicit ReadStamps(uint64_t events)
      : stamps_(events / kStampEveryMs + 2) {}

  /// Wall time of the first stamped read; 0 before.
  int64_t first_ns() const { return first_ns_.load(); }

  void Observe(Timestamp ts) {
    if (ts % kStampEveryMs != 0) return;
    auto& slot = stamps_[static_cast<size_t>(ts / kStampEveryMs)];
    int64_t expected = 0;
    const int64_t now = NowNs();
    slot.compare_exchange_strong(expected, now, std::memory_order_relaxed);
    expected = 0;
    first_ns_.compare_exchange_strong(expected, now,
                                      std::memory_order_relaxed);
    int64_t seen = progress_.load(std::memory_order_relaxed);
    while (ts > seen && !progress_.compare_exchange_weak(
                            seen, ts, std::memory_order_relaxed)) {
    }
  }
  /// Due time of a result completed once event time `ts` was read; 0 when
  /// that part of the input was not read by the current job.
  int64_t DueNs(Timestamp ts) const {
    const size_t b = static_cast<size_t>((ts + kStampEveryMs - 1) /
                                         kStampEveryMs);
    return b < stamps_.size() ? stamps_[b].load(std::memory_order_relaxed)
                              : 0;
  }
  Timestamp progress() const {
    return progress_.load(std::memory_order_relaxed);
  }
  void Reset() {
    for (auto& s : stamps_) s.store(0, std::memory_order_relaxed);
    progress_.store(0, std::memory_order_relaxed);
    first_ns_.store(0, std::memory_order_relaxed);
  }

 private:
  std::vector<std::atomic<int64_t>> stamps_;
  std::atomic<Timestamp> progress_{0};
  std::atomic<int64_t> first_ns_{0};
};

/// Session results are [user, start, end, 0, count]; running purchase
/// totals are [user, kind, total].
bool IsSession(const Record& r) { return r.num_fields() == 5; }

/// Event time whose read completes a result: a session [first, last + gap)
/// closes once the watermark passes its end; a running total is due when
/// its purchase was read.
Timestamp DueTs(const Record& r) {
  return IsSession(r) ? r.field(2).AsInt64() + 1 : r.timestamp;
}

/// Exactly-once output sink: a TransactionalCollectSink that also notes,
/// for a sample of results, how long after its due time it arrived.
class TimedTransactionalSink : public SinkFunction {
 public:
  explicit TimedTransactionalSink(const ReadStamps* stamps)
      : stamps_(stamps) {}

  Status Invoke(const Record& record) override {
    const int64_t now = NowNs();
    last_ns_.store(now, std::memory_order_relaxed);
    if (seq_.fetch_add(1, std::memory_order_relaxed) % kLatencySampleEvery ==
        0) {
      const int64_t due = stamps_->DueNs(DueTs(record));
      if (due > 0) {
        MutexLock lock(&mu_);
        latency_ms_.push_back((now - due) / 1e6);
      }
    }
    return inner_.Invoke(record);
  }
  void OnBarrier(uint64_t id) override { inner_.OnBarrier(id); }
  void OnRestart() override { inner_.OnRestart(); }
  std::string Name() const override { return "timed-transactional"; }

  /// Commits the open transaction at end of input (the bounded job's last
  /// barrier) and returns everything committed.
  std::vector<Record> CommitAndTake() {
    inner_.OnBarrier(UINT64_MAX);
    return inner_.committed();
  }
  int64_t last_ns() const { return last_ns_.load(); }
  std::vector<double> latency_ms() const {
    MutexLock lock(&mu_);
    return latency_ms_;
  }

 private:
  TransactionalCollectSink inner_;
  const ReadStamps* stamps_;
  std::atomic<uint64_t> seq_{0};
  std::atomic<int64_t> last_ns_{0};
  mutable Mutex mu_;
  std::vector<double> latency_ms_ STREAMLINE_GUARDED_BY(mu_);
};

void BuildJob(Environment* env, const std::shared_ptr<EventLog>& log,
              ReadStamps* stamps, const SessionsConfig& config,
              const std::shared_ptr<SinkFunction>& sink) {
  DataStream clicks =
      env->FromSource("clicks", LogSource::Factory(log, 256),
                      kSourceParallelism)
          .Map(
              [stamps](Record&& r) {
                stamps->Observe(r.timestamp);
                return std::move(r);
              },
              "stamp");
  DataStream sessions =
      clicks.KeyBy(0)
          .Window(std::make_shared<SessionWindowFn>(config.gap_ms))
          .Aggregate(DynAggKind::kCount, 0, WindowBackend::kShared,
                     "sessions");
  DataStream spend =
      clicks
          .Filter([](const Record& r) { return r.field(1).AsInt64() == kPurchase; },
                  "purchases")
          .KeyBy(0)
          .Reduce(
              [](const Record& acc, const Record& r) {
                Record out = r;
                out.fields[2] =
                    Value(acc.field(2).AsInt64() + r.field(2).AsInt64());
                return out;
              },
              "spend");
  // One transactional sink for the whole job: it commits when a barrier
  // has come through every branch, so the output is one transaction
  // sequence.
  sessions.Union(spend, "results").Rebalance(1, "out").Sink(sink, "sink");
}

struct Inputs {
  SessionsConfig config;
  std::vector<Record> clicks;  // what the log holds (one may be dropped)
  uint64_t records = 0;
  std::map<ResultKey, double> sessions;
  std::map<std::pair<int64_t, int64_t>, uint64_t> purchases;
};

Round RunRound(const Options& options, const Inputs& in, Tracer* tracer,
               Report* report) {
  Round out;
  // The log is loaded before the round starts and stays open until the
  // failing checkpoint is triggered: a source at the end of an open log
  // idles instead of finishing, so the job cannot complete before the
  // injected failure however long the checkpoints before it take.
  // Partitioned by user, each user's clicks stay in event-time order
  // through one source subtask, so running totals are deterministic.
  auto log = std::make_shared<EventLog>(kLogPartitions);
  for (const Record& r : in.clicks) log->AppendByKey(0, r);
  ResetPeakRss();
  const uint64_t trace_id = tracer->NewTraceId();
  ScopedSpan round_span(tracer, "bench.round", 0, trace_id);
  const int64_t t_start = NowNs();

  TempDir dir(options.work_dir);
  auto store = std::make_shared<IncrementalSnapshotStore>(dir.path());
  auto injector = std::make_shared<FaultInjector>(options.seed);
  // The source fails its snapshot of checkpoint kFailAt, so no barrier of
  // that checkpoint is emitted. (Failing an operator instead, or one of
  // several source subtasks, lets the job's abort-drain complete barrier
  // alignment downstream: the sink would commit an epoch whose checkpoint
  // never completes, and the restored job would repeat it.)
  const auto rule = FaultInjector::FailOnCheckpoint("source:clicks", kFailAt);
  injector->AddRule(rule);
  ReadStamps stamps(in.records);
  auto sink = std::make_shared<TimedTransactionalSink>(&stamps);
  JobOptions jo;
  jo.snapshot_store = store;
  jo.incremental_checkpoints = true;
  jo.fault_injector = injector;

  // First incarnation: runs until the injected failure.
  Environment env1(kParallelism);
  BuildJob(&env1, log, &stamps, in.config, sink);
  auto job = CreateAndStartJob(*env1.graph(), jo, tracer, round_span.id(),
                               trace_id, report);
  if (!job.ok()) return out;
  const int64_t started = NowNs();
  while (stamps.first_ns() == 0 && NowNs() - started < 10'000'000'000) {
    std::this_thread::yield();
  }
  const int64_t first_read = stamps.first_ns();
  out.setup_s = (first_read - t_start) / 1e9;

  // Checkpoint cadence: one per fifth of the input.
  std::vector<double> cp_ms;
  std::vector<double> cp_bytes;
  for (uint64_t k = 1; k <= kFailAt; ++k) {
    const Timestamp at = static_cast<Timestamp>(in.records * k / 5);
    const int64_t deadline = NowNs() + 60'000'000'000;
    while (stamps.progress() < at && (*job)->FirstFailure().ok() &&
           NowNs() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const uint64_t cp_trace = tracer->NewTraceId();
    const int64_t c0 = NowNs();
    const uint64_t id = (*job)->TriggerCheckpoint();
    if (k == kFailAt) log->Close();
    // The failing checkpoint never completes; the job fails instead.
    const bool done = k < kFailAt && (*job)->AwaitCheckpoint(id, 30.0);
    const int64_t c1 = NowNs();
    tracer->Record("checkpoint.Trigger->Await", round_span.id(), cp_trace, c0,
                   c1);
    if (k < kFailAt) {
      if (!done) {
        report->Note("checkpoint %llu did not complete",
                     static_cast<unsigned long long>(id));
        log->Close();
        (*job)->Cancel();
        (void)(*job)->AwaitCompletion();
        return out;
      }
      cp_ms.push_back((c1 - c0) / 1e6);
      cp_bytes.push_back(static_cast<double>(store->BytesWrittenFor(id)));
    }
    if (k == kFailAt - 1 && tracer->enabled()) {
      AddWindowStateRound(ReadMetrics(*(*job)->metrics()), "sessions",
                          report);
    }
  }
  Status st = (*job)->AwaitCompletion();
  const auto m1 = ReadMetrics(*(*job)->metrics());
  const uint64_t restore_from = store->LatestComplete();
  job->reset();
  if (st.ok() || injector->fires() < 1 || restore_from != kFailAt - 1) {
    report->Note("expected exactly the injected failure after checkpoint "
                 "%llu; got status=%s fires=%llu latest=%llu",
                 static_cast<unsigned long long>(kFailAt - 1),
                 st.ToString().c_str(),
                 static_cast<unsigned long long>(injector->fires()),
                 static_cast<unsigned long long>(restore_from));
    return out;
  }

  // Second incarnation: restore and run to completion.
  sink->OnRestart();
  stamps.Reset();
  Environment env2(kParallelism);
  BuildJob(&env2, log, &stamps, in.config, sink);
  jo.restore_from_checkpoint = restore_from;
  const int64_t t0 = NowNs();
  auto job2 = Job::Create(*env2.graph(), jo);
  st = job2.ok() ? (*job2)->Start() : job2.status();
  const int64_t t1 = NowNs();
  tracer->Record("checkpoint.Restore(Create+Start)", round_span.id(), trace_id,
                 t0, t1);
  if (!st.ok()) {
    report->Note("restore: %s", st.ToString().c_str());
    return out;
  }
  const double recovery_s = (t1 - t0) / 1e9;
  st = (*job2)->AwaitCompletion();
  if (!st.ok()) {
    report->Note("restored job failed: %s", st.ToString().c_str());
    return out;
  }
  out.peak_rss_mb = PeakRssMb();
  const auto m2 = ReadMetrics(*(*job2)->metrics());

  // Exactly-once check of the committed output.
  std::vector<Record> sessions, purchases;
  for (Record& r : sink->CommitAndTake()) {
    (IsSession(r) ? sessions : purchases).push_back(std::move(r));
  }
  if (options.corrupt == Corruption::kAlterResult && !sessions.empty()) {
    Record& r = sessions[sessions.size() / 2];
    r.fields[4] = Value(r.field(4).AsInt64() + 1);
  }
  {
    ScopedSpan s(tracer, "bench.check", round_span.id(), trace_id);
    std::vector<std::pair<ResultKey, double>> got;
    got.reserve(sessions.size());
    for (const Record& r : sessions) {
      got.emplace_back(KeyOfResult(r), ValueOfResult(r));
    }
    out.check = CheckExact(in.sessions, got);
    out.check.Add(CheckPurchases(in.purchases, purchases));
  }
  const int64_t last = sink->last_ns();
  out.throughput =
      static_cast<double>(in.records) / ((last - first_read) / 1e9);
  out.latency_ms = sink->latency_ms();
  out.ok = true;

  // Per-layer numbers of this round.
  report->Pool("checkpoint.duration", "ms", cp_ms);
  report->AddRound("checkpoint.bytes_per_checkpoint", Median(cp_bytes));
  const double window_in = SumMatching(m1, "task.sessions", ".records_in") +
                           SumMatching(m2, "task.sessions", ".records_in");
  report->AddRound("checkpoint.replayed_records",
                   window_in - static_cast<double>(in.records));
  report->AddRound("checkpoint.recovery_s", recovery_s);
  report->AddRound("dataflow.filter_selectivity",
                   SumMatching(m2, "task.spend", ".records_in") /
                       SumMatching(m2, "task.sessions", ".records_in"));
  report->AddRound("dataflow.shuffle_bytes_per_record",
                   SumMatching(m2, "task.clicks", ".bytes_out") /
                       SumMatching(m2, "task.sessions", ".records_in"));
  report->AddRound("window.results_per_kinput",
                   1e3 * static_cast<double>(sessions.size()) /
                       static_cast<double>(in.records));
  AddSchedulerRound(m2, report);
  return out;
}

}  // namespace

Report RunSessions(const Options& options, Tracer* tracer) {
  Report report;
  Inputs in;
  in.config.events = kEvents;
  {
    std::vector<Record> clicks = GenerateClicks(in.config, options.seed);
    in.sessions = SessionsReference(in.config, clicks);
    in.purchases = PurchaseReference(clicks);
    std::vector<Timestamp> ts;
    std::vector<Value> keys;
    bool dropped = false;
    for (size_t i = 0; i < clicks.size(); ++i) {
      if (options.corrupt == Corruption::kDropInput && !dropped &&
          i >= clicks.size() / 2 && clicks[i].field(1).AsInt64() == kPurchase) {
        dropped = true;  // the references still count it
        continue;
      }
      ts.push_back(clicks[i].timestamp);
      keys.push_back(clicks[i].field(0));
      in.clicks.push_back(std::move(clicks[i]));
    }
    in.records = in.clicks.size();
    AddPartitionSkew(ts, keys, static_cast<Timestamp>(in.records / 2),
                     kParallelism, &report);
  }
  report.Note("sessions_replay: %llu clicks, %zu sessions, checkpoint "
              "failure at %llu",
              static_cast<unsigned long long>(in.records), in.sessions.size(),
              static_cast<unsigned long long>(kFailAt));

  RoundPlan plan;
  plan.min_rounds = kMinRounds;
  // Every session and every running total; the round (with its restore)
  // counts as one more operation.
  plan.expected_results = in.sessions.size() + in.purchases.size();
  plan.sink_receives = true;
  RunRounds(
      options, plan,
      [&](Tracer* t, size_t, Report* r) {
        return RunRound(options, in, t, r);
      },
      tracer, &report);
  return report;
}

}  // namespace perfbench
