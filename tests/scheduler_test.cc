// Tests for the morsel-driven work-stealing scheduler: pool-level behavior
// (stealing, park/unpark, notify coalescing, shutdown with queued morsels,
// timers), job-level integration (exact thread count, barrier alignment
// with fewer workers than tasks -- the starvation regression), and
// byte-identical output across worker counts, including across
// checkpoint/restore.

#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <functional>
#include <mutex>
#include <random>
#include <thread>
#include <vector>

#include "api/datastream.h"
#include "dataflow/executor.h"

namespace streamline {
namespace {

using std::chrono::microseconds;
using std::chrono::milliseconds;
using std::chrono::steady_clock;

void SpinFor(microseconds d) {
  const auto until = steady_clock::now() + d;
  while (steady_clock::now() < until) {
  }
}

// Waits (with a deadline) for `pred` to become true.
template <typename Pred>
bool AwaitTrue(Pred pred, milliseconds deadline = milliseconds(10'000)) {
  const auto until = steady_clock::now() + deadline;
  while (!pred()) {
    if (steady_clock::now() > until) return false;
    std::this_thread::sleep_for(microseconds(200));
  }
  return true;
}

// ---------------------------------------------------------------------------
// Pool-level tests.

// A leaf morsel: burns a little CPU so a stealing peer has time to act,
// then goes idle for good.
class LeafTask : public Schedulable {
 public:
  explicit LeafTask(std::atomic<uint64_t>* done) : done_(done) {}
  bool Step() override {
    SpinFor(microseconds(200));
    done_->fetch_add(1, std::memory_order_relaxed);
    return false;
  }

 private:
  std::atomic<uint64_t>* done_;
};

// Fans a burst of leaves onto the calling worker's own deque (an on-worker
// Notify pushes to the local hot end), creating the skew a peer steals from.
class FanOutTask : public Schedulable {
 public:
  FanOutTask(WorkStealingPool* pool, std::vector<std::unique_ptr<LeafTask>>* leaves)
      : pool_(pool), leaves_(leaves) {}
  bool Step() override {
    for (auto& leaf : *leaves_) pool_->Notify(leaf.get());
    return false;
  }

 private:
  WorkStealingPool* pool_;
  std::vector<std::unique_ptr<LeafTask>>* leaves_;
};

TEST(SchedulerPoolTest, StealsUnderSkew) {
  constexpr size_t kLeaves = 256;
  WorkStealingPool::Options opts;
  opts.num_workers = 2;
  WorkStealingPool pool(opts);
  ASSERT_EQ(pool.num_workers(), 2u);

  std::atomic<uint64_t> done{0};
  std::vector<std::unique_ptr<LeafTask>> leaves;
  for (size_t i = 0; i < kLeaves; ++i) {
    leaves.push_back(std::make_unique<LeafTask>(&done));
  }
  FanOutTask root(&pool, &leaves);
  pool.Notify(&root);

  ASSERT_TRUE(AwaitTrue([&] { return done.load() == kLeaves; }));
  // All leaves land on one worker's deque; with ~50 ms of aggregate leaf
  // work the idle peer must have stolen at least once.
  EXPECT_GT(pool.counters().steals.load(), 0u);
  const uint64_t executed = pool.counters().morsels_local.load() +
                            pool.counters().morsels_stolen.load() +
                            pool.counters().morsels_injected.load();
  EXPECT_EQ(executed, kLeaves + 1);  // leaves + the fan-out morsel
  pool.Shutdown();
}

class CountingTask : public Schedulable {
 public:
  bool Step() override {
    count.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  std::atomic<uint64_t> count{0};
};

TEST(SchedulerPoolTest, ParkUnparkRaceKeepsEveryNotify) {
  constexpr uint64_t kRounds = 2'000;
  WorkStealingPool::Options opts;
  opts.num_workers = 2;
  WorkStealingPool pool(opts);

  CountingTask task;
  for (uint64_t i = 0; i < kRounds; ++i) {
    pool.Notify(&task);
    // Wait for this round's run before the next notify, so a coalesced
    // notify can never explain a missing run: every notify from idle must
    // produce exactly one morsel.
    ASSERT_TRUE(AwaitTrue([&] { return task.count.load() > i; }))
        << "notify " << i << " lost";
    // Let the workers park every few rounds so notifies keep landing in
    // the park/unpark window.
    if (i % 16 == 0) std::this_thread::sleep_for(microseconds(200));
  }
  EXPECT_EQ(task.count.load(), kRounds);
  EXPECT_GT(pool.counters().parks.load(), 0u);
  EXPECT_GT(pool.counters().wakeups.load(), 0u);
  pool.Shutdown();
}

// Occupies its worker until released; used to pin a 1-worker pool.
class BlockerTask : public Schedulable {
 public:
  bool Step() override {
    running.store(true, std::memory_order_release);
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(microseconds(100));
    }
    return false;
  }
  std::atomic<bool> running{false};
  std::atomic<bool> release{false};
};

TEST(SchedulerPoolTest, NotifyCoalescesWhileQueued) {
  WorkStealingPool::Options opts;
  opts.num_workers = 1;
  WorkStealingPool pool(opts);

  BlockerTask blocker;
  CountingTask task;
  pool.Notify(&blocker);
  ASSERT_TRUE(AwaitTrue([&] { return blocker.running.load(); }));
  // The only worker is busy, so the task stays queued across all five
  // notifies; they must coalesce into exactly one run.
  for (int i = 0; i < 5; ++i) pool.Notify(&task);
  blocker.release.store(true);
  ASSERT_TRUE(AwaitTrue([&] { return task.count.load() > 0; }));
  std::this_thread::sleep_for(milliseconds(5));
  EXPECT_EQ(task.count.load(), 1u);
  pool.Shutdown();
}

TEST(SchedulerPoolTest, ShutdownDropsQueuedMorselsCleanly) {
  WorkStealingPool::Options opts;
  opts.num_workers = 1;
  WorkStealingPool pool(opts);

  BlockerTask blocker;
  std::vector<std::unique_ptr<CountingTask>> tasks;
  for (int i = 0; i < 64; ++i) tasks.push_back(std::make_unique<CountingTask>());

  pool.Notify(&blocker);
  ASSERT_TRUE(AwaitTrue([&] { return blocker.running.load(); }));
  for (auto& t : tasks) pool.Notify(t.get());
  EXPECT_GT(pool.ApproxReadyDepth(), 0u);

  // Release the worker and shut down while the backlog is still queued:
  // shutdown must join without running everything and without touching
  // freed state (ASan covers the latter).
  blocker.release.store(true);
  pool.Shutdown();
  uint64_t ran = 0;
  for (auto& t : tasks) ran += t->count.load();
  EXPECT_LE(ran, 64u);
  pool.Shutdown();  // idempotent
}

TEST(SchedulerPoolTest, RepeatingTimerFiresUntilCancelled) {
  WorkStealingPool::Options opts;
  opts.num_workers = 1;
  WorkStealingPool pool(opts);
  EXPECT_EQ(pool.num_workers(), 1u);

  std::atomic<uint64_t> ticks{0};
  const uint64_t id = pool.ScheduleRepeating(1, [&] { ticks.fetch_add(1); });
  ASSERT_TRUE(AwaitTrue([&] { return ticks.load() >= 5; }));
  pool.CancelTimer(id);
  const uint64_t after_cancel = ticks.load();
  std::this_thread::sleep_for(milliseconds(20));
  EXPECT_LE(ticks.load(), after_cancel + 1);  // at most one in-flight tick
  pool.Shutdown();
}

// ---------------------------------------------------------------------------
// Job-level tests.

size_t OsThreadCount() {
  size_t n = 0;
  for (const auto& e :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)e;
    ++n;
  }
  return n;
}

Record KeyedValue(uint64_t i) {
  return MakeRecord(static_cast<Timestamp>(i),
                    Value(static_cast<int64_t>(i % 13)),
                    Value(static_cast<int64_t>(i % 101) - 50));
}

TEST(SchedulerJobTest, PoolSizeBoundsOsThreads) {
  // Parallelism 8 must not mean a thread per subtask: the scheduler spawns
  // exactly worker_threads workers plus the shared timer thread,
  // regardless of task count.
  //
  // A thread sanitizer starts a background thread of its own the first time
  // the process creates a thread; start and join a throwaway pool first so
  // the baseline already counts it.
  {
    WorkStealingPool::Options opts;
    opts.num_workers = 1;
    WorkStealingPool warmup(opts);
    warmup.Shutdown();
  }
  const size_t baseline = OsThreadCount();

  std::atomic<bool> stop{false};
  Environment env(8);
  auto sink = env.FromGenerator(
                     "unbounded",
                     [&stop](uint64_t seq) -> std::optional<Record> {
                       if (stop.load(std::memory_order_acquire)) {
                         return std::nullopt;
                       }
                       return KeyedValue(seq);
                     })
                  .KeyBy(0)
                  .Reduce([](const Record& acc, const Record& next) {
                    Record out = acc;
                    out.fields[1] = Value(acc.field(1).AsInt64() +
                                          next.field(1).AsInt64());
                    return out;
                  })
                  .Collect();

  JobOptions options;
  options.worker_threads = 2;
  auto job = env.CreateJob(options);
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  ASSERT_TRUE((*job)->Start().ok());
  ASSERT_TRUE(AwaitTrue([&] { return sink->size() > 100; }));

  ASSERT_NE((*job)->scheduler(), nullptr);
  EXPECT_EQ((*job)->scheduler()->num_workers(), 2u);
  // 2 workers + 1 timer thread, nothing else -- even though the job has
  // 1 source + 8 keyed + sink subtasks.
  EXPECT_EQ(OsThreadCount(), baseline + 3);

  stop.store(true, std::memory_order_release);
  EXPECT_TRUE((*job)->AwaitCompletion().ok());
  job->reset();  // joins the pool
  EXPECT_EQ(OsThreadCount(), baseline);
}

// Regression for backpressure-under-alignment: with one worker and many
// tasks, a checkpoint barrier must still complete. During alignment a
// consumer deliberately stops draining its aligned channel; the producer
// blocked on that channel must yield the worker (overflow-stash, not a
// blocking push) so the second source -- which still owes its barrier --
// gets scheduled and alignment can finish.
TEST(SchedulerJobTest, BarriersCompleteWithOneWorkerManyTasks) {
  std::atomic<bool> stop{false};
  auto gen = [&stop](const char*) {
    return [&stop](uint64_t seq) -> std::optional<Record> {
      if (stop.load(std::memory_order_acquire)) return std::nullopt;
      return KeyedValue(seq);
    };
  };

  Environment env(4);
  DataStream left = env.FromGenerator("left", gen("l"));
  DataStream right = env.FromGenerator("right", gen("r"));
  auto sink = left.Union(right)
                  .KeyBy(0)
                  .Window(std::make_shared<TumblingWindowFn>(64))
                  .Aggregate(DynAggKind::kSum, 1)
                  .Rebalance(1)
                  .Collect();

  JobOptions options;
  options.worker_threads = 1;
  options.snapshot_store = std::make_shared<SnapshotStore>();
  auto job = env.CreateJob(options);
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  ASSERT_TRUE((*job)->Start().ok());
  ASSERT_TRUE(AwaitTrue([&] { return sink->size() >= 20; }));

  // Several full barrier rounds over 2 sources + 4 keyed + 1 sink tasks,
  // all multiplexed on a single worker.
  std::vector<uint64_t> cps;
  for (int round = 0; round < 3; ++round) {
    const uint64_t cp = (*job)->TriggerCheckpoint();
    ASSERT_TRUE((*job)->AwaitCheckpoint(cp, 20.0)) << "round " << round;
    cps.push_back(cp);
  }
  (*job)->Cancel();
  ASSERT_TRUE((*job)->AwaitCompletion().ok());

  // Barriers stay totally ordered per channel: sink offsets are
  // well-defined and non-decreasing in checkpoint id.
  int64_t prev = -1;
  for (uint64_t cp : cps) {
    const int64_t off = sink->BarrierOffset(cp);
    ASSERT_GE(off, 0) << "checkpoint " << cp << " never passed the sink";
    EXPECT_GE(off, prev);
    prev = off;
  }
}

TEST(SchedulerJobTest, PeriodicCheckpointsCompleteUnderScheduler) {
  std::atomic<bool> stop{false};
  Environment env(2);
  auto sink = env.FromGenerator(
                     "unbounded",
                     [&stop](uint64_t seq) -> std::optional<Record> {
                       if (stop.load(std::memory_order_acquire)) {
                         return std::nullopt;
                       }
                       return KeyedValue(seq);
                     })
                  .KeyBy(0)
                  .Window(std::make_shared<TumblingWindowFn>(64))
                  .Aggregate(DynAggKind::kSum, 1)
                  .Rebalance(1)
                  .Collect();

  JobOptions options;
  options.worker_threads = 1;
  options.checkpoint_interval_ms = 2;
  options.snapshot_store = std::make_shared<SnapshotStore>();
  auto job = env.CreateJob(options);
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  ASSERT_TRUE((*job)->Start().ok());
  // The pool timer drives the cadence; several checkpoints must complete
  // while the job streams.
  ASSERT_TRUE(AwaitTrue(
      [&] { return options.snapshot_store->CheckpointIds().size() >= 3; }));
  stop.store(true, std::memory_order_release);
  ASSERT_TRUE((*job)->AwaitCompletion().ok());
}

// ---------------------------------------------------------------------------
// Worker-count equivalence: byte-identical output at every pool size.

std::vector<Record> TestInput(size_t n, uint32_t seed, int64_t num_keys) {
  std::mt19937 rng(seed);
  std::vector<Record> records;
  records.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const int64_t key = static_cast<int64_t>(rng() % num_keys);
    const int64_t val = static_cast<int64_t>(rng() % 101) - 50;
    records.push_back(MakeRecord(static_cast<Timestamp>(i), Value(key),
                                 Value(val)));
  }
  return records;
}

using PipelineFn = std::function<std::shared_ptr<CollectSink>(Environment&)>;

std::vector<Record> RunWithOptions(const PipelineFn& build,
                                   const JobOptions& options,
                                   int parallelism = 1) {
  Environment env(parallelism);
  std::shared_ptr<CollectSink> sink = build(env);
  const Status status = env.Execute(options);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return sink->records();
}

void ExpectIdenticalOutput(const std::vector<Record>& want,
                           const std::vector<Record>& got,
                           const std::string& label) {
  ASSERT_EQ(want.size(), got.size()) << label;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].timestamp, got[i].timestamp) << "record " << i << " "
                                                   << label;
    EXPECT_EQ(want[i].key_hash, got[i].key_hash) << "record " << i << " "
                                                 << label;
    ASSERT_TRUE(want[i].fields == got[i].fields)
        << "record " << i << " " << label << "\n  want " << want[i].ToString()
        << "\n  got  " << got[i].ToString();
  }
}

// Worker counts compared against the one-worker baseline; 0 is the default
// (hardware_concurrency) pool.
constexpr size_t kComparedWorkerCounts[] = {2, 4, 0};

// Baseline = one worker, where every morsel runs on a single thread; output
// must match it byte for byte at every other worker count.
void ExpectWorkerCountInvariant(const PipelineFn& build, int parallelism = 1) {
  JobOptions baseline_options;
  baseline_options.worker_threads = 1;
  const std::vector<Record> baseline =
      RunWithOptions(build, baseline_options, parallelism);
  EXPECT_FALSE(baseline.empty());
  for (size_t workers : kComparedWorkerCounts) {
    JobOptions options;
    options.worker_threads = workers;
    ExpectIdenticalOutput(baseline, RunWithOptions(build, options, parallelism),
                          "workers=" + std::to_string(workers));
  }
}

TEST(SchedulerEquivalenceTest, MapFilterFlatMapChain) {
  ExpectWorkerCountInvariant([](Environment& env) {
    return env.FromRecords(TestInput(5'000, 21, 64))
        .Map([](Record&& r) {
          r.fields[1] = Value(r.field(1).AsInt64() * 3);
          return std::move(r);
        })
        .Filter([](const Record& r) { return r.field(1).AsInt64() % 5 != 0; })
        .FlatMap([](Record&& r, Collector* out) {
          if (r.field(0).AsInt64() % 6 == 0) out->Emit(Record(r));
          out->Emit(std::move(r));
        })
        .Collect();
  });
}

TEST(SchedulerEquivalenceTest, KeyedReduceOverHashEdge) {
  ExpectWorkerCountInvariant([](Environment& env) {
    return env.FromRecords(TestInput(5'000, 22, 32))
        .KeyBy(0)
        .Reduce([](const Record& acc, const Record& next) {
          return MakeRecord(acc.timestamp, acc.field(0),
                            Value(acc.field(1).AsInt64() +
                                  next.field(1).AsInt64()));
        })
        .Collect();
  });
}

TEST(SchedulerEquivalenceTest, ParallelWindowedAggregate) {
  // Keyed subtasks run at parallelism 4 and their outputs interleave at
  // the rebalanced sink, so compare as a sorted multiset; the per-key
  // window sums themselves must be identical at every worker count.
  const PipelineFn build = [](Environment& env) {
    DataStream left = env.FromRecords(TestInput(2'000, 23, 16), "left");
    DataStream right = env.FromRecords(TestInput(2'000, 24, 16), "right");
    return left.Union(right)
        .KeyBy(0)
        .Window(std::make_shared<TumblingWindowFn>(1'000'000))
        .Aggregate(DynAggKind::kSum, 1)
        .Rebalance(1)
        .Collect();
  };
  const auto normalize = [](std::vector<Record> records) {
    std::sort(records.begin(), records.end(),
              [](const Record& a, const Record& b) {
                return a.ToString() < b.ToString();
              });
    return records;
  };

  JobOptions baseline_options;
  baseline_options.worker_threads = 1;
  const std::vector<Record> baseline =
      normalize(RunWithOptions(build, baseline_options, 4));
  EXPECT_FALSE(baseline.empty());
  for (size_t workers : kComparedWorkerCounts) {
    JobOptions options;
    options.worker_threads = workers;
    ExpectIdenticalOutput(baseline,
                          normalize(RunWithOptions(build, options, 4)),
                          "workers=" + std::to_string(workers));
  }
}

// ---------------------------------------------------------------------------
// Equivalence across checkpoint/restart.

struct Gate {
  std::mutex mu;
  std::condition_variable cv;
  uint64_t allowed = 0;

  void Allow(uint64_t upto) {
    {
      std::lock_guard<std::mutex> lock(mu);
      allowed = std::max(allowed, upto);
    }
    cv.notify_all();
  }
};

// Emits records only as far as the gate allows (kIdle otherwise), with a
// checkpointable read position.
class GatedSource : public SourceFunction {
 public:
  GatedSource(Gate* gate, uint64_t total) : gate_(gate), total_(total) {}

  Result<SourcePoll> Poll(SourceContext* ctx) override {
    if (pos_ >= total_) return SourcePoll::kExhausted;
    {
      std::lock_guard<std::mutex> lock(gate_->mu);
      if (gate_->allowed <= pos_) return SourcePoll::kIdle;
    }
    Record r = KeyedValue(pos_);
    const Timestamp ts = r.timestamp;
    if (!ctx->Emit(std::move(r))) return SourcePoll::kExhausted;
    ++pos_;
    ctx->EmitWatermark(ts);
    return SourcePoll::kHasMore;
  }

  Status SnapshotState(BinaryWriter* w) const override {
    w->WriteU64(pos_);
    return Status::Ok();
  }
  Status RestoreState(BinaryReader* r) override {
    auto pos = r->ReadU64();
    if (!pos.ok()) return pos.status();
    pos_ = *pos;
    return Status::Ok();
  }
  std::string Name() const override { return "gated"; }

 private:
  Gate* gate_;
  uint64_t total_;
  uint64_t pos_ = 0;
};

std::shared_ptr<CollectSink> BuildGatedReduce(Environment* env, Gate* gate,
                                              uint64_t total) {
  auto src = env->FromSource(
      "gated",
      [gate, total](int, int) -> std::unique_ptr<SourceFunction> {
        return std::make_unique<GatedSource>(gate, total);
      },
      1);
  return src.KeyBy(0)
      .Reduce([](const Record& acc, const Record& in) {
        Record out = acc;
        out.fields[1] = Value(acc.field(1).AsInt64() + in.field(1).AsInt64());
        return out;
      })
      .Collect();
}

// Runs the gated pipeline on `workers` workers: checkpoint at kCut, keep
// emitting, "crash" (cancel), then restore a second job from the
// checkpoint and run to completion. Returns pre-barrier outputs +
// restored-run outputs.
std::vector<Record> RunWithCrashAndRestore(size_t workers) {
  constexpr uint64_t kTotal = 400;
  constexpr uint64_t kCut = 150;
  auto store = std::make_shared<SnapshotStore>();
  uint64_t cp = 0;

  std::vector<Record> combined;
  {
    Gate gate;
    Environment env;
    auto sink = BuildGatedReduce(&env, &gate, kTotal);
    JobOptions options;
    options.worker_threads = workers;
    options.snapshot_store = store;
    auto job = env.CreateJob(options);
    EXPECT_TRUE(job.ok());
    if (!job.ok()) return combined;
    EXPECT_TRUE((*job)->Start().ok());
    gate.Allow(kCut);
    AwaitTrue([&] { return sink->size() >= kCut; });
    cp = (*job)->TriggerCheckpoint();
    gate.Allow(kCut + 100);  // emit past the checkpoint, then crash
    EXPECT_TRUE((*job)->AwaitCheckpoint(cp, 20.0));
    AwaitTrue([&] { return sink->size() >= kCut + 100; });
    (*job)->Cancel();
    EXPECT_TRUE((*job)->AwaitCompletion().ok());
    const int64_t offset = sink->BarrierOffset(cp);
    EXPECT_EQ(offset, static_cast<int64_t>(kCut));
    auto all = sink->records();
    combined.assign(all.begin(), all.begin() + offset);
  }
  {
    Gate gate;
    gate.Allow(kTotal);
    Environment env;
    auto sink = BuildGatedReduce(&env, &gate, kTotal);
    JobOptions options;
    options.worker_threads = workers;
    options.snapshot_store = store;
    options.restore_from_checkpoint = cp;
    auto job = env.CreateJob(options);
    EXPECT_TRUE(job.ok());
    if (!job.ok()) return combined;
    EXPECT_TRUE((*job)->Run().ok());
    auto rest = sink->records();
    combined.insert(combined.end(), rest.begin(), rest.end());
  }
  return combined;
}

TEST(SchedulerEquivalenceTest, CheckpointRestartMatchesAcrossModes) {
  // Reference: uninterrupted one-worker run.
  std::vector<Record> reference;
  {
    Gate gate;
    gate.Allow(400);
    Environment env;
    auto sink = BuildGatedReduce(&env, &gate, 400);
    JobOptions options;
    options.worker_threads = 1;
    ASSERT_TRUE(env.Execute(options).ok());
    reference = sink->records();
    ASSERT_EQ(reference.size(), 400u);
  }

  for (size_t workers : {1u, 2u}) {
    ExpectIdenticalOutput(reference, RunWithCrashAndRestore(workers),
                          "crash+restore workers=" + std::to_string(workers));
  }
}

}  // namespace
}  // namespace streamline
