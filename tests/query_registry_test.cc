// Multi-tenant standing queries: attach/detach through the QueryRegistry on
// a *running* job (no restart), the factoring rewrite, per-query result
// routing, slice garbage collection on detach, and checkpoint/restore of
// the dynamic-query table under injected crashes.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <set>
#include <thread>
#include <tuple>
#include <vector>

#include "api/datastream.h"
#include "common/fault_injection.h"
#include "dataflow/query_registry.h"

namespace streamline {
namespace {

constexpr int64_t kKeys = 3;
constexpr int64_t kWindow = 50;

/// Deterministic checkpointable source: record i has ts = i, key = i % kKeys
/// and value = double(i % 7) (integer-valued, so sums are exact and window
/// results are byte-comparable across independent fold orders). Emits a
/// watermark per record and sleeps periodically so a test thread can attach
/// queries mid-stream.
class PacedSource : public SourceFunction {
 public:
  /// With a gate, the source stalls at record `gate_at` until the gate is
  /// set -- lets a test pin "attach happened with this much stream left"
  /// without racing the attach against stream completion.
  PacedSource(uint64_t total, uint64_t sleep_every,
              std::shared_ptr<std::atomic<bool>> gate = nullptr,
              uint64_t gate_at = 0)
      : total_(total), sleep_every_(sleep_every), gate_(std::move(gate)),
        gate_at_(gate_at) {}

  Result<SourcePoll> Poll(SourceContext* ctx) override {
    if (pos_ >= total_) return SourcePoll::kExhausted;
    if (gate_ != nullptr && pos_ == gate_at_ && !gate_->load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      return SourcePoll::kHasMore;
    }
    Record r = MakeRecord(static_cast<Timestamp>(pos_),
                          Value(static_cast<int64_t>(pos_ % kKeys)),
                          Value(static_cast<double>(pos_ % 7)));
    const Timestamp ts = r.timestamp;
    if (!ctx->Emit(std::move(r))) return SourcePoll::kExhausted;
    ++pos_;
    ctx->EmitWatermark(ts);
    if (sleep_every_ > 0 && pos_ % sleep_every_ == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return pos_ < total_ ? SourcePoll::kHasMore : SourcePoll::kExhausted;
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
  std::string Name() const override { return "paced"; }

 private:
  uint64_t total_;
  uint64_t sleep_every_;
  std::shared_ptr<std::atomic<bool>> gate_;
  uint64_t gate_at_;
  uint64_t pos_ = 0;
};

/// Builds source -> keyed window agg (spec tumbling kWindow + registry) ->
/// CollectSink and returns the sink.
std::shared_ptr<CollectSink> BuildRegistryJob(
    Environment* env, std::shared_ptr<QueryRegistry> registry, uint64_t total,
    uint64_t sleep_every,
    std::shared_ptr<std::atomic<bool>> gate = nullptr, uint64_t gate_at = 0) {
  auto sink = std::make_shared<CollectSink>();
  env->FromSource("gen",
                  [total, sleep_every, gate, gate_at](int, int)
                      -> std::unique_ptr<SourceFunction> {
                    return std::make_unique<PacedSource>(total, sleep_every,
                                                         gate, gate_at);
                  },
                  1)
      .KeyBy(0)
      .Window(std::make_shared<TumblingWindowFn>(kWindow))
      .WithRegistry(std::move(registry))
      .Aggregate(DynAggKind::kSum, 1, WindowBackend::kShared, "agg")
      .Sink(sink, "sink");
  return sink;
}

// (key, window_start) -> result, for one query id's records.
std::map<std::pair<int64_t, int64_t>, double> WindowsOf(
    const std::vector<Record>& records, int64_t query_id) {
  std::map<std::pair<int64_t, int64_t>, double> out;
  for (const Record& r : records) {
    if (r.field(3).AsInt64() != query_id) continue;
    auto [it, inserted] = out.try_emplace(
        {r.field(0).AsInt64(), r.field(1).AsInt64()}, r.field(4).AsDouble());
    EXPECT_TRUE(inserted) << "duplicate window (key=" << r.field(0).AsInt64()
                          << ", start=" << r.field(1).AsInt64()
                          << ") for query " << query_id;
  }
  return out;
}

/// Spins until the sink holds at least `n` records (the job is visibly
/// processing) or the deadline passes.
bool AwaitSinkSize(const CollectSink& sink, size_t n,
                   std::chrono::seconds timeout = std::chrono::seconds(30)) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (sink.size() < n) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

// ---------------------------------------------------------------------------
// Attach on a running job: shared splice + backfill byte-identity.

TEST(QueryRegistryTest, AttachedLateQueryMatchesSpecQueryByteForByte) {
  auto registry = std::make_shared<QueryRegistry>();
  auto gate = std::make_shared<std::atomic<bool>>(false);
  Environment env;
  auto sink = BuildRegistryJob(&env, registry, /*total=*/40000,
                               /*sleep_every=*/200, gate, /*gate_at=*/20000);
  auto job = env.CreateJob();
  ASSERT_TRUE(job.ok());
  ASSERT_TRUE((*job)->Start().ok());

  // Wait until the job has demonstrably produced output, then attach the
  // same window shape as the spec query -- while records keep flowing. The
  // gate guarantees at least half the stream arrives after the attach.
  ASSERT_TRUE(AwaitSinkSize(*sink, 60));
  const uint64_t id = registry->AttachTumbling(kWindow);
  gate->store(true);
  EXPECT_TRUE(registry->WaitQueryApplied(id, std::chrono::seconds(30)));
  // Concurrent progress: the attach went live without stopping the
  // pipeline, which keeps producing afterwards.
  const size_t at_attach = sink->size();
  ASSERT_TRUE((*job)->AwaitCompletion().ok());
  EXPECT_GT(sink->size(), at_attach);

  const auto records = sink->records();
  const auto spec = WindowsOf(records, 0);
  const auto late = WindowsOf(records, static_cast<int64_t>(id));
  EXPECT_EQ(spec.size(), static_cast<size_t>(kKeys * (40000 / kWindow)));
  // The late query serves only windows from its attach point on, but every
  // window it serves is complete: byte-identical to the from-start query.
  ASSERT_GE(late.size(), 1u) << "attached query never fired";
  EXPECT_LT(late.size(), spec.size()) << "attach happened after start";
  for (const auto& [kw, v] : late) {
    auto it = spec.find(kw);
    ASSERT_NE(it, spec.end()) << "late query emitted unknown window start="
                              << kw.second;
    EXPECT_EQ(it->second, v) << "window (key=" << kw.first
                             << ", start=" << kw.second << ") diverged";
  }
  EXPECT_EQ(registry->stats().active_queries, 1u);
  EXPECT_EQ(registry->stats().attaches, 1u);
}

// ---------------------------------------------------------------------------
// Detach: slice GC observable through registry metrics.

TEST(QueryRegistryTest, DetachGarbageCollectsSlicesAndUpdatesGauges) {
  auto registry = std::make_shared<QueryRegistry>();
  auto gate = std::make_shared<std::atomic<bool>>(false);
  Environment env;
  auto sink = BuildRegistryJob(&env, registry, /*total=*/60000,
                               /*sleep_every=*/200, gate, /*gate_at=*/30000);
  auto job = env.CreateJob();
  ASSERT_TRUE(job.ok());
  ASSERT_TRUE((*job)->Start().ok());
  MetricsRegistry* metrics = (*job)->metrics();

  ASSERT_TRUE(AwaitSinkSize(*sink, 60));
  // Long range, aligned slide: pins ~range/kWindow slices per key that the
  // spec tumbling query alone would have evicted right after firing.
  const uint64_t id = registry->AttachSliding(/*range=*/4000, kWindow);
  gate->store(true);
  ASSERT_TRUE(registry->WaitQueryApplied(id, std::chrono::seconds(30)));
  EXPECT_EQ(metrics->GetGauge("registry.queries")->value(), 1.0);

  // Let the long-range query accumulate pinned slices.
  const size_t before_detach = sink->size();
  ASSERT_TRUE(AwaitSinkSize(*sink, before_detach + 120));
  EXPECT_GT(metrics->GetGauge("registry.slices_shared")->value(), 0.0);

  ASSERT_TRUE(registry->Detach(id).ok());
  ASSERT_TRUE(registry->WaitQueryApplied(id, std::chrono::seconds(30)));
  // The detach's application freed the slices only this query pinned; the
  // worker reported them in the same ack WaitQueryApplied waited on.
  EXPECT_GT(metrics->GetCounter("registry.slices_gc")->value(), 0u);
  EXPECT_EQ(metrics->GetGauge("registry.queries")->value(), 0.0);
  EXPECT_EQ(registry->stats().active_queries, 0u);
  EXPECT_EQ(registry->stats().detaches, 1u);

  (*job)->Cancel();
  ASSERT_TRUE((*job)->AwaitCompletion().ok());
  // Double detach is rejected.
  EXPECT_EQ(registry->Detach(id).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(registry->Detach(id + 999).code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// Fine-grained shapes share the slice store; factoring windows add no cuts.

TEST(QueryRegistryTest, FineGrainedLateAttachServesExactGaplessWindows) {
  // Slide 2 with range 4 cuts the shared store at every other record, far
  // finer than the spec query's tumbling grid it shares the store with.
  static constexpr int64_t kTotal = 40000;
  static constexpr int64_t kRange = 4;
  static constexpr int64_t kSlide = 2;
  auto registry = std::make_shared<QueryRegistry>();
  auto gate = std::make_shared<std::atomic<bool>>(false);
  Environment env;
  auto sink = BuildRegistryJob(&env, registry, kTotal, /*sleep_every=*/200,
                               gate, /*gate_at=*/kTotal / 2);
  auto job = env.CreateJob();
  ASSERT_TRUE(job.ok());
  ASSERT_TRUE((*job)->Start().ok());

  ASSERT_TRUE(AwaitSinkSize(*sink, 60));
  const uint64_t id = registry->AttachSliding(kRange, kSlide);
  gate->store(true);
  ASSERT_TRUE(registry->WaitQueryApplied(id, std::chrono::seconds(30)));
  ASSERT_TRUE((*job)->AwaitCompletion().ok());

  const auto windows = WindowsOf(sink->records(), static_cast<int64_t>(id));
  ASSERT_GE(windows.size(), 1u) << "attached query never fired";
  // Every served window holds exactly PacedSource's records of its key.
  for (const auto& [kw, v] : windows) {
    double expect = 0;
    for (int64_t t = std::max<int64_t>(kw.second, 0);
         t < std::min(kw.second + kRange, kTotal); ++t) {
      if (t % kKeys == kw.first) expect += static_cast<double>(t % 7);
    }
    EXPECT_EQ(v, expect) << "window (key=" << kw.first
                         << ", start=" << kw.second << ") diverged";
  }
  // Per key, the served window starts step by one slide from the first
  // served window through the last window holding one of the key's records.
  for (int64_t key = 0; key < kKeys; ++key) {
    std::vector<int64_t> starts;
    for (const auto& [kw, v] : windows) {
      if (kw.first == key) starts.push_back(kw.second);
    }
    ASSERT_FALSE(starts.empty()) << "key " << key << " never served";
    EXPECT_GT(starts.front(), 0) << "attach happened after start";
    for (size_t i = 1; i < starts.size(); ++i) {
      EXPECT_EQ(starts[i] - starts[i - 1], kSlide)
          << "gap after window start=" << starts[i - 1] << " of key " << key;
    }
    int64_t last_ts = kTotal - 1;
    while (last_ts % kKeys != key) --last_ts;
    EXPECT_EQ(starts.back(), last_ts - last_ts % kSlide)
        << "windows of key " << key << " stop before the end of the stream";
  }
}

TEST(QueryRegistryTest, FactoringWindowCountsAsSharedRewrite) {
  QueryRegistry reg;
  (void)reg.AttachSliding(100, 10);
  EXPECT_EQ(reg.stats().rewrites_shared, 0u);
  // Begin grid of tumbling(100) at origin 0 is a subset of sliding(100,10)'s
  // cuts: attach rewrites to pure sharing, zero new slice boundaries.
  (void)reg.AttachTumbling(100);
  EXPECT_EQ(reg.stats().rewrites_shared, 1u);
  // Misaligned origin: begins fall between existing cuts -> not a rewrite.
  (void)reg.AttachTumbling(100, /*origin=*/3);
  EXPECT_EQ(reg.stats().rewrites_shared, 1u);
}

// ---------------------------------------------------------------------------
// Per-query result routing through the demux sink.

TEST(QueryRegistryTest, DemuxSinkRoutesResultsToPerQueryHandlers) {
  auto registry = std::make_shared<QueryRegistry>();
  std::atomic<uint64_t> spec_results{0};
  registry->SetDefaultHandler(
      [&spec_results](const Record&) { ++spec_results; });

  auto gate = std::make_shared<std::atomic<bool>>(false);
  Environment env;
  env.FromSource("gen",
                 [gate](int, int) -> std::unique_ptr<SourceFunction> {
                   return std::make_unique<PacedSource>(40000, 200, gate,
                                                        20000);
                 },
                 1)
      .KeyBy(0)
      .Window(std::make_shared<TumblingWindowFn>(kWindow))
      .WithRegistry(registry)
      .Aggregate(DynAggKind::kSum, 1, WindowBackend::kShared, "agg")
      .Sink(std::make_shared<QueryDemuxSink>(registry), "demux");
  auto job = env.CreateJob();
  ASSERT_TRUE(job.ok());
  ASSERT_TRUE((*job)->Start().ok());

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (spec_results.load() < 60 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  ASSERT_GE(spec_results.load(), 60u);

  std::atomic<uint64_t> my_results{0};
  std::atomic<bool> mistagged{false};
  uint64_t id = 0;
  id = registry->AttachTumbling(
      kWindow, 0, [&my_results, &mistagged, &id](const Record& r) {
        ++my_results;
        if (r.field(3).AsInt64() != static_cast<int64_t>(id)) {
          mistagged = true;
        }
      });
  gate->store(true);
  ASSERT_TRUE(registry->WaitQueryApplied(id, std::chrono::seconds(30)));
  ASSERT_TRUE((*job)->AwaitCompletion().ok());

  EXPECT_GE(my_results.load(), 1u);
  EXPECT_FALSE(mistagged.load());
  EXPECT_EQ(registry->ResultCount(id), my_results.load());
  EXPECT_GT(spec_results.load(), my_results.load());
}

// ---------------------------------------------------------------------------
// Checkpoint/restore: the dynamic-query table survives injected crashes.

TEST(QueryRegistryTest, RegistryQueriesSurviveChaosRecovery) {
  static constexpr uint64_t kTotal = 2000;
  // Fault-free reference: same job, same pre-attached registry query.
  auto RunOnce = [](bool inject_fault, SupervisionStats* stats,
                    uint64_t* dyn_id) {
    auto registry = std::make_shared<QueryRegistry>();
    *dyn_id = registry->AttachTumbling(kWindow);
    Environment env;
    auto sink = std::make_shared<TransactionalCollectSink>();
    env.FromSource("gen",
                   [](int, int) -> std::unique_ptr<SourceFunction> {
                     return std::make_unique<PacedSource>(kTotal, 100);
                   },
                   1)
        .KeyBy(0)
        .Window(std::make_shared<TumblingWindowFn>(kWindow))
        .WithRegistry(registry)
        .Aggregate(DynAggKind::kSum, 1, WindowBackend::kShared, "agg")
        .Sink(sink, "sink");
    JobOptions opts;
    opts.checkpoint_interval_ms = 2;
    if (inject_fault) {
      auto injector = std::make_shared<FaultInjector>();
      injector->AddRule(FaultInjector::FailAtHit("op:agg", 900));
      opts.fault_injector = injector;
    }
    RestartPolicy policy;
    policy.max_restarts = 5;
    policy.initial_backoff_ms = 1;
    EXPECT_TRUE(env.ExecuteSupervised(opts, policy, stats).ok());
    sink->OnBarrier(9999);  // commit the tail
    return sink->committed();
  };

  SupervisionStats ref_stats;
  uint64_t ref_id = 0;
  const auto ref = RunOnce(false, &ref_stats, &ref_id);
  SupervisionStats chaos_stats;
  uint64_t chaos_id = 0;
  const auto got = RunOnce(true, &chaos_stats, &chaos_id);
  ASSERT_GE(chaos_stats.restarts, 1) << "fault never fired";
  ASSERT_EQ(ref_id, chaos_id);

  // Spec query: exactly the fault-free window set and values.
  const auto ref_spec = WindowsOf(ref, 0);
  const auto got_spec = WindowsOf(got, 0);
  EXPECT_EQ(got_spec, ref_spec);
  EXPECT_EQ(ref_spec.size(), static_cast<size_t>(kKeys * (kTotal / kWindow)));

  // Dynamic query: every committed window is exactly-once (WindowsOf
  // asserts) and carries the correct sum; which windows it covers may
  // legitimately shift with where the attach landed in each run.
  const auto got_dyn = WindowsOf(got, static_cast<int64_t>(chaos_id));
  ASSERT_GE(got_dyn.size(), 1u) << "attached query never fired under chaos";
  for (const auto& [kw, v] : got_dyn) {
    double expect = 0;
    for (int64_t t = kw.second; t < kw.second + kWindow; ++t) {
      if (t >= 0 && t < static_cast<int64_t>(kTotal) && t % kKeys == kw.first) {
        expect += static_cast<double>(t % 7);
      }
    }
    EXPECT_EQ(v, expect) << "window (key=" << kw.first
                         << ", start=" << kw.second << ") wrong under chaos";
  }
}

}  // namespace
}  // namespace streamline
