// Batch-at-a-time execution must be invisible: for every built-in operator
// and pipeline shape, running the same input with batch_size = 1 (batches
// of one record) and with larger batch sizes must produce identical sink
// output -- same records, same order, same
// timestamps, same stamped key hashes -- with watermarks and barriers never
// reordered relative to the records batched around them. Also holds the
// regression test for the FieldVec self-range insert fix.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "api/datastream.h"

namespace streamline {
namespace {

// ---------------------------------------------------------------------------
// FieldVec self-range insert regression (satellite fix).

TEST(FieldVecInsertTest, SelfInsertSurvivesReallocation) {
  // Fill to exactly the inline capacity so inserting the own range forces a
  // reallocation while first/last point into the old buffer.
  FieldVec v;
  for (int64_t i = 0; i < 4; ++i) v.push_back(Value(i));
  ASSERT_EQ(v.capacity(), v.size());
  v.insert(v.end(), v.begin(), v.end());
  ASSERT_EQ(v.size(), 8u);
  for (int64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(v[static_cast<size_t>(i)].AsInt64(), i);
    EXPECT_EQ(v[static_cast<size_t>(i) + 4].AsInt64(), i);
  }
}

TEST(FieldVecInsertTest, SelfInsertBeforeSourceRangeWithoutReallocation) {
  // Capacity is ample, but the shift moves the source range before it is
  // read: insert [2,4) at the front must copy the original values.
  FieldVec v;
  v.reserve(16);
  for (int64_t i = 0; i < 4; ++i) v.push_back(Value(i));
  v.insert(v.begin(), v.begin() + 2, v.end());
  ASSERT_EQ(v.size(), 6u);
  const int64_t want[] = {2, 3, 0, 1, 2, 3};
  for (size_t i = 0; i < 6; ++i) EXPECT_EQ(v[i].AsInt64(), want[i]);
}

TEST(FieldVecInsertTest, SelfInsertStringPayloads) {
  FieldVec v;
  v.push_back(Value(std::string("alpha")));
  v.push_back(Value(std::string("beta")));
  v.push_back(Value(std::string("gamma")));
  v.push_back(Value(std::string("delta")));
  v.insert(v.begin() + 1, v.begin(), v.end());
  ASSERT_EQ(v.size(), 8u);
  EXPECT_EQ(v[0].AsString(), "alpha");
  EXPECT_EQ(v[1].AsString(), "alpha");
  EXPECT_EQ(v[2].AsString(), "beta");
  EXPECT_EQ(v[3].AsString(), "gamma");
  EXPECT_EQ(v[4].AsString(), "delta");
  EXPECT_EQ(v[5].AsString(), "beta");
}

TEST(FieldVecInsertTest, ForeignRangeStillWorks) {
  FieldVec v{Value(int64_t{1}), Value(int64_t{4})};
  const Value mid[] = {Value(int64_t{2}), Value(int64_t{3})};
  v.insert(v.begin() + 1, mid, mid + 2);
  ASSERT_EQ(v.size(), 4u);
  for (int64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(v[static_cast<size_t>(i)].AsInt64(), i + 1);
  }
}

// ---------------------------------------------------------------------------
// Operator equivalence harness.

// Deterministic pseudo-random input: keys with skew, values, and mild
// timestamp disorder (bounded by what the source's watermark cadence
// tolerates: timestamps are non-decreasing per source here, since sources
// derive watermarks from emitted timestamps).
std::vector<Record> TestInput(size_t n, uint32_t seed, int64_t num_keys) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int64_t> key(0, num_keys - 1);
  std::uniform_int_distribution<int64_t> val(-50, 50);
  std::vector<Record> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(MakeRecord(static_cast<Timestamp>(i), Value(key(rng)),
                             Value(val(rng))));
  }
  return out;
}

// Builds a pipeline on `env` and returns its CollectSink.
using PipelineFn =
    std::function<std::shared_ptr<CollectSink>(Environment& env)>;

std::vector<Record> RunWithBatchSize(const PipelineFn& build,
                                     size_t batch_size) {
  Environment env;
  std::shared_ptr<CollectSink> sink = build(env);
  JobOptions options;
  options.batch_size = batch_size;
  Status st = env.Execute(options);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return sink->records();
}

// Asserts byte-level equivalence of the visible record contents: timestamp,
// fields, and the stamped key hash (routing metadata the batch path must
// reproduce exactly).
void ExpectIdenticalOutput(const std::vector<Record>& want,
                           const std::vector<Record>& got, size_t batch_size) {
  ASSERT_EQ(want.size(), got.size()) << "batch_size=" << batch_size;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].timestamp, got[i].timestamp)
        << "record " << i << " batch_size=" << batch_size;
    EXPECT_EQ(want[i].key_hash, got[i].key_hash)
        << "record " << i << " batch_size=" << batch_size;
    ASSERT_TRUE(want[i].fields == got[i].fields)
        << "record " << i << " batch_size=" << batch_size << "\n  want "
        << want[i].ToString() << "\n  got  " << got[i].ToString();
  }
}

void ExpectBatchInvariant(const PipelineFn& build) {
  const std::vector<Record> baseline = RunWithBatchSize(build, 1);
  EXPECT_FALSE(baseline.empty());
  for (size_t batch_size : {2u, 16u, 256u, 1024u}) {
    ExpectIdenticalOutput(baseline, RunWithBatchSize(build, batch_size),
                          batch_size);
  }
}

TEST(BatchEquivalenceTest, MapFilterFlatMapChain) {
  ExpectBatchInvariant([](Environment& env) {
    return env.FromRecords(TestInput(5'000, 11, 64))
        .Map([](Record&& r) {
          r.fields[1] = Value(r.field(1).AsInt64() * 2);
          return std::move(r);
        })
        .Filter([](const Record& r) { return r.field(1).AsInt64() % 4 != 0; })
        .FlatMap([](Record&& r, Collector* out) {
          // 0, 1 or 2 outputs per input, derived from record content.
          const int64_t k = r.field(0).AsInt64();
          if (k % 7 == 0) return;
          if (k % 3 == 0) out->Emit(Record(r));
          out->Emit(std::move(r));
        })
        .Collect();
  });
}

TEST(BatchEquivalenceTest, MapAcrossRealChannel) {
  // Rebalance(1) breaks chaining: the batch crosses an SPSC channel and is
  // re-dispatched on the consumer, exercising Dispatch's DeliverBatch.
  ExpectBatchInvariant([](Environment& env) {
    return env.FromRecords(TestInput(5'000, 12, 64))
        .Map([](Record&& r) {
          r.fields[1] = Value(r.field(1).AsInt64() + 1);
          return std::move(r);
        })
        .Rebalance(1)
        .Filter([](const Record& r) { return r.field(1).AsInt64() % 2 == 0; })
        .Collect();
  });
}

TEST(BatchEquivalenceTest, KeyedReduceOverHashEdge) {
  ExpectBatchInvariant([](Environment& env) {
    return env.FromRecords(TestInput(5'000, 13, 32))
        .KeyBy(0)
        .Reduce([](const Record& acc, const Record& next) {
          return MakeRecord(acc.timestamp, acc.field(0),
                            Value(acc.field(1).AsInt64() +
                                  next.field(1).AsInt64()));
        })
        .Collect();
  });
}

TEST(BatchEquivalenceTest, KeyedReduceHighCardinality) {
  // More keys than any batch holds: the per-batch key cache misses often,
  // and repeated keys within one batch hit it.
  ExpectBatchInvariant([](Environment& env) {
    return env.FromRecords(TestInput(4'000, 14, 1'000))
        .KeyBy(0)
        .Reduce([](const Record& acc, const Record& next) {
          return MakeRecord(acc.timestamp, acc.field(0),
                            Value(std::max(acc.field(1).AsInt64(),
                                           next.field(1).AsInt64())));
        })
        .Collect();
  });
}

TEST(BatchEquivalenceTest, UnionOfTwoSources) {
  // Two concurrent sources race, so emit order is nondeterministic even at
  // batch_size = 1; compare the windowed per-key aggregates as a multiset
  // (one huge window fired by the final watermark -- integer sums, so the
  // per-key results are interleaving-independent).
  const PipelineFn build = [](Environment& env) {
    DataStream left = env.FromRecords(TestInput(2'000, 15, 16), "left");
    DataStream right = env.FromRecords(TestInput(2'000, 16, 16), "right");
    return left.Union(right)
        .KeyBy(0)
        .Window(std::make_shared<TumblingWindowFn>(1'000'000))
        .Aggregate(DynAggKind::kSum, 1)
        .Collect();
  };
  const auto normalize = [](std::vector<Record> records) {
    std::sort(records.begin(), records.end(),
              [](const Record& a, const Record& b) {
                return a.ToString() < b.ToString();
              });
    return records;
  };
  const std::vector<Record> baseline = normalize(RunWithBatchSize(build, 1));
  EXPECT_FALSE(baseline.empty());
  for (size_t batch_size : {16u, 256u}) {
    ExpectIdenticalOutput(
        baseline, normalize(RunWithBatchSize(build, batch_size)), batch_size);
  }
}

TEST(BatchEquivalenceTest, SharedWindowAggregates) {
  for (DynAggKind kind : {DynAggKind::kSum, DynAggKind::kCount,
                          DynAggKind::kMin, DynAggKind::kMax,
                          DynAggKind::kAvg, DynAggKind::kVariance}) {
    ExpectBatchInvariant([kind](Environment& env) {
      return env.FromRecords(TestInput(4'000, 17, 8))
          .KeyBy(0)
          .Window(std::make_shared<SlidingWindowFn>(200, 80))
          .Aggregate(kind, 1, WindowBackend::kShared)
          .Collect();
    });
  }
}

TEST(BatchEquivalenceTest, EagerWindowAggregates) {
  for (DynAggKind kind : {DynAggKind::kSum, DynAggKind::kMin}) {
    ExpectBatchInvariant([kind](Environment& env) {
      return env.FromRecords(TestInput(3'000, 18, 8))
          .KeyBy(0)
          .Window(std::make_shared<SlidingWindowFn>(150, 50))
          .Aggregate(kind, 1, WindowBackend::kEager)
          .Collect();
    });
  }
}

TEST(BatchEquivalenceTest, GlobalWindowAll) {
  // Null key selector: the whole stream under one synthetic key, the case
  // where the window operator sees one maximal same-key run per watermark.
  ExpectBatchInvariant([](Environment& env) {
    return env.FromRecords(TestInput(4'000, 19, 8))
        .WindowAll({std::make_shared<TumblingWindowFn>(64),
                    std::make_shared<SlidingWindowFn>(96, 32)})
        .Aggregate(DynAggKind::kSum, 1)
        .Collect();
  });
}

TEST(BatchEquivalenceTest, GeneratorSourceInMotion) {
  // Generator ("in motion") source with a short watermark cadence: batches
  // are cut by control events long before reaching batch_size.
  ExpectBatchInvariant([](Environment& env) {
    return env
        .FromGenerator(
            "gen",
            [](uint64_t s) -> std::optional<Record> {
              if (s >= 3'000) return std::nullopt;
              return MakeRecord(static_cast<Timestamp>(s),
                                Value(static_cast<int64_t>(s % 10)),
                                Value(static_cast<int64_t>(s)));
            },
            /*watermark_every=*/7)
        .KeyBy(0)
        .Reduce([](const Record& acc, const Record& next) {
          return MakeRecord(acc.timestamp, acc.field(0),
                            Value(acc.field(1).AsInt64() +
                                  next.field(1).AsInt64()));
        })
        .Collect();
  });
}

// ---------------------------------------------------------------------------
// Control-event ordering on the batch path.

// Counts records and asserts every watermark's promise ("all records with
// ts < wm have been delivered") against the count -- with the batch path
// buffering records in the source task, a watermark overtaking its batch
// would trip this immediately.
class BatchWatermarkProbe : public Operator {
 public:
  explicit BatchWatermarkProbe(std::atomic<int>* violations)
      : violations_(violations) {}

  void ProcessRecord(int, Record&& record, Collector* out) override {
    ++seen_;
    out->Emit(std::move(record));
  }

  void ProcessWatermark(Timestamp wm, Collector*) override {
    if (wm == kMaxTimestamp || wm == kMinTimestamp) return;
    // Generator timestamps are the sequence numbers: wm promises records
    // 0..wm inclusive (source publishes wm = last emitted ts).
    if (seen_ < static_cast<uint64_t>(wm) + 1) violations_->fetch_add(1);
    if (wm < last_wm_) violations_->fetch_add(1);
    last_wm_ = wm;
  }

  std::string Name() const override { return "batch-wm-probe"; }

 private:
  std::atomic<int>* violations_;
  uint64_t seen_ = 0;
  Timestamp last_wm_ = kMinTimestamp;
};

TEST(BatchControlOrderingTest, WatermarksNeverOvertakeBatchedRecords) {
  constexpr uint64_t kRecords = 20'000;
  auto violations = std::make_shared<std::atomic<int>>(0);
  Environment env;
  auto sink =
      env.FromGenerator("seq",
                        [](uint64_t s) -> std::optional<Record> {
                          if (s >= kRecords) return std::nullopt;
                          return MakeRecord(static_cast<Timestamp>(s),
                                            Value(static_cast<int64_t>(s)));
                        },
                        /*watermark_every=*/17)
          .Rebalance(1)  // real channel: batches and watermarks share a ring
          .Process([violations]() {
            return std::make_unique<BatchWatermarkProbe>(violations.get());
          })
          .Collect();
  JobOptions options;
  options.batch_size = 256;  // far larger than the watermark cadence
  ASSERT_TRUE(env.Execute(options).ok());
  EXPECT_EQ(sink->size(), kRecords);
  EXPECT_EQ(violations->load(), 0);
}

TEST(BatchControlOrderingTest, BarriersFlushBatchesAndStayAligned) {
  // Checkpoints run concurrently with batched delivery; barrier offsets
  // recorded by the sink must be consistent cut points (monotone in
  // checkpoint id, within the output), and the output itself must match
  // the batch_size = 1 run exactly.
  constexpr uint64_t kRecords = 60'000;
  const PipelineFn build = [](Environment& env) {
    return env
        .FromGenerator("seq",
                       [](uint64_t s) -> std::optional<Record> {
                         if (s >= kRecords) return std::nullopt;
                         return MakeRecord(static_cast<Timestamp>(s),
                                           Value(static_cast<int64_t>(s % 50)),
                                           Value(static_cast<int64_t>(s)));
                       })
        .KeyBy(0)
        .Reduce([](const Record& acc, const Record& next) {
          return MakeRecord(acc.timestamp, acc.field(0),
                            Value(acc.field(1).AsInt64() +
                                  next.field(1).AsInt64()));
        })
        .Collect();
  };

  const std::vector<Record> baseline = RunWithBatchSize(build, 1);

  Environment env;
  std::shared_ptr<CollectSink> sink = build(env);
  JobOptions options;
  options.batch_size = 256;
  options.checkpoint_interval_ms = 3;
  options.snapshot_store = std::make_shared<SnapshotStore>();
  ASSERT_TRUE(env.Execute(options).ok());
  ExpectIdenticalOutput(baseline, sink->records(), 256);

  // Every completed checkpoint's sink offset is a valid, monotone cut.
  int64_t prev_offset = 0;
  for (uint64_t id : options.snapshot_store->CompletedCheckpoints()) {
    const int64_t off = sink->BarrierOffset(id);
    if (off < 0) continue;  // barrier passed the sink before tracking
    EXPECT_GE(off, prev_offset) << "checkpoint " << id;
    EXPECT_LE(off, static_cast<int64_t>(baseline.size()));
    prev_offset = off;
  }
}

}  // namespace
}  // namespace streamline
