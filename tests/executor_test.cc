#include "dataflow/executor.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <thread>

#include "api/datastream.h"
#include "common/random.h"

namespace streamline {
namespace {

std::vector<Record> NumberRecords(int n) {
  std::vector<Record> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(MakeRecord(i, Value(static_cast<int64_t>(i))));
  }
  return out;
}

TEST(ExecutorTest, SourceMapSinkBounded) {
  Environment env;
  auto sink = env.FromRecords(NumberRecords(100))
                  .Map([](Record&& r) {
                    r.fields[0] = Value(r.field(0).AsInt64() * 2);
                    return std::move(r);
                  })
                  .Collect();
  ASSERT_TRUE(env.Execute().ok());
  const auto records = sink->records();
  ASSERT_EQ(records.size(), 100u);
  // Single chained task: order is preserved.
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(records[i].field(0).AsInt64(), 2 * i);
  }
}

TEST(ExecutorTest, FilterAndFlatMap) {
  Environment env;
  auto sink = env.FromRecords(NumberRecords(10))
                  .Filter([](const Record& r) {
                    return r.field(0).AsInt64() % 2 == 0;
                  })
                  .FlatMap([](Record&& r, Collector* out) {
                    out->Emit(Record(r));
                    out->Emit(std::move(r));  // duplicate each
                  })
                  .Collect();
  ASSERT_TRUE(env.Execute().ok());
  EXPECT_EQ(sink->size(), 10u);  // 5 evens, duplicated
}

TEST(ExecutorTest, ChainingFusesForwardEdges) {
  Environment env;
  env.FromRecords(NumberRecords(1))
      .Map([](Record&& r) { return std::move(r); })
      .Filter([](const Record&) { return true; })
      .Collect();
  auto job = env.CreateJob();
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  // source + map + filter + sink fuse into ONE task.
  EXPECT_EQ((*job)->num_tasks(), 1u);
  EXPECT_NE((*job)->PlanDescription().find("->"), std::string::npos);
  ASSERT_TRUE((*job)->Run().ok());
}

TEST(ExecutorTest, KeyedReduceWithHashPartitioning) {
  Environment env(4);
  // Records: key = i % 5, value = i.
  std::vector<Record> records;
  for (int i = 0; i < 1000; ++i) {
    records.push_back(MakeRecord(i, Value(static_cast<int64_t>(i % 5)),
                                 Value(static_cast<int64_t>(i))));
  }
  auto sink =
      env.FromRecords(std::move(records))
          .KeyBy(0)
          .Reduce([](const Record& acc, const Record& in) {
            Record out = acc;
            out.fields[1] =
                Value(acc.field(1).AsInt64() + in.field(1).AsInt64());
            return out;
          })
          .Collect();
  ASSERT_TRUE(env.Execute().ok());
  // The final emission per key carries the full sum.
  std::map<int64_t, int64_t> final_sum;
  for (const Record& r : sink->records()) {
    final_sum[r.field(0).AsInt64()] = r.field(1).AsInt64();
  }
  ASSERT_EQ(final_sum.size(), 5u);
  for (int k = 0; k < 5; ++k) {
    int64_t expect = 0;
    for (int i = 0; i < 1000; ++i) {
      if (i % 5 == k) expect += i;
    }
    EXPECT_EQ(final_sum[k], expect) << "key " << k;
  }
  // 1000 inputs -> 1000 running-reduce emissions.
  EXPECT_EQ(sink->size(), 1000u);
}

TEST(ExecutorTest, RebalanceDistributesAcrossSubtasks) {
  Environment env;
  // Tag each record with the processing subtask.
  auto sink =
      env.FromRecords(NumberRecords(400))
          .Rebalance(4)
          .Collect();
  ASSERT_TRUE(env.Execute().ok());
  EXPECT_EQ(sink->size(), 400u);
}

TEST(ExecutorTest, UnionMergesTwoSources) {
  Environment env;
  auto left = env.FromRecords(NumberRecords(50), "left");
  auto right = env.FromRecords(NumberRecords(70), "right");
  auto sink = left.Union(right).Collect();
  ASSERT_TRUE(env.Execute().ok());
  EXPECT_EQ(sink->size(), 120u);
}

TEST(ExecutorTest, UnboundedGeneratorRunsUntilCancel) {
  Environment env;
  auto sink = env.FromGenerator("endless",
                                [](uint64_t seq) {
                                  return MakeRecord(
                                      static_cast<Timestamp>(seq),
                                      Value(static_cast<int64_t>(seq)));
                                })
                  .Collect();
  auto job = env.CreateJob();
  ASSERT_TRUE(job.ok());
  ASSERT_TRUE((*job)->Start().ok());
  while (sink->size() < 1000) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  (*job)->Cancel();
  ASSERT_TRUE((*job)->AwaitCompletion().ok());
  EXPECT_GE(sink->size(), 1000u);
}

TEST(ExecutorTest, BackpressureWithTinyChannels) {
  Environment env;
  auto sink = env.FromRecords(NumberRecords(5000))
                  .Rebalance(2)  // breaks the chain: real channels
                  .Map([](Record&& r) { return std::move(r); })
                  .Collect();
  JobOptions opts;
  opts.channel_capacity = 2;  // heavy backpressure
  auto job = env.CreateJob(opts);
  ASSERT_TRUE(job.ok());
  ASSERT_TRUE((*job)->Run().ok());
  EXPECT_EQ(sink->size(), 5000u);
}

TEST(ExecutorTest, IntervalJoinMatchesWithinBounds) {
  Environment env;
  std::vector<Record> lefts;
  std::vector<Record> rights;
  // Left at t=0,10,20,...,90; right at t=5,15,...,95; key alternates 0/1.
  for (int i = 0; i < 10; ++i) {
    lefts.push_back(MakeRecord(i * 10, Value(static_cast<int64_t>(i % 2)),
                               Value("L" + std::to_string(i))));
    rights.push_back(MakeRecord(i * 10 + 5,
                                Value(static_cast<int64_t>(i % 2)),
                                Value("R" + std::to_string(i))));
  }
  auto l = env.FromRecords(std::move(lefts), "lefts").KeyBy(0);
  auto r = env.FromRecords(std::move(rights), "rights").KeyBy(0);
  // r.ts - l.ts in [0, 5]: right i joins left i (same key by parity).
  auto sink = l.IntervalJoin(r, 0, 5).Collect();
  ASSERT_TRUE(env.Execute().ok());
  const auto joined = sink->records();
  ASSERT_EQ(joined.size(), 10u);
  for (const Record& rec : joined) {
    ASSERT_EQ(rec.num_fields(), 4u);
    // L<i> joined with R<i>.
    EXPECT_EQ(rec.field(1).AsString().substr(1),
              rec.field(3).AsString().substr(1));
  }
}

TEST(ExecutorTest, MetricsCountRecords) {
  Environment env;
  env.FromRecords(NumberRecords(42), "numbers").Collect("out");
  auto job = env.CreateJob();
  ASSERT_TRUE(job.ok());
  ASSERT_TRUE((*job)->Run().ok());
  // The fused task emitted nothing downstream (sink is terminal), but its
  // out counter counts router emissions (zero) while records_in counts
  // mailbox deliveries (zero for a pure source chain). Check report exists.
  EXPECT_FALSE((*job)->metrics()->Report().empty());
}

TEST(ExecutorTest, InvalidGraphRejectedAtCreate) {
  LogicalGraph g;
  auto result = Job::Create(g);
  EXPECT_FALSE(result.ok());
}

TEST(ExecutorTest, SameJobShapeBatchAndStreaming) {
  // The paper's central usability claim: identical pipeline code for data
  // at rest and data in motion. Build the same topology twice, once over a
  // bounded source and once over an unbounded generator + cancel; both
  // produce the same per-key sums for the common prefix.
  auto build = [](Environment*, DataStream input) {
    return input
        .Filter(
            [](const Record& r) { return r.field(1).AsInt64() % 3 != 0; })
        .KeyBy(0)
        .Reduce([](const Record& acc, const Record& in) {
          Record out = acc;
          out.fields[1] =
              Value(acc.field(1).AsInt64() + in.field(1).AsInt64());
          return out;
        })
        .Collect();
  };
  auto make_record = [](uint64_t i) {
    return MakeRecord(static_cast<Timestamp>(i),
                      Value(static_cast<int64_t>(i % 4)),
                      Value(static_cast<int64_t>(i)));
  };

  // Batch run over exactly 500 records.
  Environment batch_env;
  std::vector<Record> records;
  for (uint64_t i = 0; i < 500; ++i) records.push_back(make_record(i));
  auto batch_sink = build(&batch_env,
                          batch_env.FromRecords(std::move(records)));
  ASSERT_TRUE(batch_env.Execute().ok());

  // Streaming run over the same generator, bounded to the same 500.
  Environment stream_env;
  auto stream_sink = build(
      &stream_env,
      stream_env.FromGenerator("gen", [&](uint64_t seq)
                                   -> std::optional<Record> {
        if (seq >= 500) return std::nullopt;
        return make_record(seq);
      }));
  ASSERT_TRUE(stream_env.Execute().ok());

  // Same final per-key state either way.
  auto final_sums = [](const std::vector<Record>& rs) {
    std::map<int64_t, int64_t> out;
    for (const Record& r : rs) out[r.field(0).AsInt64()] = r.field(1).AsInt64();
    return out;
  };
  EXPECT_EQ(final_sums(batch_sink->records()),
            final_sums(stream_sink->records()));
}

}  // namespace
}  // namespace streamline
