#include "dataflow/event_log.h"

#include <gtest/gtest.h>

#include <map>
#include <thread>

#include "api/datastream.h"

namespace streamline {
namespace {

Record Ev(Timestamp ts, int64_t key, double v) {
  return MakeRecord(ts, Value(key), Value(v));
}

TEST(EventLogTest, AppendRead) {
  EventLog log(2);
  EXPECT_EQ(log.Append(0, Ev(1, 0, 1.0)), 0u);
  EXPECT_EQ(log.Append(0, Ev(2, 0, 2.0)), 1u);
  EXPECT_EQ(log.Append(1, Ev(1, 1, 3.0)), 0u);
  EXPECT_EQ(log.EndOffset(0), 2u);
  EXPECT_EQ(log.EndOffset(1), 1u);
  ASSERT_TRUE(log.Read(0, 1).ok());
  EXPECT_DOUBLE_EQ(log.Read(0, 1)->field(1).AsDouble(), 2.0);
  EXPECT_FALSE(log.Read(0, 2).ok());
}

TEST(EventLogTest, AppendByKeyIsDeterministic) {
  EventLog log(4);
  for (int i = 0; i < 100; ++i) {
    log.AppendByKey(0, Ev(i, i % 10, 0));
  }
  // Same key always lands in the same partition.
  std::map<int64_t, int> partition_of;
  for (int p = 0; p < 4; ++p) {
    for (uint64_t off = 0; off < log.EndOffset(p); ++off) {
      const int64_t key = log.Read(p, off)->field(0).AsInt64();
      auto [it, inserted] = partition_of.emplace(key, p);
      if (!inserted) EXPECT_EQ(it->second, p) << "key " << key;
    }
  }
  EXPECT_EQ(partition_of.size(), 10u);
}

TEST(EventLogTest, BoundedConsumptionThroughJob) {
  auto log = std::make_shared<EventLog>(3);
  for (int i = 0; i < 3000; ++i) {
    log->AppendByKey(0, Ev(i, i % 7, 1.0));
  }
  log->Close();
  Environment env;
  auto sink = env.FromSource("log", LogSource::Factory(log), 3).Collect();
  ASSERT_TRUE(env.Execute().ok());
  EXPECT_EQ(sink->size(), 3000u);
}

TEST(EventLogTest, LiveProducerThenClose) {
  auto log = std::make_shared<EventLog>(2);
  Environment env;
  auto sink = env.FromSource("log", LogSource::Factory(log), 1).Collect();
  auto job = env.CreateJob();
  ASSERT_TRUE(job.ok());
  ASSERT_TRUE((*job)->Start().ok());
  // Produce while the job is running.
  std::thread producer([&log] {
    for (int i = 0; i < 1000; ++i) {
      log->Append(i % 2, Ev(i, i % 3, 1.0));
      if (i % 100 == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    log->Close();
  });
  producer.join();
  ASSERT_TRUE((*job)->AwaitCompletion().ok());
  EXPECT_EQ(sink->size(), 1000u);
}

TEST(EventLogTest, WindowedJobOverPartitionedLog) {
  // Cross-partition skew + per-partition watermarks: the windowed counts
  // must still be exact.
  auto log = std::make_shared<EventLog>(4);
  for (int i = 0; i < 2000; ++i) {
    log->AppendByKey(0, Ev(i, i % 5, 1.0));
  }
  log->Close();
  Environment env(2);
  auto sink = env.FromSource("log", LogSource::Factory(log, 16), 2)
                  .KeyBy(0)
                  .Window(std::make_shared<TumblingWindowFn>(400))
                  .Aggregate(DynAggKind::kCount, 1)
                  .Collect();
  ASSERT_TRUE(env.Execute().ok());
  int64_t total = 0;
  for (const Record& r : sink->records()) total += r.field(4).AsInt64();
  EXPECT_EQ(total, 2000);
}

TEST(EventLogTest, ExactlyOnceRestoreFromOffsets) {
  auto log = std::make_shared<EventLog>(2);
  auto reduce = [](const Record& acc, const Record& in) {
    Record out = acc;
    out.fields[1] = Value(acc.field(1).AsDouble() + in.field(1).AsDouble());
    return out;
  };
  auto build = [&](Environment* env) {
    return env->FromSource("log", LogSource::Factory(log), 2)
        .KeyBy(0)
        .Reduce(reduce)
        .Collect();
  };

  // Run 1: consume the first 800 records, checkpoint while the source
  // idles on the open log (idle sources still service barriers), then let
  // the rest of the log arrive and run to completion.
  auto store = std::make_shared<SnapshotStore>();
  uint64_t cp = 0;
  {
    for (int i = 0; i < 800; ++i) log->Append(i % 2, Ev(i, i % 3, 1.0));
    Environment env;
    auto sink = build(&env);
    JobOptions opts;
    opts.snapshot_store = store;
    auto job = env.CreateJob(opts);
    ASSERT_TRUE(job.ok());
    ASSERT_TRUE((*job)->Start().ok());
    while (sink->size() < 800) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    cp = (*job)->TriggerCheckpoint();  // source is idle-waiting here
    ASSERT_TRUE((*job)->AwaitCheckpoint(cp, 10.0));
    for (int i = 800; i < 1600; ++i) log->Append(i % 2, Ev(i, i % 3, 1.0));
    log->Close();
    ASSERT_TRUE((*job)->AwaitCompletion().ok());
  }

  // Reference: full run over the (now complete) log.
  std::map<int64_t, double> reference;
  {
    Environment env;
    auto sink = build(&env);
    ASSERT_TRUE(env.Execute().ok());
    for (const Record& r : sink->records()) {
      reference[r.field(0).AsInt64()] = r.field(1).AsDouble();
    }
  }

  // Run 2: restore; the source resumes at offset 800 per partition and the
  // reduce state continues from the snapshot -- final state matches the
  // uninterrupted reference exactly.
  {
    Environment env;
    auto sink = build(&env);
    JobOptions opts;
    opts.snapshot_store = store;
    opts.restore_from_checkpoint = cp;
    auto job = env.CreateJob(opts);
    ASSERT_TRUE(job.ok()) << job.status().ToString();
    ASSERT_TRUE((*job)->Run().ok());
    EXPECT_EQ(sink->size(), 800u);  // only the post-checkpoint records
    std::map<int64_t, double> final_state;
    for (const Record& r : sink->records()) {
      final_state[r.field(0).AsInt64()] = r.field(1).AsDouble();
    }
    EXPECT_EQ(final_state, reference);
  }
}

}  // namespace
}  // namespace streamline
