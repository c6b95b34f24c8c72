// Capstone system test: the full STREAMLINE story in one job.
//
//   clickstream (replayable partitioned log)
//     -> keyed session windows (multi-query shared slicing)   [Cutty]
//     -> revenue dashboard via M4 pyramid                     [I2]
//   with a mid-stream checkpoint, a simulated crash, and a restore that
//   must reproduce the uninterrupted run's results exactly.

#include <gtest/gtest.h>

#include <map>
#include <thread>

#include "api/datastream.h"
#include "dataflow/event_log.h"
#include "viz/server.h"
#include "workload/clickstream.h"

namespace streamline {
namespace {

constexpr Duration kSessionGap = 30'000;
constexpr uint64_t kEvents = 40'000;

// Appends events [from, to) of the deterministic clickstream to `log`.
void AppendEvents(EventLog* log, uint64_t from, uint64_t to) {
  ClickstreamGenerator::Options opts;
  opts.num_users = 64;
  opts.session_gap_ms = kSessionGap;
  opts.max_event_gap_ms = 8'000;
  ClickstreamGenerator gen(opts, 2026);
  for (uint64_t i = 0; i < to; ++i) {
    Record r = gen.Next().ToRecord();
    if (i < from) continue;
    // Partition by global order (per-partition timestamps stay ordered).
    log->Append(static_cast<int>(i % 2), std::move(r));
  }
}

std::shared_ptr<EventLog> BuildLog() {
  auto log = std::make_shared<EventLog>(2);
  AppendEvents(log.get(), 0, kEvents);
  log->Close();
  return log;
}

using SessionStats = std::map<std::tuple<int64_t, Timestamp, Timestamp,
                                         int64_t>,
                              double>;

struct RunArtifacts {
  SessionStats sessions;
  std::shared_ptr<CollectSink> sink;
};

// Pipeline: log -> keyed by user -> {session count, session revenue}
// shared windows -> collect.
std::shared_ptr<CollectSink> Build(Environment* env,
                                   const std::shared_ptr<EventLog>& log) {
  return env
      ->FromSource("clicks", LogSource::Factory(log, /*watermark_every=*/32),
                   2)
      .KeyBy(0)
      .Window({std::make_shared<SessionWindowFn>(kSessionGap),
               std::make_shared<SessionWindowFn>(kSessionGap)})
      .Aggregate(DynAggKind::kSum, /*value_field=*/3)
      // Funnel to one sink subtask: exactly-once truncation via
      // CollectSink::BarrierOffset needs a single output sequence.
      .Rebalance(1)
      .Collect();
}

SessionStats Parse(const std::vector<Record>& records) {
  SessionStats out;
  for (const Record& r : records) {
    out[{r.field(0).AsInt64(), r.field(1).AsInt64(), r.field(2).AsInt64(),
         r.field(3).AsInt64()}] = r.field(4).AsDouble();
  }
  return out;
}

TEST(SystemIntegrationTest, FullStoryWithCrashAndRestore) {
  // Run 1 first: the log stays OPEN across the checkpoint so the sources
  // are guaranteed alive to process the barrier (idle sources still
  // service barriers); then the rest of the stream arrives and the
  // job "crashes" (cancel).
  auto log = std::make_shared<EventLog>(2);
  auto store = std::make_shared<SnapshotStore>();
  uint64_t cp = 0;
  SessionStats first_results;
  {
    AppendEvents(log.get(), 0, kEvents / 2);
    Environment env(2);
    auto sink = Build(&env, log);
    JobOptions opts;
    opts.snapshot_store = store;
    auto job = env.CreateJob(opts);
    ASSERT_TRUE(job.ok());
    ASSERT_TRUE((*job)->Start().ok());
    while (sink->size() < 50) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    cp = (*job)->TriggerCheckpoint();
    ASSERT_TRUE((*job)->AwaitCheckpoint(cp, 20.0));
    AppendEvents(log.get(), kEvents / 2, kEvents);
    log->Close();
    (*job)->Cancel();
    ASSERT_TRUE((*job)->AwaitCompletion().ok());
    // Keep only pre-barrier output (exactly-once truncation).
    auto all = sink->records();
    const int64_t offset = sink->BarrierOffset(cp);
    ASSERT_GE(offset, 0);
    all.resize(static_cast<size_t>(offset));
    first_results = Parse(all);
  }

  // Reference: uninterrupted run over the (now complete) log.
  SessionStats reference;
  {
    Environment env(2);
    auto sink = Build(&env, log);
    ASSERT_TRUE(env.Execute().ok());
    reference = Parse(sink->records());
    ASSERT_GT(reference.size(), 100u);
  }

  // Run 2: restore and finish; feed the revenue dashboard as results fire.
  VizServer dashboard(/*base_column_width=*/60'000, /*levels=*/4);
  const int screen =
      dashboard.Connect(Viewport{0, 3'600'000, 600, 150, false});
  SessionStats combined = first_results;
  {
    Environment env(2);
    auto sink = Build(&env, log);
    JobOptions opts;
    opts.snapshot_store = store;
    opts.restore_from_checkpoint = cp;
    auto job = env.CreateJob(opts);
    ASSERT_TRUE(job.ok()) << job.status().ToString();
    ASSERT_TRUE((*job)->Run().ok());
    for (const auto& [key, revenue] : Parse(sink->records())) {
      // A session may be re-emitted after restore; values must agree.
      auto it = combined.find(key);
      if (it != combined.end()) {
        EXPECT_DOUBLE_EQ(it->second, revenue);
      }
      combined[key] = revenue;
    }
    // Dashboard ingestion: query-0 session revenue over time.
    for (const Record& r : sink->records()) {
      if (r.field(3).AsInt64() != 0) continue;
      dashboard.OnElement(r.timestamp, r.field(4).AsDouble());
    }
    dashboard.Flush();
  }

  // Exactly-once: crash + restore converges to the uninterrupted result.
  for (const auto& [key, v] : reference) {
    auto it = combined.find(key);
    if (it == combined.end()) {
      ADD_FAILURE() << "missing session: user=" << std::get<0>(key) << " ["
                    << std::get<1>(key) << "," << std::get<2>(key)
                    << ") q=" << std::get<3>(key) << " revenue=" << v;
    } else if (it->second != v) {
      ADD_FAILURE() << "revenue mismatch: user=" << std::get<0>(key)
                    << " got " << it->second << " want " << v;
    }
  }
  for (const auto& [key, v] : combined) {
    if (!reference.count(key)) {
      ADD_FAILURE() << "extra session: user=" << std::get<0>(key) << " ["
                    << std::get<1>(key) << "," << std::get<2>(key)
                    << ") q=" << std::get<3>(key) << " revenue=" << v;
    }
  }

  // The dashboard transfers a bounded view regardless of session count.
  const auto pts = dashboard.Refresh(screen);
  EXPECT_LE(pts.size(), 4u * 600);
  EXPECT_GT(dashboard.transfer_stats(screen).bytes, 0u);
}

TEST(SystemIntegrationTest, SessionizationMatchesGeneratorGroundTruth) {
  // The clickstream generator guarantees >= kSessionGap silence between a
  // user's sessions and < gap inside them, so session windows must recover
  // the generated sessions exactly: total events across sessions == total
  // events per user.
  const auto log = BuildLog();
  Environment env(2);
  auto sink =
      env.FromSource("clicks", LogSource::Factory(log, 32), 2)
          .KeyBy(0)
          .Window(std::make_shared<SessionWindowFn>(kSessionGap))
          .Aggregate(DynAggKind::kCount, 1)
          .Collect();
  ASSERT_TRUE(env.Execute().ok());

  std::map<int64_t, int64_t> events_per_user;
  for (const Record& r : sink->records()) {
    events_per_user[r.field(0).AsInt64()] += r.field(4).AsInt64();
  }
  std::map<int64_t, int64_t> truth;
  for (int p = 0; p < log->num_partitions(); ++p) {
    for (uint64_t off = 0; off < log->EndOffset(p); ++off) {
      truth[log->Read(p, off)->field(0).AsInt64()]++;
    }
  }
  EXPECT_EQ(events_per_user, truth);
}

}  // namespace
}  // namespace streamline
