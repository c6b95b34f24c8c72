#include "dataflow/temporal_join.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "api/datastream.h"

namespace streamline {
namespace {

class VecCollector : public Collector {
 public:
  void Emit(Record&& r) override { records.push_back(std::move(r)); }
  std::vector<Record> records;
};

TemporalJoinOperator::Spec BasicSpec(bool emit_unmatched = false) {
  TemporalJoinOperator::Spec spec;
  spec.fact_key = KeyField(0);
  spec.table_key = KeyField(0);
  spec.emit_unmatched = emit_unmatched;
  spec.table_width = 2;
  return spec;
}

TEST(TemporalJoinTest, EnrichesWithLatestRow) {
  TemporalJoinOperator op("tj", BasicSpec());
  VecCollector out;
  // Table row for key 1: [1, "v1", 10.0].
  op.ProcessRecord(1, MakeRecord(0, Value(int64_t{1}), Value("v1"),
                                 Value(10.0)),
                   &out);
  // Fact for key 1.
  op.ProcessRecord(0, MakeRecord(5, Value(int64_t{1}), Value(100.0)), &out);
  ASSERT_EQ(out.records.size(), 1u);
  ASSERT_EQ(out.records[0].num_fields(), 5u);
  EXPECT_EQ(out.records[0].field(3).AsString(), "v1");
  // Upsert the row; later facts see the new version.
  op.ProcessRecord(1, MakeRecord(6, Value(int64_t{1}), Value("v2"),
                                 Value(20.0)),
                   &out);
  op.ProcessRecord(0, MakeRecord(7, Value(int64_t{1}), Value(200.0)), &out);
  ASSERT_EQ(out.records.size(), 2u);
  EXPECT_EQ(out.records[1].field(3).AsString(), "v2");
  EXPECT_EQ(op.table_size(), 1u);
}

TEST(TemporalJoinTest, UnmatchedDroppedOrPadded) {
  {
    TemporalJoinOperator drop("tj", BasicSpec(false));
    VecCollector out;
    drop.ProcessRecord(0, MakeRecord(1, Value(int64_t{9}), Value(1.0)), &out);
    EXPECT_TRUE(out.records.empty());
  }
  {
    TemporalJoinOperator pad("tj", BasicSpec(true));
    VecCollector out;
    pad.ProcessRecord(0, MakeRecord(1, Value(int64_t{9}), Value(1.0)), &out);
    ASSERT_EQ(out.records.size(), 1u);
    ASSERT_EQ(out.records[0].num_fields(), 4u);  // 2 fact + 2 null pad
    EXPECT_TRUE(out.records[0].field(2).is_null());
    EXPECT_TRUE(out.records[0].field(3).is_null());
  }
}

TEST(TemporalJoinTest, TableStateSnapshotRoundTrip) {
  TemporalJoinOperator op("tj", BasicSpec());
  VecCollector out;
  for (int k = 0; k < 10; ++k) {
    op.ProcessRecord(
        1,
        MakeRecord(k, Value(static_cast<int64_t>(k)),
                   Value("row" + std::to_string(k)), Value(1.0 * k)),
        &out);
  }
  BinaryWriter w;
  ASSERT_TRUE(op.SnapshotState(&w).ok());
  TemporalJoinOperator restored("tj", BasicSpec());
  BinaryReader r(w.buffer());
  ASSERT_TRUE(restored.RestoreState(&r).ok());
  EXPECT_EQ(restored.table_size(), 10u);
  restored.ProcessRecord(0, MakeRecord(99, Value(int64_t{7}), Value(0.0)),
                         &out);
  ASSERT_EQ(out.records.size(), 1u);
  // Joined layout: [fact key, fact value, row key, row name, row value].
  EXPECT_EQ(out.records[0].field(3).AsString(), "row7");
}

// Fact source gated on the join task's input counter: it stays idle until
// the join has taken in `table_rows` records -- every dimension row, since
// no fact flows before the gate opens -- then emits one fact per poll. A
// join task dispatches one input event at a time, so each row is in its
// table before any fact reaches the join.
class GatedFactSource : public SourceFunction {
 public:
  GatedFactSource(std::vector<Record> facts,
                  const std::atomic<Counter*>* join_in, uint64_t table_rows)
      : facts_(std::move(facts)), join_in_(join_in), table_rows_(table_rows) {}

  Result<SourcePoll> Poll(SourceContext* ctx) override {
    if (pos_ >= facts_.size()) return SourcePoll::kExhausted;
    const Counter* in = join_in_->load(std::memory_order_acquire);
    if (in == nullptr || in->value() < table_rows_) return SourcePoll::kIdle;
    if (!ctx->Emit(std::move(facts_[pos_]))) return SourcePoll::kExhausted;
    ++pos_;
    return SourcePoll::kHasMore;
  }
  std::string Name() const override { return "gated_facts"; }

 private:
  std::vector<Record> facts_;
  const std::atomic<Counter*>* join_in_;
  uint64_t table_rows_;
  size_t pos_ = 0;
};

TEST(TemporalJoinTest, EndToEndThroughApi) {
  static constexpr int kTableRows = 20;
  Environment env(2);
  // Dimension changelog: item -> category.
  std::vector<Record> table_rows;
  for (int item = 0; item < kTableRows; ++item) {
    table_rows.push_back(MakeRecord(
        0, Value(static_cast<int64_t>(item)),
        Value("cat" + std::to_string(item % 4))));
  }
  // The temporal join is processing-order based, so the facts wait behind
  // a gate until the whole table is in the join (see GatedFactSource).
  std::vector<Record> facts;
  for (int i = 0; i < 200; ++i) {
    facts.push_back(MakeRecord(100 + i, Value(static_cast<int64_t>(i % 20)),
                               Value(1.0)));
  }
  std::atomic<Counter*> join_in{nullptr};
  auto table = env.FromRecords(std::move(table_rows), "dim").KeyBy(0);
  auto sink = env.FromSource(
                     "facts",
                     [&facts, &join_in](int, int)
                         -> std::unique_ptr<SourceFunction> {
                       return std::make_unique<GatedFactSource>(
                           facts, &join_in, kTableRows);
                     },
                     1)
                  .KeyBy(0)
                  .TemporalJoin(table, /*table_width=*/2,
                                /*emit_unmatched=*/true, "join")
                  .Collect("collect");
  auto job = env.CreateJob();
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  // The join and its sink fuse into one chain; its records_in counter
  // covers both join subtasks.
  join_in.store((*job)->metrics()->GetCounter("task.join->collect.records_in"),
                std::memory_order_release);
  ASSERT_TRUE((*job)->Run().ok());
  ASSERT_EQ(sink->size(), 200u);
  // With the table complete before the first fact, every fact matches and
  // carries its category (an unmatched one would be null-padded).
  size_t matched = 0;
  for (const Record& r : sink->records()) {
    ASSERT_EQ(r.num_fields(), 4u);
    if (!r.field(3).is_null()) {
      ++matched;
      const int64_t item = r.field(0).AsInt64();
      EXPECT_EQ(r.field(3).AsString(),
                "cat" + std::to_string(item % 4));
    }
  }
  EXPECT_EQ(matched, 200u);
}

}  // namespace
}  // namespace streamline
