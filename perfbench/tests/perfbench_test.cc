// Unit tests of the benchmark's own machinery: the percentile helper, span
// self-time, and the reference checkers the workloads are judged by.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <vector>

#include "checkers.h"
#include "common/random.h"
#include "common/value.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

using streamline::MakeRecord;
using streamline::Value;

std::vector<double> Ramp(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(PercentilesTest, MedianAndHighestSupportedTail) {
  auto v = Ramp(100);
  const Percentiles p = Summarize(&v);
  EXPECT_EQ(p.count, 100u);
  EXPECT_DOUBLE_EQ(p.p50, 50.5);
  // 100 samples leave 10 beyond p90 but only 5 beyond p95.
  EXPECT_DOUBLE_EQ(p.tail_pct, 90);
  EXPECT_NEAR(p.tail, 90.1, 1e-9);
}

TEST(PercentilesTest, P99NeedsAThousandSamples) {
  auto small = Ramp(999);
  std::sort(small.begin(), small.end());
  EXPECT_TRUE(std::isnan(SupportedPercentile(small, 99)));
  auto big = Ramp(1000);
  const Percentiles p = Summarize(&big);
  EXPECT_DOUBLE_EQ(p.tail_pct, 99);
  EXPECT_NEAR(SupportedPercentile(big, 99), 990.01, 1e-9);
}

TEST(PercentilesTest, TooFewSamplesForAnyTail) {
  auto v = Ramp(5);
  const Percentiles p = Summarize(&v);
  EXPECT_DOUBLE_EQ(p.p50, 3);
  EXPECT_EQ(p.tail_pct, 0);
  EXPECT_TRUE(std::isnan(p.tail));
  std::vector<double> none;
  EXPECT_TRUE(std::isnan(Summarize(&none).p50));
}

Span MakeSpan(uint64_t id, uint64_t parent, int64_t start, int64_t end) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.name = {'s', static_cast<char>('0' + id)};  // ids are 1..9
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(SpanSelfTimeTest, SubtractsUnionOfChildrenClippedToParent) {
  // Parent [0, 100); children [10, 30), [20, 50) overlap, [90, 120) runs
  // past the parent's end. Covered: [10, 50) + [90, 100) = 50.
  const std::vector<Span> spans = {
      MakeSpan(1, 0, 0, 100), MakeSpan(2, 1, 10, 30), MakeSpan(3, 1, 20, 50),
      MakeSpan(4, 1, 90, 120), MakeSpan(5, 2, 12, 18)};
  const auto self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 50);
  EXPECT_EQ(self[1], 20 - 6);  // its own child [12, 18)
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 6);
  const auto totals = TotalsByName(spans);
  EXPECT_EQ(totals.at("s1").total_ns, 100);
  EXPECT_EQ(totals.at("s1").self_ns, 50);
}

TEST(SpanSelfTimeTest, TracerRecordsNestedScopes) {
  Tracer tracer(true);
  {
    ScopedSpan outer(&tracer, "outer", 0, 7);
    ScopedSpan inner(&tracer, "inner", outer.id(), 7);
  }
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[0].trace_id, 7u);
  EXPECT_LE(spans[0].start_ns, spans[1].start_ns);
  EXPECT_GE(spans[0].end_ns, spans[1].end_ns);
  Tracer off(false);
  ScopedSpan none(&off, "x");
  EXPECT_EQ(none.id(), 0u);
  EXPECT_TRUE(off.spans().empty());
}

TEST(CheckExactTest, CountsMissingWrongAndDuplicated) {
  const std::map<ResultKey, double> ref = {
      {{1, 0, 10, 0}, 3}, {{2, 0, 10, 0}, 4}, {{3, 0, 10, 0}, 5}};
  std::vector<std::pair<ResultKey, double>> got = {
      {{1, 0, 10, 0}, 3}, {{1, 0, 10, 0}, 3},  // duplicate
      {{2, 0, 10, 0}, 9},                       // wrong value
      {{4, 0, 10, 0}, 1}};                      // unexpected window
  const CheckCounts c = CheckExact(ref, got);
  EXPECT_EQ(c.duplicated, 1u);
  EXPECT_EQ(c.wrong, 2u);
  EXPECT_EQ(c.missing, 2u);  // windows 2 and 3 never arrived correct
  EXPECT_EQ(c.failures(), 5u);
  got = {{{1, 0, 10, 0}, 3}, {{2, 0, 10, 0}, 4}, {{3, 0, 10, 0}, 5}};
  EXPECT_EQ(CheckExact(ref, got).failures(), 0u);
}

TEST(YsbReferenceTest, CountsViewsPerCampaignWindow) {
  YsbConfig config;
  config.events = 20'000;
  const YsbInput in = GenerateYsb(config, 3);
  const auto ref = YsbReference(config, in);
  std::map<ResultKey, double> brute;
  for (const auto& e : in.events) {
    if (e.field(1).AsInt64() != kYsbView) continue;
    const int64_t start = e.timestamp / config.window_ms * config.window_ms;
    brute[{in.ad_to_campaign[e.field(0).AsInt64()], start,
           start + config.window_ms, 0}] += 1;
  }
  EXPECT_EQ(ref, brute);
  // Same seed, same input; another seed, another input.
  EXPECT_EQ(GenerateYsb(config, 3).events, in.events);
  EXPECT_NE(GenerateYsb(config, 4).events, in.events);
}

TEST(DashboardReferenceTest, SumsAndWindowCountsMatchBruteForce) {
  DashboardConfig config;
  config.duration_ms = 2'000;
  config.rate_per_s = 3'000;
  config.campaigns = 50;
  const DashboardInput in = GenerateDashboard(config, 5);
  const DashboardReference ref(in);
  struct Q {
    int64_t range, slide, origin;
  };
  for (const Q q : {Q{500, 250, 0}, Q{300, 300, 100}, Q{1000, 200, 150}}) {
    std::map<std::pair<int64_t, int64_t>, double> sums;  // (campaign, ws)
    for (const auto& bucket : in.by_ms) {
      for (const auto& e : bucket) {
        for (int64_t ws = q.origin - 20 * q.slide; ws <= e.timestamp;
             ws += q.slide) {
          if (e.timestamp >= ws && e.timestamp < ws + q.range) {
            sums[{e.field(0).AsInt64(), ws}] += e.field(1).AsDouble();
          }
        }
      }
    }
    EXPECT_EQ(ref.CountWindows(q.range, q.slide, q.origin), sums.size());
    for (const auto& [k, v] : sums) {
      EXPECT_EQ(ref.Sum(k.first, k.second, k.second + q.range), v);
    }
  }
}

TEST(DashboardReferenceTest, CheckerCatchesBadDeltas) {
  DashboardConfig config;
  config.duration_ms = 1'000;
  config.rate_per_s = 2'000;
  config.campaigns = 20;
  const DashboardInput in = GenerateDashboard(config, 9);
  const DashboardReference ref(in);
  const std::map<int64_t, QueryShape> queries = {
      {0, QueryShape{200, 200, 0, true}},
      {7, QueryShape{100, 100, 50, false}}};
  // A complete delta stream for query 0.
  std::vector<std::pair<ResultKey, double>> got;
  for (int64_t c = 0; c < 20; ++c) {
    for (int64_t ws = 0; ws < 1'000; ws += 200) {
      if (ref.Count(c, ws, ws + 200) > 0) {
        got.push_back({{c, ws, ws + 200, 0}, ref.Sum(c, ws, ws + 200)});
      }
    }
  }
  ASSERT_EQ(got.size(), ref.CountWindows(200, 200, 0));
  // One correct window of the churned query; nothing more is required.
  for (int64_t c = 0; c < 20; ++c) {
    if (ref.Count(c, 50, 150) > 0) {
      got.push_back({{c, 50, 150, 7}, ref.Sum(c, 50, 150)});
      break;
    }
  }
  EXPECT_EQ(CheckDashboard(ref, queries, got).failures(), 0u);

  auto altered = got;
  altered[3].second += 1;
  const CheckCounts a = CheckDashboard(ref, queries, altered);
  EXPECT_EQ(a.wrong, 1u);
  EXPECT_EQ(a.missing, 1u);

  auto dup = got;
  dup.push_back(got[0]);
  EXPECT_EQ(CheckDashboard(ref, queries, dup).duplicated, 1u);

  auto off_grid = got;
  std::get<1>(off_grid[0].first) += 10;
  std::get<2>(off_grid[0].first) += 10;
  EXPECT_GE(CheckDashboard(ref, queries, off_grid).wrong, 1u);

  auto dropped = got;
  dropped.erase(dropped.begin());
  EXPECT_EQ(CheckDashboard(ref, queries, dropped).missing, 1u);
}

TEST(SessionsReferenceTest, SplitsOnGapAndTracksRunningTotals) {
  SessionsConfig config;
  config.gap_ms = 100;
  // User 1: 0, 50, 150 (exactly the gap keeps it open), 251 (gap 101
  // splits).
  // User 2: one purchase at 10 and one at 60.
  std::vector<streamline::Record> in = {
      MakeRecord(0, Value(int64_t{1}), Value(int64_t{0}), Value(int64_t{0})),
      MakeRecord(10, Value(int64_t{2}), Value(kPurchase), Value(int64_t{5})),
      MakeRecord(50, Value(int64_t{1}), Value(int64_t{0}), Value(int64_t{0})),
      MakeRecord(60, Value(int64_t{2}), Value(kPurchase), Value(int64_t{7})),
      MakeRecord(150, Value(int64_t{1}), Value(int64_t{0}), Value(int64_t{0})),
      MakeRecord(251, Value(int64_t{1}), Value(int64_t{0}), Value(int64_t{0})),
  };
  const auto ref = SessionsReference(config, in);
  const std::map<ResultKey, double> want = {{{1, 0, 250, 0}, 3},
                                            {{1, 251, 351, 0}, 1},
                                            {{2, 10, 160, 0}, 2}};
  EXPECT_EQ(ref, want);

  const auto purchases = PurchaseReference(in);
  std::vector<streamline::Record> out = {
      MakeRecord(10, Value(int64_t{2}), Value(kPurchase), Value(int64_t{5})),
      MakeRecord(60, Value(int64_t{2}), Value(kPurchase), Value(int64_t{12}))};
  EXPECT_EQ(CheckPurchases(purchases, out).failures(), 0u);
  out.push_back(out[1]);
  EXPECT_EQ(CheckPurchases(purchases, out).duplicated, 1u);
  out.resize(1);
  EXPECT_EQ(CheckPurchases(purchases, out).missing, 1u);
  out[0].fields[2] = Value(int64_t{6});
  const CheckCounts c = CheckPurchases(purchases, out);
  EXPECT_EQ(c.wrong, 1u);
  EXPECT_EQ(c.missing, 2u);
}

TEST(GeneratorsTest, SeedDeterminesInput) {
  SessionsConfig config;
  config.events = 5'000;
  EXPECT_EQ(GenerateClicks(config, 1), GenerateClicks(config, 1));
  EXPECT_NE(GenerateClicks(config, 1), GenerateClicks(config, 2));
  DashboardConfig d;
  d.duration_ms = 100;
  d.rate_per_s = 10'000;
  EXPECT_EQ(GenerateDashboard(d, 1).by_ms, GenerateDashboard(d, 1).by_ms);
  EXPECT_EQ(GenerateDashboard(d, 1).total, 1'000u);
}

}  // namespace
}  // namespace perfbench
