#ifndef PERFBENCH_CHECKERS_H_
#define PERFBENCH_CHECKERS_H_

// Input generators and reference checkers of the three workloads. The
// references are computed from the generated inputs with plain loops and
// maps -- no engine code -- so a result the engine gets wrong, drops or
// repeats shows up as a failure.

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/record.h"
#include "common/time.h"

namespace perfbench {

using streamline::Duration;
using streamline::Record;
using streamline::Timestamp;

/// Identity of one window result: (key, window start, window end, query
/// id). Query id is the output field 3 of a WindowAgg result.
using ResultKey = std::tuple<int64_t, int64_t, int64_t, int64_t>;

/// Reads the identity and value of a WindowAgg result record
/// [key, start, end, query, value].
ResultKey KeyOfResult(const Record& r);
double ValueOfResult(const Record& r);

/// Outcome of comparing results against a reference.
struct CheckCounts {
  uint64_t expected = 0;
  uint64_t received = 0;
  uint64_t missing = 0;
  uint64_t wrong = 0;       // unexpected identity or wrong value
  uint64_t duplicated = 0;  // identity received more than once
  uint64_t failures() const { return missing + wrong + duplicated; }
  void Add(const CheckCounts& o);
  std::string ToString() const;
};

/// Exact multiset comparison of window results with a reference map.
CheckCounts CheckExact(const std::map<ResultKey, double>& expected,
                       const std::vector<std::pair<ResultKey, double>>& got);

// ---------------------------------------------------------------------------
// ysb_ingest: Yahoo Streaming Benchmark ad events.

struct YsbConfig {
  uint64_t events = 0;
  int ads = 1000;
  int campaigns = 100;
  // One event per ms of event time: 2M events span 200 windows, so a round
  // has 200 window closings and its p99 latency is not one window's.
  int events_per_ms = 1;
  Duration window_ms = 10'000;
};

/// Event fields: [ad_id, event_type (0 = view, 1 = click, 2 = purchase),
/// user_id, page_id]; timestamp = index / events_per_ms.
inline constexpr int64_t kYsbView = 0;

struct YsbInput {
  std::vector<Record> events;
  std::vector<int64_t> ad_to_campaign;
};

YsbInput GenerateYsb(const YsbConfig& config, uint64_t seed);

/// COUNT of views per (campaign, tumbling window); query id 0.
std::map<ResultKey, double> YsbReference(const YsbConfig& config,
                                         const YsbInput& input);

// ---------------------------------------------------------------------------
// dashboard_fanout: Zipf ad stream, many standing sliding SUM queries.

struct DashboardConfig {
  int64_t duration_ms = 0;
  double rate_per_s = 0;
  int64_t campaigns = 10'000;
  double zipf_s = 1.2;
};

/// One millisecond of input: events due at `ts` (ms after the round
/// starts), fields [campaign, cost]; cost is an integer-valued double so
/// sums are exact in any order.
struct DashboardInput {
  std::vector<std::vector<Record>> by_ms;  // index = due ms
  uint64_t total = 0;
};

DashboardInput GenerateDashboard(const DashboardConfig& config,
                                 uint64_t seed);

/// Per-campaign prefix sums: SUM(cost) over any window in O(log n).
class DashboardReference {
 public:
  explicit DashboardReference(const DashboardInput& input);

  /// SUM(cost) of `campaign` over [start, end); 0 when no event falls in.
  double Sum(int64_t campaign, int64_t start, int64_t end) const;
  /// Events of `campaign` in [start, end).
  uint64_t Count(int64_t campaign, int64_t start, int64_t end) const;

  /// Non-empty windows of the sliding query (range, slide, origin) over
  /// the whole input, across all campaigns.
  uint64_t CountWindows(Duration range, Duration slide,
                        Timestamp origin) const;

 private:
  struct Series {
    std::vector<int64_t> ts;
    std::vector<double> prefix;  // prefix[i] = sum of the first i costs
  };
  std::unordered_map<int64_t, Series> by_campaign_;
};

/// Window shape of a dashboard query and whether every one of its windows
/// must arrive (resident queries) or only arriving ones are checked
/// (queries attached and detached mid-run, whose first and last windows
/// depend on when the attach applied).
struct QueryShape {
  Duration range = 0;
  Duration slide = 0;
  Timestamp origin = 0;
  bool complete = true;
};

/// Checks one subscriber's delta stream: every result must be a non-empty
/// window on its query's grid with the reference SUM, no window may
/// arrive twice, and every window of a `complete` query must arrive.
CheckCounts CheckDashboard(
    const DashboardReference& ref, const std::map<int64_t, QueryShape>& queries,
    const std::vector<std::pair<ResultKey, double>>& got);

/// True when `result` is a correct window of its query (grid, non-empty,
/// reference SUM); used for snapshot records, which repeat deltas.
bool DashboardResultValid(const DashboardReference& ref,
                          const std::map<int64_t, QueryShape>& queries,
                          const ResultKey& key, double value);

// ---------------------------------------------------------------------------
// sessions_replay: Zipf clickstream at rest.

struct SessionsConfig {
  uint64_t events = 0;
  int64_t users = 1'000'000;
  double zipf_s = 1.2;
  double purchase_share = 0.1;
  Duration gap_ms = 30'000;
};

/// Click fields: [user, kind (0 = view, 1 = purchase), amount];
/// timestamp = index (one click per ms).
inline constexpr int64_t kPurchase = 1;

std::vector<Record> GenerateClicks(const SessionsConfig& config,
                                   uint64_t seed);

/// Session COUNT per user ([first, last + gap), query id 0). A click at
/// most `gap` after the previous one extends the session.
std::map<ResultKey, double> SessionsReference(const SessionsConfig& config,
                                              const std::vector<Record>& in);

/// Running purchase total per user: one (user, total) pair per purchase,
/// as a multiset count.
std::map<std::pair<int64_t, int64_t>, uint64_t> PurchaseReference(
    const std::vector<Record>& in);

/// Compares reduce output records [user, kind, running total] with the
/// multiset from PurchaseReference.
CheckCounts CheckPurchases(
    const std::map<std::pair<int64_t, int64_t>, uint64_t>& expected,
    const std::vector<Record>& got);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKERS_H_
