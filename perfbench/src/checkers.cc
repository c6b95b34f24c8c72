#include "checkers.h"

#include <algorithm>
#include <cstdio>

#include "common/random.h"
#include "common/value.h"

namespace perfbench {

using streamline::MakeRecord;
using streamline::Rng;
using streamline::Value;
using streamline::ZipfGenerator;

// Seeds the parts of an input that define the workload rather than one run
// of it: which ads belong to which campaign, which campaigns and users are
// popular. --seed varies the event stream drawn over them.
constexpr uint64_t kCatalogSeed = 0x5eed0fca7a1090ULL;

ResultKey KeyOfResult(const Record& r) {
  return {r.field(0).AsInt64(), r.field(1).AsInt64(), r.field(2).AsInt64(),
          r.field(3).AsInt64()};
}

double ValueOfResult(const Record& r) { return r.field(4).ToDouble(); }

void CheckCounts::Add(const CheckCounts& o) {
  expected += o.expected;
  received += o.received;
  missing += o.missing;
  wrong += o.wrong;
  duplicated += o.duplicated;
}

std::string CheckCounts::ToString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "expected=%llu received=%llu missing=%llu wrong=%llu "
                "duplicated=%llu",
                static_cast<unsigned long long>(expected),
                static_cast<unsigned long long>(received),
                static_cast<unsigned long long>(missing),
                static_cast<unsigned long long>(wrong),
                static_cast<unsigned long long>(duplicated));
  return buf;
}

CheckCounts CheckExact(const std::map<ResultKey, double>& expected,
                       const std::vector<std::pair<ResultKey, double>>& got) {
  CheckCounts c;
  c.expected = expected.size();
  c.received = got.size();
  std::map<ResultKey, uint64_t> seen;
  for (const auto& [key, value] : got) {
    auto it = expected.find(key);
    if (it == expected.end() || it->second != value) {
      ++c.wrong;
      continue;
    }
    if (++seen[key] > 1) ++c.duplicated;
  }
  c.missing = expected.size() - seen.size();
  return c;
}

// ---------------------------------------------------------------------------

YsbInput GenerateYsb(const YsbConfig& config, uint64_t seed) {
  YsbInput in;
  // The ad -> campaign table is part of the workload, not of the seed.
  Rng catalog(kCatalogSeed);
  in.ad_to_campaign.resize(config.ads);
  for (int ad = 0; ad < config.ads; ++ad) {
    in.ad_to_campaign[ad] =
        static_cast<int64_t>(catalog.NextBelow(config.campaigns));
  }
  Rng rng(seed ^ 0x59534221ULL);
  in.events.reserve(config.events);
  for (uint64_t i = 0; i < config.events; ++i) {
    in.events.push_back(MakeRecord(
        static_cast<Timestamp>(i / config.events_per_ms),
        Value(static_cast<int64_t>(rng.NextBelow(config.ads))),
        Value(static_cast<int64_t>(rng.NextBelow(3))),
        Value(static_cast<int64_t>(rng.NextBelow(1'000'000))),
        Value(static_cast<int64_t>(rng.NextBelow(10'000)))));
  }
  return in;
}

std::map<ResultKey, double> YsbReference(const YsbConfig& config,
                                         const YsbInput& input) {
  std::map<ResultKey, double> ref;
  for (const Record& e : input.events) {
    if (e.field(1).AsInt64() != kYsbView) continue;
    const int64_t campaign = input.ad_to_campaign[e.field(0).AsInt64()];
    const int64_t start = e.timestamp - e.timestamp % config.window_ms;
    ref[{campaign, start, start + config.window_ms, 0}] += 1;
  }
  return ref;
}

// ---------------------------------------------------------------------------

namespace {

// Bijection on [0, n) used to map Zipf ranks to entity ids: `a` must be
// coprime to n. Rotating `b` moves every rank to another id.
int64_t Permute(uint64_t rank, int64_t n, int64_t a, int64_t b) {
  return static_cast<int64_t>(
      (static_cast<unsigned __int128>(rank) * static_cast<uint64_t>(a) +
       static_cast<uint64_t>(b)) %
      static_cast<uint64_t>(n));
}

int64_t CoprimeMultiplier(int64_t n, Rng* rng) {
  for (;;) {
    const int64_t a = static_cast<int64_t>(rng->NextBelow(n - 1)) + 1;
    int64_t x = a, y = n;
    while (y != 0) {
      const int64_t t = x % y;
      x = y;
      y = t;
    }
    if (x == 1) return a;
  }
}

}  // namespace

DashboardInput GenerateDashboard(const DashboardConfig& config,
                                 uint64_t seed) {
  DashboardInput in;
  Rng rng(seed ^ 0x44415348ULL);
  ZipfGenerator zipf(config.campaigns, config.zipf_s, rng.NextU64());
  // Which campaigns are popular is part of the workload, not of the seed:
  // the seed varies the event stream, while the hot keys (and so the load
  // each key-group gets) stay the same from run to run.
  Rng catalog(kCatalogSeed);
  const int64_t a = CoprimeMultiplier(config.campaigns, &catalog);
  const int64_t b_first =
      static_cast<int64_t>(catalog.NextBelow(config.campaigns));
  // At half-time the ranking rotates by a third of the key space, so the
  // hot campaigns (and the key-groups they hash to) change.
  const int64_t b_second = (b_first + config.campaigns / 3) % config.campaigns;
  in.by_ms.resize(config.duration_ms);
  uint64_t emitted = 0;
  for (int64_t ms = 0; ms < config.duration_ms; ++ms) {
    const auto due = static_cast<uint64_t>(config.rate_per_s *
                                           static_cast<double>(ms + 1) / 1e3);
    const int64_t b = ms < config.duration_ms / 2 ? b_first : b_second;
    auto& bucket = in.by_ms[ms];
    bucket.reserve(due - emitted);
    for (; emitted < due; ++emitted) {
      bucket.push_back(MakeRecord(
          static_cast<Timestamp>(ms),
          Value(Permute(zipf.Next(), config.campaigns, a, b)),
          Value(static_cast<double>(1 + rng.NextBelow(100)))));
    }
  }
  in.total = emitted;
  return in;
}

DashboardReference::DashboardReference(const DashboardInput& input) {
  for (const auto& bucket : input.by_ms) {
    for (const Record& e : bucket) {
      Series& s = by_campaign_[e.field(0).AsInt64()];
      if (s.prefix.empty()) s.prefix.push_back(0);
      s.ts.push_back(e.timestamp);
      s.prefix.push_back(s.prefix.back() + e.field(1).AsDouble());
    }
  }
}

double DashboardReference::Sum(int64_t campaign, int64_t start,
                               int64_t end) const {
  auto it = by_campaign_.find(campaign);
  if (it == by_campaign_.end()) return 0;
  const Series& s = it->second;
  const size_t lo =
      std::lower_bound(s.ts.begin(), s.ts.end(), start) - s.ts.begin();
  const size_t hi =
      std::lower_bound(s.ts.begin(), s.ts.end(), end) - s.ts.begin();
  return s.prefix[hi] - s.prefix[lo];
}

uint64_t DashboardReference::Count(int64_t campaign, int64_t start,
                                   int64_t end) const {
  auto it = by_campaign_.find(campaign);
  if (it == by_campaign_.end()) return 0;
  const Series& s = it->second;
  return std::lower_bound(s.ts.begin(), s.ts.end(), end) -
         std::lower_bound(s.ts.begin(), s.ts.end(), start);
}

namespace {

int64_t FloorDiv(int64_t x, int64_t y) {
  return x >= 0 ? x / y : -((-x + y - 1) / y);
}

}  // namespace

uint64_t DashboardReference::CountWindows(Duration range, Duration slide,
                                          Timestamp origin) const {
  uint64_t n = 0;
  for (const auto& [campaign, s] : by_campaign_) {
    // Window k = [origin + k*slide, +range) holds t iff
    // floor((t - origin - range) / slide) < k <= floor((t - origin) / slide);
    // union the k ranges of the campaign's (ascending) events.
    int64_t prev_hi = INT64_MIN;
    for (const int64_t t : s.ts) {
      const int64_t hi = FloorDiv(t - origin, slide);
      const int64_t lo =
          std::max(FloorDiv(t - origin - range, slide) + 1, prev_hi + 1);
      if (hi >= lo) n += static_cast<uint64_t>(hi - lo + 1);
      prev_hi = std::max(prev_hi, hi);
    }
  }
  return n;
}

bool DashboardResultValid(const DashboardReference& ref,
                          const std::map<int64_t, QueryShape>& queries,
                          const ResultKey& key, double value) {
  const auto [campaign, start, end, query] = key;
  auto it = queries.find(query);
  if (it == queries.end()) return false;
  const QueryShape& q = it->second;
  if (end - start != q.range) return false;
  if (((start - q.origin) % q.slide + q.slide) % q.slide != 0) return false;
  return ref.Count(campaign, start, end) > 0 &&
         ref.Sum(campaign, start, end) == value;
}

CheckCounts CheckDashboard(
    const DashboardReference& ref, const std::map<int64_t, QueryShape>& queries,
    const std::vector<std::pair<ResultKey, double>>& got) {
  CheckCounts c;
  c.received = got.size();
  std::map<int64_t, uint64_t> distinct_valid;  // per query
  std::map<ResultKey, uint64_t> seen;
  for (const auto& [key, value] : got) {
    if (!DashboardResultValid(ref, queries, key, value)) {
      ++c.wrong;
      continue;
    }
    if (++seen[key] > 1) {
      ++c.duplicated;
    } else {
      ++distinct_valid[std::get<3>(key)];
    }
  }
  for (const auto& [id, q] : queries) {
    if (!q.complete) continue;
    const uint64_t want = ref.CountWindows(q.range, q.slide, q.origin);
    c.expected += want;
    const uint64_t have = distinct_valid[id];
    c.missing += want > have ? want - have : 0;
  }
  return c;
}

// ---------------------------------------------------------------------------

std::vector<Record> GenerateClicks(const SessionsConfig& config,
                                   uint64_t seed) {
  Rng rng(seed ^ 0x434c4b53ULL);
  ZipfGenerator zipf(config.users, config.zipf_s, rng.NextU64());
  // As for campaigns: the seed varies the clicks, not who the heavy users
  // are.
  Rng catalog(kCatalogSeed);
  const int64_t a = CoprimeMultiplier(config.users, &catalog);
  const int64_t b = static_cast<int64_t>(catalog.NextBelow(config.users));
  std::vector<Record> out;
  out.reserve(config.events);
  for (uint64_t i = 0; i < config.events; ++i) {
    const bool purchase = rng.NextBool(config.purchase_share);
    out.push_back(MakeRecord(
        static_cast<Timestamp>(i),
        Value(Permute(zipf.Next(), config.users, a, b)),
        Value(purchase ? kPurchase : int64_t{0}),
        Value(purchase ? static_cast<int64_t>(1 + rng.NextBelow(1000))
                       : int64_t{0})));
  }
  return out;
}

std::map<ResultKey, double> SessionsReference(const SessionsConfig& config,
                                              const std::vector<Record>& in) {
  struct Open {
    int64_t first;
    int64_t last;
    int64_t count;
  };
  std::unordered_map<int64_t, Open> open;
  std::map<ResultKey, double> ref;
  auto close = [&](int64_t user, const Open& s) {
    ref[{user, s.first, s.last + config.gap_ms, 0}] =
        static_cast<double>(s.count);
  };
  for (const Record& e : in) {  // ascending timestamps
    const int64_t user = e.field(0).AsInt64();
    auto [it, inserted] = open.try_emplace(user, Open{e.timestamp,
                                                      e.timestamp, 1});
    if (inserted) continue;
    Open& s = it->second;
    // Elements exactly `gap` apart share a session (the engine's session
    // window contract); a larger gap starts a new one.
    if (e.timestamp - s.last <= config.gap_ms) {
      s.last = e.timestamp;
      ++s.count;
    } else {
      close(user, s);
      s = Open{e.timestamp, e.timestamp, 1};
    }
  }
  for (const auto& [user, s] : open) close(user, s);
  return ref;
}

std::map<std::pair<int64_t, int64_t>, uint64_t> PurchaseReference(
    const std::vector<Record>& in) {
  std::unordered_map<int64_t, int64_t> total;
  std::map<std::pair<int64_t, int64_t>, uint64_t> ref;
  for (const Record& e : in) {
    if (e.field(1).AsInt64() != kPurchase) continue;
    const int64_t user = e.field(0).AsInt64();
    const int64_t t = total[user] += e.field(2).AsInt64();
    ++ref[{user, t}];
  }
  return ref;
}

CheckCounts CheckPurchases(
    const std::map<std::pair<int64_t, int64_t>, uint64_t>& expected,
    const std::vector<Record>& got) {
  CheckCounts c;
  for (const auto& [k, n] : expected) c.expected += n;
  c.received = got.size();
  std::map<std::pair<int64_t, int64_t>, uint64_t> seen;
  for (const Record& r : got) {
    const std::pair<int64_t, int64_t> k{r.field(0).AsInt64(),
                                        r.field(2).AsInt64()};
    auto it = expected.find(k);
    if (it == expected.end()) {
      ++c.wrong;
    } else if (++seen[k] > it->second) {
      ++c.duplicated;
    }
  }
  for (const auto& [k, n] : expected) {
    auto it = seen.find(k);
    const uint64_t have = it == seen.end() ? 0 : std::min(it->second, n);
    c.missing += n - have;
  }
  return c;
}

}  // namespace perfbench
