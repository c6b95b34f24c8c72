// dashboard_fanout: an open loop at one fixed rate. A Zipf ad stream over
// 10k campaigns arrives over one producer connection with event time equal
// to due time:
//
//   SocketSource -> KeyBy(campaign) -> WindowAgg WithRegistry (hundreds of
//     resident sliding SUM(cost) queries, attach/detach churn)
//     -> Publish to a keyed SubscriptionServer topic -> 3 subscribers
//
// Two subscribers read from the start; the third joins at half-time
// (snapshot-then-deltas). At half-time the Zipf ranking also rotates, so
// the hot keys move to other key-groups. This is the latency path through
// slicing, the registry, watermarks and egress.

#include <poll.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "api/datastream.h"
#include "bench.h"
#include "checkers.h"
#include "common/random.h"
#include "dataflow/query_registry.h"
#include "net/event_loop.h"
#include "net/socket_source.h"
#include "net/subscription_server.h"
#include "stats.h"
#include "wire.h"

namespace perfbench {
namespace {

using namespace streamline;  // NOLINT(build/namespaces)

// Fixed by the sustainable-rate sweep documented in perfbench/README.md:
// about half the highest rate at which the backlog stays flat.
constexpr double kDefaultRate = 700;
constexpr int64_t kRoundMs = 4'000;
constexpr int kParallelism = 4;
constexpr int kResidentQueries = 200;
constexpr int64_t kChurnEveryMs = 100;
constexpr size_t kChurnLive = 8;
constexpr int kMinRounds = 2;
constexpr size_t kEgressCoalesceBytes = 16u << 20;
const char* const kTopic = "dashboard";

// The spec-defined window of the operator (query id 0).
constexpr Duration kSpecRange = 1'000;
constexpr Duration kSpecSlide = 500;

/// Shape of resident query `i`: slides of 250, 500 and 1000 ms with ranges
/// of one or two slides (so every query reaches steady state within the
/// first half of a round); origins spread in 50 ms steps so firings are
/// spread out.
QueryShape ResidentShape(int i) {
  static constexpr Duration kSlides[] = {250, 500, 1'000};
  QueryShape q;
  q.slide = kSlides[i % 3];
  q.range = q.slide * (1 + (i / 3) % 2);
  q.origin = (static_cast<int64_t>(i) * 50) % q.slide;
  return q;
}

/// Publishes every window result to the topic. In a traced run it also
/// times one Publish call in 16 and stamps its publish time, so the
/// subscriber side can split engine from egress latency.
class PublishSink : public SinkFunction {
 public:
  PublishSink(net::SubscriptionServer* server, Tracer* tracer)
      : server_(server), tracer_(tracer) {}

  void SetDueOrigin(int64_t t0_ns) { t0_ns_.store(t0_ns); }

  Status Invoke(const Record& record) override {
    published_.fetch_add(1, std::memory_order_relaxed);
    if (!tracer_->enabled()) {
      server_->Publish(kTopic, record);
      return Status::Ok();
    }
    const int64_t t0 = NowNs();
    server_->Publish(kTopic, record);
    const int64_t t1 = NowNs();
    MutexLock lock(&mu_);
    if ((++sampled_ & 15) == 0) {
      tracer_->Record("net.Publish", 0, 0, t0, t1);
      publish_us_.push_back((t1 - t0) / 1e3);
      engine_ms_.push_back(
          (t0 - t0_ns_.load() - record.field(2).AsInt64() * 1'000'000) / 1e6);
      publish_ns_[KeyOfResult(record)] = t1;
    }
    return Status::Ok();
  }

  void OnWatermark(Timestamp wm) override {
    if (!tracer_->enabled() || wm == kMaxTimestamp) return;
    const int64_t now = NowNs();
    MutexLock lock(&mu_);
    watermark_lag_ms_.push_back((now - t0_ns_.load() - wm * 1'000'000) / 1e6);
  }

  std::string Name() const override { return "publish"; }

  uint64_t published() const { return published_.load(); }

  struct Samples {
    std::vector<double> publish_us, engine_ms, watermark_lag_ms;
    std::map<ResultKey, int64_t> publish_ns;
  };
  Samples TakeSamples() {
    MutexLock lock(&mu_);
    Samples s{std::move(publish_us_), std::move(engine_ms_),
              std::move(watermark_lag_ms_), std::move(publish_ns_)};
    return s;
  }

 private:
  net::SubscriptionServer* const server_;
  Tracer* const tracer_;
  std::atomic<int64_t> t0_ns_{0};
  std::atomic<uint64_t> published_{0};
  Mutex mu_;
  uint64_t sampled_ STREAMLINE_GUARDED_BY(mu_) = 0;
  std::vector<double> publish_us_ STREAMLINE_GUARDED_BY(mu_);
  std::vector<double> engine_ms_ STREAMLINE_GUARDED_BY(mu_);
  std::vector<double> watermark_lag_ms_ STREAMLINE_GUARDED_BY(mu_);
  std::map<ResultKey, int64_t> publish_ns_ STREAMLINE_GUARDED_BY(mu_);
};

/// What one subscriber saw.
struct SubscriberLog {
  std::vector<std::pair<ResultKey, double>> deltas;
  std::vector<int64_t> recv_ns;  // parallel to deltas
  std::vector<std::pair<ResultKey, double>> snapshot;
  // Materialized dashboard: latest result per campaign.
  std::unordered_map<int64_t, std::pair<ResultKey, double>> state;
};

struct Inputs {
  DashboardConfig config;
  DashboardInput input;
  std::vector<std::string> frames;  // one per due ms
  std::unique_ptr<DashboardReference> reference;
  // Windows the resident queries produce per round (per subscriber).
  uint64_t resident_windows = 0;
};

Round RunRound(const Options& options, const Inputs& in, Rng* rng,
               Tracer* tracer, Report* report) {
  Round out;
  ResetPeakRss();
  const uint64_t trace_id = tracer->NewTraceId();
  ScopedSpan round_span(tracer, "bench.round", 0, trace_id);
  const int64_t t_start = NowNs();
  const int64_t duration_ms = in.config.duration_ms;

  net::EventLoop loop;
  std::shared_ptr<net::SocketIngest> ingest;
  std::unique_ptr<net::SubscriptionServer> server;
  {
    ScopedSpan s(tracer, "net.SocketIngest::Create", round_span.id(),
                 trace_id);
    auto created = net::SocketIngest::Create(&loop, net::IngestOptions{});
    if (!created.ok()) return out;
    ingest = std::move(*created);
  }
  {
    ScopedSpan s(tracer, "net.SubscriptionServer::Create", round_span.id(),
                 trace_id);
    // Window results arrive in bursts (every key of a query fires at once),
    // so the send queues are sized for a burst: a subscriber that keeps up
    // on average never has updates coalesced away.
    net::SubscriptionServer::Options so;
    so.coalesce_threshold_bytes = kEgressCoalesceBytes;
    so.send_buffer_limit_bytes = 4 * kEgressCoalesceBytes;
    auto created = net::SubscriptionServer::Create(&loop, so);
    if (!created.ok()) return out;
    server = std::move(*created);
    if (!server->RegisterTopic(kTopic, /*key_field=*/0).ok()) return out;
  }
  if (!loop.Start().ok()) return out;

  // Resident queries are attached before the first record, so they apply
  // at the first watermark and must produce every window.
  auto registry = std::make_shared<QueryRegistry>();
  std::map<int64_t, QueryShape> queries;
  queries[0] = QueryShape{kSpecRange, kSpecSlide, 0, true};
  {
    ScopedSpan s(tracer, "registry.AttachResident", round_span.id(),
                 trace_id);
    for (int i = 0; i < kResidentQueries; ++i) {
      const QueryShape q = ResidentShape(i);
      const uint64_t id = registry->AttachSliding(q.range, q.slide, q.origin);
      queries[static_cast<int64_t>(id)] = q;
    }
  }

  auto sink = std::make_shared<PublishSink>(server.get(), tracer);
  Environment env(kParallelism);
  env.FromSource(
         "ads",
         [ingest](int, int) -> std::unique_ptr<SourceFunction> {
           // A watermark after every batch: the open loop sends one frame
           // per due millisecond, so event time advances with the clock.
           return std::make_unique<net::SocketSource>(ingest, 1);
         },
         1)
      .KeyBy(0)
      .Window(std::make_shared<SlidingWindowFn>(kSpecRange, kSpecSlide))
      .WithRegistry(registry)
      .Aggregate(DynAggKind::kSum, 1, WindowBackend::kShared, "dash")
      .Sink(sink, "publish");
  auto job = CreateAndStartJob(*env.graph(), JobOptions{}, tracer,
                               round_span.id(), trace_id, report);
  if (!job.ok()) {
    loop.Stop();
    return out;
  }

  // Subscribers: two from the start, one joining at half-time.
  constexpr int kSubs = 3;
  std::unique_ptr<Subscriber> subs[kSubs];
  {
    ScopedSpan s(tracer, "net.Subscribe", round_span.id(), trace_id);
    for (int i = 0; i < 2; ++i) {
      auto c = Subscriber::Connect(server->port(), kTopic);
      if (!c.ok()) {
        report->Note("subscribe: %s", c.status().ToString().c_str());
        (*job)->Cancel();
        (void)(*job)->AwaitCompletion();
        loop.Stop();
        return out;
      }
      subs[i] = std::move(*c);
    }
    const int64_t deadline = NowNs() + 10'000'000'000;
    while (server->stats().snapshots_served < 2 && NowNs() < deadline) {
      std::this_thread::yield();
    }
  }
  std::atomic<Subscriber*> late_sub{nullptr};
  std::atomic<bool> stop_reader{false};
  SubscriberLog logs[kSubs];
  for (SubscriberLog& log : logs) {
    // Reserved up front (pages are touched only as results arrive), so
    // vector regrowth does not add copies to the peak resident set.
    log.deltas.reserve(2 * in.resident_windows);
    log.recv_ns.reserve(2 * in.resident_windows);
  }
  std::atomic<uint64_t> deltas_seen[kSubs] = {0, 0, 0};
  std::thread reader([&] {
    pollfd fds[kSubs];
    for (;;) {
      if (subs[2] == nullptr && late_sub.load() != nullptr) {
        subs[2].reset(late_sub.load());
      }
      int n = 0;
      for (int i = 0; i < kSubs; ++i) {
        if (subs[i] != nullptr) fds[n++] = pollfd{subs[i]->fd(), POLLIN, 0};
      }
      ::poll(fds, n, 2);
      for (int i = 0; i < kSubs; ++i) {
        if (subs[i] == nullptr) continue;
        SubscriberLog& log = logs[i];
        subs[i]->Poll([&log](const Record& r, int64_t now, bool snap) {
          const ResultKey k = KeyOfResult(r);
          const double v = ValueOfResult(r);
          (snap ? log.snapshot : log.deltas).emplace_back(k, v);
          if (!snap) log.recv_ns.push_back(now);
          log.state[std::get<0>(k)] = {k, v};
        });
        deltas_seen[i].store(log.deltas.size());
      }
      if (stop_reader.load()) return;
    }
  });

  // Producer: open loop, one frame per due millisecond, never waits for
  // the engine except through TCP backpressure on its own send.
  std::vector<double> late_ms;
  late_ms.reserve(duration_ms);
  int64_t first_accepted_ns = 0, first_offer_ns = 0, blocked_ns = 0;
  std::atomic<int64_t> due_origin{0};
  double backlog_max = 0;
  MetricsRegistry* metrics = (*job)->metrics();
  Status producer_status;
  std::thread producer([&] {
    auto conn = Producer::Connect(ingest->port());
    if (!conn.ok()) {
      producer_status = conn.status();
      due_origin.store(-1);
      return;
    }
    const int64_t origin = NowNs() + 1'000'000;
    sink->SetDueOrigin(origin);
    due_origin.store(origin);
    uint64_t offered = 0;
    for (int64_t ms = 0; ms < duration_ms; ++ms) {
      if (tracer->enabled() && ms % 50 == 0) {
        // Offered to the keyed operator but not yet consumed by it.
        const double consumed =
            SumMatching(ReadMetrics(*metrics), "task.dash", ".records_in");
        backlog_max =
            std::max(backlog_max, static_cast<double>(offered) - consumed);
      }
      offered += in.input.by_ms[ms].size();
      const int64_t due = origin + ms * 1'000'000;
      for (int64_t now = NowNs(); now < due; now = NowNs()) {
        if (due - now > 200'000) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(due - now -
                                                               100'000));
        }
      }
      const int64_t sent = NowNs();
      if (ms == 0) first_offer_ns = sent;
      late_ms.push_back((sent - due) / 1e6);
      const std::string& f = in.frames[ms];
      if (!f.empty()) {
        const Status s = (*conn)->Send(f.data(), f.size());
        if (!s.ok()) {
          producer_status = s;
          return;
        }
      }
      if (ms == 0) first_accepted_ns = NowNs();
    }
    blocked_ns = (*conn)->blocked_ns();
    (*conn)->Close();
  });

  // Control plane: attach/detach churn and the late subscriber.
  while (due_origin.load() == 0) std::this_thread::yield();
  const int64_t origin = due_origin.load();
  std::vector<uint64_t> churn;
  std::vector<double> attach_ms;
  double slices_mid = 0;
  bool late_joined = false;
  for (int64_t next = origin + kChurnEveryMs * 1'000'000; origin > 0;
       next += kChurnEveryMs * 1'000'000) {
    if (next > origin + (duration_ms - 300) * 1'000'000) break;
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(next)));
    if (!late_joined && next >= origin + duration_ms / 2 * 1'000'000) {
      const auto m = ReadMetrics(*metrics);
      if (auto it = m.find("registry.slices_shared"); it != m.end()) {
        slices_mid = it->second;
      }
      ScopedSpan s(tracer, "net.SubscribeLate", round_span.id(), trace_id);
      auto c = Subscriber::Connect(server->port(), kTopic);
      ++out.ops;
      if (c.ok()) {
        late_sub.store(c->release());
      } else {
        ++out.failed_ops;
      }
      late_joined = true;
    }
    if (churn.size() >= kChurnLive) {
      ++out.ops;
      if (!registry->Detach(churn.front()).ok()) ++out.failed_ops;
      churn.erase(churn.begin());
    }
    QueryShape q;
    q.slide = 250 * (1 + static_cast<int64_t>(rng->NextBelow(4)));
    q.range = q.slide * (1 + static_cast<int64_t>(rng->NextBelow(3)));
    q.origin = 50 * static_cast<int64_t>(rng->NextBelow(q.slide / 50));
    q.complete = false;
    const uint64_t attach_trace = tracer->NewTraceId();
    const int64_t a0 = NowNs();
    const uint64_t id = registry->AttachSliding(q.range, q.slide, q.origin);
    const int64_t a1 = NowNs();
    const bool applied =
        registry->WaitQueryApplied(id, std::chrono::milliseconds(2'000));
    const int64_t a2 = NowNs();
    const uint64_t parent = tracer->Record("registry.Attach", 0, attach_trace,
                                           a0, a2);
    tracer->Record("registry.AttachSliding", parent, attach_trace, a0, a1);
    tracer->Record("registry.WaitQueryApplied", parent, attach_trace, a1, a2);
    ++out.ops;
    if (!applied) ++out.failed_ops;
    attach_ms.push_back((a2 - a0) / 1e6);
    queries[static_cast<int64_t>(id)] = q;
    churn.push_back(id);
  }

  producer.join();
  const Status st = (*job)->AwaitCompletion();
  const uint64_t published = sink->published();
  // Drain: both from-start subscribers get every published result.
  const int64_t drain_deadline = NowNs() + 10'000'000'000;
  auto delivered = [&] {
    return deltas_seen[0].load() >= published &&
           deltas_seen[1].load() >= published &&
           server->TotalQueuedBytes() == 0;
  };
  while (!delivered() && NowNs() < drain_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stop_reader.store(true);
  reader.join();
  if (subs[2] == nullptr) subs[2].reset(late_sub.exchange(nullptr));
  out.peak_rss_mb = PeakRssMb();
  const auto egress = server->stats();
  loop.Stop();
  if (!st.ok() || !producer_status.ok()) {
    report->Note("round failed: job=%s producer=%s", st.ToString().c_str(),
                 producer_status.ToString().c_str());
    return out;
  }

  // Checks: both from-start subscribers see every resident window exactly
  // once with the reference SUM; the late subscriber's snapshot is valid
  // and its materialized dashboard ends equal to a from-start one.
  if (options.corrupt == Corruption::kAlterResult && !logs[0].deltas.empty()) {
    logs[0].deltas[logs[0].deltas.size() / 2].second += 1;
  }
  {
    ScopedSpan s(tracer, "bench.check", round_span.id(), trace_id);
    for (int i = 0; i < 2; ++i) {
      out.check.Add(CheckDashboard(*in.reference, queries, logs[i].deltas));
    }
    if (late_joined) {
      CheckCounts late;
      late.received = logs[2].snapshot.size() + logs[2].deltas.size();
      for (const auto& [k, v] : logs[2].snapshot) {
        if (!DashboardResultValid(*in.reference, queries, k, v)) ++late.wrong;
      }
      for (const auto& [k, v] : logs[2].deltas) {
        if (!DashboardResultValid(*in.reference, queries, k, v)) ++late.wrong;
      }
      late.expected = logs[0].state.size();
      for (const auto& [campaign, kv] : logs[0].state) {
        auto it = logs[2].state.find(campaign);
        if (it == logs[2].state.end()) {
          ++late.missing;
        } else if (it->second != kv) {
          ++late.wrong;
        }
      }
      out.check.Add(late);
    }
  }
  out.ops += egress.slow_disconnects;
  out.failed_ops += egress.slow_disconnects;

  int64_t last_recv = 0;
  for (int i = 0; i < 2; ++i) {
    const SubscriberLog& log = logs[i];
    for (size_t j = 0; j < log.deltas.size(); ++j) {
      last_recv = std::max(last_recv, log.recv_ns[j]);
      const auto& [campaign, start, end, query] = log.deltas[j].first;
      // Windows closed by the final end-of-input flush have no due time;
      // churned queries' backfilled windows were due before they attached.
      auto q = queries.find(query);
      if (end >= duration_ms || q == queries.end() || !q->second.complete) {
        continue;
      }
      out.latency_ms.push_back(
          (log.recv_ns[j] - origin - end * 1'000'000) / 1e6);
    }
  }
  {
    // Backlog check: at a rate the engine sustains, the latency of one
    // window shape stays flat once every query is in steady state; a
    // growing backlog makes the last quarter slower than the third.
    std::vector<double> early, late;
    for (size_t j = 0; j < logs[0].deltas.size(); ++j) {
      const auto& [campaign, start, end, query] = logs[0].deltas[j].first;
      if (query != 0) continue;  // one fixed window shape
      const double l = (logs[0].recv_ns[j] - origin - end * 1'000'000) / 1e6;
      if (end >= duration_ms / 2 && end < duration_ms * 3 / 4) {
        early.push_back(l);
      } else if (end >= duration_ms * 3 / 4 && end < duration_ms) {
        late.push_back(l);
      }
    }
    report->Note("round: results/sub=%zu p50 third quarter %.2f ms, last "
                 "quarter %.2f ms; coalesced=%llu slow_disconnects=%llu",
                 logs[0].deltas.size(), Median(early), Median(late),
                 static_cast<unsigned long long>(egress.coalesced_updates),
                 static_cast<unsigned long long>(egress.slow_disconnects));
  }
  out.setup_s = (first_accepted_ns - t_start) / 1e9;
  out.throughput = static_cast<double>(in.input.total) /
                   ((last_recv - first_offer_ns) / 1e9);
  out.ok = true;

  // Per-layer numbers of this round.
  auto samples = sink->TakeSamples();
  if (tracer->enabled()) {
    std::vector<double> egress_ms;
    for (int i = 0; i < 2; ++i) {
      for (size_t j = 0; j < logs[i].deltas.size(); ++j) {
        auto it = samples.publish_ns.find(logs[i].deltas[j].first);
        if (it == samples.publish_ns.end()) continue;
        egress_ms.push_back((logs[i].recv_ns[j] - it->second) / 1e6);
      }
    }
    auto p = [](std::vector<double>* v, double pct) {
      std::sort(v->begin(), v->end());
      return pct == 50 ? SortedQuantile(*v, 0.5) : SupportedPercentile(*v, pct);
    };
    report->AddRound("net.publish_p50_us", p(&samples.publish_us, 50));
    report->AddRound("net.publish_p99_us", p(&samples.publish_us, 99));
    report->AddRound("net.egress_latency_p50_ms", p(&egress_ms, 50));
    report->AddRound("net.egress_latency_p99_ms", p(&egress_ms, 99));
    report->AddRound("dataflow.engine_latency_p50_ms",
                     p(&samples.engine_ms, 50));
    report->AddRound("dataflow.engine_latency_p99_ms",
                     p(&samples.engine_ms, 99));
    report->AddRound("dataflow.watermark_lag_p99_ms",
                     p(&samples.watermark_lag_ms, 99));
  }
  report->AddRound("dataflow.backlog_max_records", backlog_max);
  report->AddRound("bench.gen_late_p99_ms", [&] {
    std::sort(late_ms.begin(), late_ms.end());
    return SupportedPercentile(late_ms, 99);
  }());
  report->AddRound("bench.send_blocked_share",
                   static_cast<double>(blocked_ns) /
                       static_cast<double>(duration_ms * 1'000'000));
  report->Pool("registry.attach_applied", "ms", attach_ms);
  const auto is = ingest->stats();
  report->AddRound("net.ingest_pauses", static_cast<double>(is.pauses));
  report->AddRound("net.ingest_frames", static_cast<double>(is.frames));
  report->AddRound("net.ingest_bytes_per_record",
                   static_cast<double>(is.bytes) /
                       std::max<double>(1, static_cast<double>(is.records)));
  report->AddRound("net.egress_bytes_sent",
                   static_cast<double>(egress.bytes_sent));
  report->AddRound("net.egress_coalesced",
                   static_cast<double>(egress.coalesced_updates));
  report->AddRound("net.egress_max_queued_bytes",
                   static_cast<double>(egress.max_queued_bytes));
  report->AddRound("net.egress_slow_disconnects",
                   static_cast<double>(egress.slow_disconnects));
  report->AddRound("net.snapshots_served",
                   static_cast<double>(egress.snapshots_served));
  const auto m = ReadMetrics(*(*job)->metrics());
  report->AddRound("dataflow.shuffle_bytes_per_record",
                   SumMatching(m, "task.ads", ".bytes_out") /
                       static_cast<double>(in.input.total));
  report->AddRound("dataflow.filter_selectivity",
                   SumMatching(m, "task.dash", ".records_in") /
                       static_cast<double>(in.input.total));
  report->AddRound("window.results_per_kinput",
                   1e3 * static_cast<double>(published) /
                       static_cast<double>(in.input.total));
  const auto rs = registry->stats();
  report->AddRound("registry.rewrites_shared",
                   static_cast<double>(rs.rewrites_shared));
  report->AddRound("registry.slices_gc", static_cast<double>(rs.slices_gc));
  report->AddRound("registry.slices_shared", slices_mid);
  AddWindowStateRound(m, "dash", report);
  AddSchedulerRound(m, report);
  return out;
}

}  // namespace

Report RunDashboard(const Options& options, Tracer* tracer) {
  Report report;
  Inputs in;
  in.config.duration_ms = kRoundMs;
  in.config.rate_per_s = options.rate > 0 ? options.rate : kDefaultRate;
  in.input = GenerateDashboard(in.config, options.seed);
  if (options.corrupt == Corruption::kDropInput) {
    // The first record due after a third of the round is never sent; the
    // reference below is built from the regenerated input, which keeps it.
    for (size_t ms = kRoundMs / 3; ms < in.input.by_ms.size(); ++ms) {
      if (!in.input.by_ms[ms].empty()) {
        in.input.by_ms[ms].pop_back();
        break;
      }
    }
  }
  in.frames.resize(in.input.by_ms.size());
  for (size_t ms = 0; ms < in.input.by_ms.size(); ++ms) {
    const auto& b = in.input.by_ms[ms];
    if (!b.empty()) in.frames[ms] = net::EncodeDataBatch(b.data(), b.size());
  }
  if (options.corrupt == Corruption::kDropInput) {
    in.input = GenerateDashboard(in.config, options.seed);
  }
  in.reference = std::make_unique<DashboardReference>(in.input);
  in.resident_windows = in.reference->CountWindows(kSpecRange, kSpecSlide, 0);
  for (int i = 0; i < kResidentQueries; ++i) {
    const QueryShape q = ResidentShape(i);
    in.resident_windows += in.reference->CountWindows(q.range, q.slide,
                                                      q.origin);
  }
  std::vector<Timestamp> ts;
  std::vector<Value> keys;
  for (const auto& bucket : in.input.by_ms) {
    for (const Record& e : bucket) {
      ts.push_back(e.timestamp);
      keys.push_back(e.field(0));
    }
  }
  AddPartitionSkew(ts, keys, kRoundMs / 2, kParallelism, &report);
  report.Note("dashboard_fanout: %.0f rec/s open loop, %lld ms rounds, "
              "%d resident queries",
              in.config.rate_per_s, static_cast<long long>(kRoundMs),
              kResidentQueries);

  Rng rng(options.seed * 7919 + 1);
  RoundPlan plan;
  plan.min_rounds = kMinRounds;
  plan.open_loop = true;
  RunRounds(
      options, plan,
      [&](Tracer* t, size_t, Report* r) {
        return RunRound(options, in, &rng, t, r);
      },
      tracer, &report);
  return report;
}

}  // namespace perfbench
