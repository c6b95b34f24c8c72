// ysb_ingest: a bounded flood of pre-encoded Yahoo Streaming Benchmark ad
// events over one loopback SocketIngest connection, closed-loop through TCP
// backpressure from one producer thread:
//
//   SocketSource -> Filter(views) -> Map(ad -> campaign) -> KeyBy(campaign)
//     -> 10 s tumbling COUNT -> checking sink
//
// The per-record path dominates (ingest decode, the fused chain, shuffle,
// FoldSpan, the scheduler); state is tiny and there are no checkpoints or
// egress.

#include <algorithm>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "api/datastream.h"
#include "bench.h"
#include "checkers.h"
#include "net/event_loop.h"
#include "net/socket_source.h"
#include "stats.h"
#include "wire.h"

namespace perfbench {
namespace {

using namespace streamline;  // NOLINT(build/namespaces)

constexpr uint64_t kEvents = 2'000'000;
constexpr size_t kRecordsPerFrame = 256;
constexpr int kParallelism = 4;
constexpr int kMinRounds = 3;

/// Collects window results with their receive time. Runs on the window
/// operator's subtasks, so it locks.
class CheckSink : public SinkFunction {
 public:
  Status Invoke(const Record& record) override {
    const int64_t now = NowNs();
    MutexLock lock(&mu_);
    results_.push_back({KeyOfResult(record), ValueOfResult(record)});
    recv_ns_.push_back(now);
    invoke_ns_ += NowNs() - now;
    return Status::Ok();
  }
  std::string Name() const override { return "ysb-check"; }

  std::vector<std::pair<ResultKey, double>> results() const {
    MutexLock lock(&mu_);
    return results_;
  }
  std::vector<int64_t> recv_ns() const {
    MutexLock lock(&mu_);
    return recv_ns_;
  }
  int64_t invoke_ns() const {
    MutexLock lock(&mu_);
    return invoke_ns_;
  }

 private:
  mutable Mutex mu_;
  std::vector<std::pair<ResultKey, double>> results_ STREAMLINE_GUARDED_BY(mu_);
  std::vector<int64_t> recv_ns_ STREAMLINE_GUARDED_BY(mu_);
  int64_t invoke_ns_ STREAMLINE_GUARDED_BY(mu_) = 0;
};

struct Wire {
  std::vector<std::string> frames;
  // Window start -> frame holding the window's last record: the result is
  // due once that frame was offered.
  std::map<int64_t, size_t> closing_frame;
  // Views offered once frame i was sent (the keyed operator's input).
  std::vector<uint64_t> views_through;
  uint64_t records = 0;
};

Wire Encode(const YsbConfig& config, const YsbInput& input,
            Corruption corrupt) {
  Wire w;
  std::vector<Record> batch;
  bool dropped = false;
  uint64_t views = 0;
  for (size_t i = 0; i < input.events.size(); ++i) {
    const Record& e = input.events[i];
    if (corrupt == Corruption::kDropInput && !dropped &&
        e.field(1).AsInt64() == kYsbView && i >= input.events.size() / 2) {
      dropped = true;  // the reference still counts it
      continue;
    }
    batch.push_back(e);
    views += e.field(1).AsInt64() == kYsbView ? 1 : 0;
    const int64_t start = e.timestamp - e.timestamp % config.window_ms;
    w.closing_frame[start] = w.frames.size();
    if (batch.size() == kRecordsPerFrame || i + 1 == input.events.size()) {
      w.frames.push_back(net::EncodeDataBatch(batch.data(), batch.size()));
      w.views_through.push_back(views);
      w.records += batch.size();
      batch.clear();
    }
  }
  return w;
}

Round RunRound(const Options& options, const YsbConfig& config,
               const YsbInput& input, const Wire& wire,
               const std::map<ResultKey, double>& reference, size_t workers,
               Tracer* tracer, Report* report) {
  Round out;
  ResetPeakRss();
  const uint64_t trace_id = tracer->NewTraceId();
  ScopedSpan round_span(tracer, "bench.round", 0, trace_id);
  const int64_t t_start = NowNs();

  net::EventLoop loop;
  std::shared_ptr<net::SocketIngest> ingest;
  {
    ScopedSpan s(tracer, "net.SocketIngest::Create", round_span.id(),
                 trace_id);
    auto created = net::SocketIngest::Create(&loop, net::IngestOptions{});
    if (!created.ok()) {
      report->Note("ingest: %s", created.status().ToString().c_str());
      return out;
    }
    ingest = std::move(*created);
  }
  if (!loop.Start().ok()) return out;

  auto sink = std::make_shared<CheckSink>();
  Environment env(kParallelism);
  const auto campaigns = std::make_shared<std::vector<int64_t>>(
      input.ad_to_campaign);
  env.FromSource(
         "ysb-ingest",
         [ingest](int, int) -> std::unique_ptr<SourceFunction> {
           return std::make_unique<net::SocketSource>(ingest);
         },
         1)
      .Filter([](const Record& r) { return r.field(1).AsInt64() == kYsbView; },
              "views")
      .Map(
          [campaigns](Record&& r) {
            r.fields[0] = Value((*campaigns)[r.field(0).AsInt64()]);
            return std::move(r);
          },
          "campaign")
      .KeyBy(0)
      .Window(std::make_shared<TumblingWindowFn>(config.window_ms))
      .Aggregate(DynAggKind::kCount, 0, WindowBackend::kShared, "count")
      .Sink(sink, "check");
  JobOptions jo;
  jo.worker_threads = workers;
  auto job = CreateAndStartJob(*env.graph(), jo, tracer, round_span.id(),
                               trace_id, report);
  if (!job.ok()) {
    loop.Stop();
    return out;
  }

  // Producer: closed loop, TCP backpressure is the only throttle.
  std::vector<int64_t> send_ns(wire.frames.size(), 0);
  int64_t first_accepted_ns = 0, first_offer_ns = 0, producer_ns = 0;
  int64_t blocked_ns = 0;
  double backlog_max = 0;
  Status producer_status;
  const bool traced = tracer->enabled();
  MetricsRegistry* metrics = (*job)->metrics();
  std::thread producer([&] {
    auto conn = Producer::Connect(ingest->port());
    if (!conn.ok()) {
      producer_status = conn.status();
      return;
    }
    const int64_t p0 = NowNs();
    first_offer_ns = p0;
    for (size_t f = 0; f < wire.frames.size(); ++f) {
      send_ns[f] = NowNs();
      const Status s = (*conn)->Send(wire.frames[f].data(),
                                     wire.frames[f].size());
      if (!s.ok()) {
        producer_status = s;
        return;
      }
      if (f == 0) first_accepted_ns = NowNs();
      if (traced && (f % 64) == 0) {
        tracer->Record("net.send", 0, trace_id, send_ns[f], NowNs());
        // Offered to the keyed operator but not yet consumed by it.
        const double consumed =
            SumMatching(ReadMetrics(*metrics), "task.count", ".records_in");
        backlog_max = std::max(
            backlog_max, static_cast<double>(wire.views_through[f]) - consumed);
      }
    }
    blocked_ns = (*conn)->blocked_ns();
    (*conn)->Close();
    producer_ns = NowNs() - p0;
  });

  const Status st = (*job)->AwaitCompletion();
  producer.join();
  const int64_t t_done = NowNs();
  out.peak_rss_mb = PeakRssMb();
  loop.Stop();
  if (!st.ok() || !producer_status.ok()) {
    report->Note("round failed: job=%s producer=%s", st.ToString().c_str(),
                 producer_status.ToString().c_str());
    return out;
  }

  // Check against the reference.
  auto results = sink->results();
  if (options.corrupt == Corruption::kAlterResult && !results.empty()) {
    results[results.size() / 2].second += 1;
  }
  {
    ScopedSpan s(tracer, "bench.check", round_span.id(), trace_id);
    out.check = CheckExact(reference, results);
  }
  const auto recv = sink->recv_ns();
  int64_t last_recv = t_done;
  if (!recv.empty()) last_recv = *std::max_element(recv.begin(), recv.end());
  for (size_t i = 0; i < results.size(); ++i) {
    auto it = wire.closing_frame.find(std::get<1>(results[i].first));
    if (it == wire.closing_frame.end()) continue;
    out.latency_ms.push_back((recv[i] - send_ns[it->second]) / 1e6);
  }
  out.setup_s = (first_accepted_ns - t_start) / 1e9;
  out.throughput = static_cast<double>(wire.records) /
                   ((last_recv - first_offer_ns) / 1e9);
  out.ok = true;

  // Per-layer numbers of this round.
  const auto m = ReadMetrics(*metrics);
  const auto is = ingest->stats();
  report->AddRound("bench.send_blocked_share",
                   producer_ns > 0 ? static_cast<double>(blocked_ns) /
                                         static_cast<double>(producer_ns)
                                   : 0);
  report->AddRound("net.ingest_pauses", static_cast<double>(is.pauses));
  report->AddRound("net.ingest_frames", static_cast<double>(is.frames));
  report->AddRound("net.ingest_bytes_per_record",
                   static_cast<double>(is.bytes) /
                       std::max<double>(1, static_cast<double>(is.records)));
  const double window_in = SumMatching(m, "task.count", ".records_in");
  report->AddRound("dataflow.filter_selectivity",
                   window_in / static_cast<double>(wire.records));
  report->AddRound("dataflow.shuffle_bytes_per_record",
                   SumMatching(m, "task.ysb-ingest", ".bytes_out") /
                       static_cast<double>(wire.records));
  report->AddRound("dataflow.sink_invoke_ns",
                   static_cast<double>(sink->invoke_ns()) /
                       std::max<double>(1, static_cast<double>(
                                               results.size())));
  report->AddRound("dataflow.backlog_max_records", backlog_max);
  report->AddRound("window.results_per_kinput",
                   1e3 * static_cast<double>(results.size()) /
                       static_cast<double>(wire.records));
  AddWindowStateRound(m, "count", report);
  AddSchedulerRound(m, report);
  return out;
}

}  // namespace

Report RunYsb(const Options& options, Tracer* tracer) {
  Report report;
  YsbConfig config;
  config.events = kEvents;
  YsbInput input = GenerateYsb(config, options.seed);
  const auto reference = YsbReference(config, input);
  const Wire wire = Encode(config, input, options.corrupt);
  {
    std::vector<Timestamp> ts;
    std::vector<Value> keys;
    for (const Record& e : input.events) {
      if (e.field(1).AsInt64() != kYsbView) continue;
      ts.push_back(e.timestamp);
      keys.push_back(Value(input.ad_to_campaign[e.field(0).AsInt64()]));
    }
    AddPartitionSkew(ts, keys, input.events.back().timestamp / 2,
                     kParallelism, &report);
  }
  std::vector<Record>().swap(input.events);  // only the wire is replayed
  ResetPeakRss();
  report.Note("ysb_ingest: %llu events in %zu frames, %zu expected results",
              static_cast<unsigned long long>(wire.records),
              wire.frames.size(), reference.size());

  RoundPlan plan;
  plan.min_rounds = kMinRounds;
  plan.expected_results = reference.size();
  // The sink is the receiver here, so engine latency (last contributing
  // record offered -> sink Invoke) is the end-to-end latency.
  plan.sink_receives = true;
  plan.w1_baseline = true;
  RunRounds(
      options, plan,
      [&](Tracer* t, size_t workers, Report* r) {
        return RunRound(options, config, input, wire, reference, workers, t,
                        r);
      },
      tracer, &report);
  return report;
}

}  // namespace perfbench
