#include "bench.h"

#include "stats.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>

namespace perfbench {

void Report::Note(const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  notes.emplace_back(buf);
}

namespace {

/// The kinds of round a run is made of.
enum class RoundKind { kUntraced, kTraced, kW1 };

const char* KindName(RoundKind k) {
  switch (k) {
    case RoundKind::kUntraced:
      return "untraced";
    case RoundKind::kTraced:
      return "traced";
    case RoundKind::kW1:
      return "untraced, worker_threads=1";
  }
  return "";
}

}  // namespace

void RunRounds(const Options& options, const RoundPlan& plan,
               const RoundFn& round, Tracer* tracer, Report* report) {
  std::vector<RoundKind> cycle = {RoundKind::kUntraced};
  if (tracer->enabled()) {
    cycle.push_back(RoundKind::kTraced);
    if (plan.w1_baseline) cycle.push_back(RoundKind::kW1);
  }
  Tracer off(false);
  // Per kind: throughput and p50 latency of each good round.
  std::map<RoundKind, std::vector<double>> tput, p50;
  size_t min_samples = SIZE_MAX;
  const int64_t t_begin = NowNs();
  int n = 0;
  for (int c = 0;; ++c) {
    const bool elapsed = (NowNs() - t_begin) / 1e9 >= options.seconds;
    if (c >= plan.min_rounds && elapsed) break;
    for (size_t i = 0; i < cycle.size(); ++i, ++n) {
      const RoundKind kind = cycle[(c + i) % cycle.size()];
      const bool traced = kind == RoundKind::kTraced;
      // Only traced rounds feed the per-layer metrics.
      Report scratch;
      Round r = round(traced ? tracer : &off,
                      kind == RoundKind::kW1 ? 1 : 0,
                      traced ? report : &scratch);
      report->notes.insert(report->notes.end(), scratch.notes.begin(),
                           scratch.notes.end());
      const uint64_t expected =
          std::max<uint64_t>(r.check.expected, plan.expected_results);
      report->attempted += expected + r.ops + 1;  // + the round itself
      report->failed += (r.ok ? r.check.failures() : expected + 1) +
                        r.failed_ops;
      if (!r.ok || r.check.failures() + r.failed_ops > 0) {
        report->Note("round %d (%s): ok=%d %s failed_ops=%llu", n,
                     KindName(kind), r.ok, r.check.ToString().c_str(),
                     static_cast<unsigned long long>(r.failed_ops));
      }
      if (!r.ok) continue;
      auto l = r.latency_ms;
      std::sort(l.begin(), l.end());
      report->Note("round %d (%s): %.0f rec/s, latency p50 %.2f ms p99 "
                   "%.2f ms, setup %.2f ms, peak rss %.0f MiB",
                   n, KindName(kind), r.throughput, SortedQuantile(l, 0.5),
                   SortedQuantile(l, 0.99), r.setup_s * 1e3, r.peak_rss_mb);
      tput[kind].push_back(r.throughput);
      p50[kind].push_back(SortedQuantile(l, 0.5));
      if (traced && plan.sink_receives) {
        AddLatencyRound(r.latency_ms, "dataflow.engine_latency", report);
      }
      if (tracer->enabled()) continue;
      report->AddRound("throughput_rps", r.throughput);
      report->AddRound("setup_s", r.setup_s);
      report->AddRound("peak_rss_mb", r.peak_rss_mb);
      min_samples = std::min(min_samples,
                             AddLatencyRound(r.latency_ms, "latency", report));
    }
  }
  const auto& base = tput[RoundKind::kUntraced];
  if (!tracer->enabled()) {
    report->Note("%zu rounds, median %.0f rec/s, >= %zu latency samples per "
                 "round",
                 base.size(), Median(base), min_samples);
    return;
  }
  // Positive = tracing costs: throughput lost, or latency added.
  const auto& before = plan.open_loop ? p50[RoundKind::kUntraced] : base;
  const auto& after =
      plan.open_loop ? p50[RoundKind::kTraced] : tput[RoundKind::kTraced];
  if (!before.empty() && !after.empty()) {
    const double b = Median(before), a = Median(after);
    report->Set("bench.trace_overhead_pct",
                100.0 * (plan.open_loop ? a - b : b - a) / b);
    report->Note("tracing overhead: %s median %.6g untraced vs %.6g traced "
                 "(%zu and %zu rounds)",
                 plan.open_loop ? "latency p50 ms" : "rec/s", b, a,
                 before.size(), after.size());
  }
  const auto& w1 = tput[RoundKind::kW1];
  if (plan.w1_baseline && !base.empty() && !w1.empty()) {
    report->Set("scheduler.w1_speedup", Median(base) / Median(w1));
    report->Note("w1 speedup: median %.0f rec/s default pool vs %.0f rec/s "
                 "worker_threads=1 (%zu and %zu untraced rounds)",
                 Median(base), Median(w1), base.size(), w1.size());
  }
}

streamline::Result<std::unique_ptr<streamline::Job>> CreateAndStartJob(
    const streamline::LogicalGraph& graph, const streamline::JobOptions& jo,
    Tracer* tracer, uint64_t parent, uint64_t trace_id, Report* report) {
  int64_t t0 = NowNs();
  auto job = streamline::Job::Create(graph, jo);
  int64_t t1 = NowNs();
  tracer->Record("dataflow.Job::Create", parent, trace_id, t0, t1);
  report->AddRound("dataflow.job_create_s", (t1 - t0) / 1e9);
  if (!job.ok()) {
    report->Note("job create: %s", job.status().ToString().c_str());
    return job.status();
  }
  t0 = NowNs();
  const streamline::Status st = (*job)->Start();
  t1 = NowNs();
  tracer->Record("dataflow.Job::Start", parent, trace_id, t0, t1);
  report->AddRound("dataflow.job_start_s", (t1 - t0) / 1e9);
  if (!st.ok()) {
    report->Note("job start: %s", st.ToString().c_str());
    return st;
  }
  return job;
}

void ResetPeakRss() {
  malloc_trim(0);  // hand freed heap back first: rounds start level
  std::ofstream f("/proc/self/clear_refs");
  f << "5";  // resets VmHWM to the current RSS (Linux >= 4.0)
}

double PeakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
}

std::map<std::string, double> ReadMetrics(
    const streamline::MetricsRegistry& metrics) {
  std::map<std::string, double> out;
  std::istringstream in(metrics.Report());
  std::string line;
  while (std::getline(in, line)) {
    const size_t sp = line.find(' ');
    if (sp == std::string::npos) continue;
    char* end = nullptr;
    const std::string rest = line.substr(sp + 1);
    const double v = std::strtod(rest.c_str(), &end);
    if (end == rest.c_str() || *end != '\0') continue;  // histogram summary
    out[line.substr(0, sp)] = v;
  }
  return out;
}

static bool Matches(const std::string& name, const std::string& prefix,
                    const std::string& suffix) {
  return name.size() >= prefix.size() + suffix.size() &&
         name.compare(0, prefix.size(), prefix) == 0 &&
         name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
             0;
}

std::vector<double> Matching(const std::map<std::string, double>& m,
                             const std::string& prefix,
                             const std::string& suffix) {
  std::vector<double> out;
  for (const auto& [name, v] : m) {
    if (Matches(name, prefix, suffix)) out.push_back(v);
  }
  return out;
}

double SumMatching(const std::map<std::string, double>& m,
                   const std::string& prefix, const std::string& suffix) {
  const auto v = Matching(m, prefix, suffix);
  return std::accumulate(v.begin(), v.end(), 0.0);
}

size_t AddLatencyRound(std::vector<double> samples, const std::string& prefix,
                       Report* report) {
  const Percentiles p = Summarize(&samples);
  if (p.count == 0) return 0;
  report->AddRound(prefix + "_p50_ms", p.p50);
  const double p99 = SupportedPercentile(samples, 99);
  if (std::isnan(p99)) {
    report->Note("%s: %zu samples in a round, too few for p99",
                 prefix.c_str(), p.count);
  } else {
    report->AddRound(prefix + "_p99_ms", p99);
  }
  return p.count;
}

void AddSchedulerRound(const std::map<std::string, double>& m,
                       Report* report) {
  auto get = [&m](const std::string& k) {
    auto it = m.find("scheduler." + k);
    return it == m.end() ? 0.0 : it->second;
  };
  const double workers = get("workers");
  const double wall = get("wall_micros");
  const double busy = SumMatching(m, "scheduler.worker", ".busy_micros");
  const double morsels = get("morsels_local") + get("morsels_stolen") +
                         get("morsels_injected") + get("morsels_inline");
  if (workers <= 0 || wall <= 0 || morsels <= 0) return;
  report->AddRound("scheduler.busy_share", busy / (workers * wall));
  report->AddRound("scheduler.steal_share", get("morsels_stolen") / morsels);
  report->AddRound("scheduler.parks_per_kmorsel",
                   1e3 * get("parks") / morsels);
  report->AddRound("scheduler.wakeups_per_kmorsel",
                   1e3 * get("wakeups") / morsels);
}

void AddWindowStateRound(const std::map<std::string, double>& m,
                         const std::string& op, Report* report) {
  const std::string prefix = "op." + op + ".";
  const auto keys = Matching(m, prefix, ".state.keys");
  if (keys.empty()) return;
  report->AddRound("window.state_keys",
                   std::accumulate(keys.begin(), keys.end(), 0.0));
  auto lf = Matching(m, prefix, ".state.load_factor");
  std::sort(lf.begin(), lf.end());
  report->AddRound("window.load_factor", lf[lf.size() / 2]);
  const auto probe = Matching(m, prefix, ".state.max_probe");
  report->AddRound("window.max_probe",
                   *std::max_element(probe.begin(), probe.end()));
}

double Skew(const std::vector<double>& per_subtask) {
  if (per_subtask.empty()) return 0;
  const double total =
      std::accumulate(per_subtask.begin(), per_subtask.end(), 0.0);
  if (total <= 0) return 0;
  const double mean = total / static_cast<double>(per_subtask.size());
  return *std::max_element(per_subtask.begin(), per_subtask.end()) / mean;
}

void AddPartitionSkew(const std::vector<streamline::Timestamp>& ts,
                      const std::vector<streamline::Value>& keys,
                      streamline::Timestamp shift_ts, int parallelism,
                      Report* report) {
  std::vector<double> before(parallelism), after(parallelism);
  for (size_t i = 0; i < keys.size(); ++i) {
    const uint64_t target = streamline::KeyHashOf(keys[i]) %
                            static_cast<uint64_t>(parallelism);
    (ts[i] < shift_ts ? before : after)[target] += 1;
  }
  report->Set("dataflow.partition_skew", Skew(before));
  report->Set("dataflow.partition_skew_after_shift", Skew(after));
}

TempDir::TempDir(const std::string& parent) {
  namespace fs = std::filesystem;
  fs::create_directories(parent);
  std::string templ = (fs::path(parent) / "run-XXXXXX").string();
  if (::mkdtemp(templ.data()) == nullptr) {
    std::fprintf(stderr, "mkdtemp under %s failed\n", parent.c_str());
    std::exit(2);
  }
  path_ = templ;
}

TempDir::~TempDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

}  // namespace perfbench
