#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

// Shared plumbing of the workload runners: command-line options, the result
// report every workload fills in, and readers for the counters the engine
// already exports.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "checkers.h"
#include "common/metrics.h"
#include "common/time.h"
#include "common/value.h"
#include "dataflow/executor.h"
#include "trace.h"

namespace perfbench {

/// Deliberate corruption for the checker self-test: the run must then
/// report failures.
enum class Corruption {
  kNone,
  kDropInput,    // one generated input record is never sent
  kAlterResult,  // one received result has its value changed
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Corruption corrupt = Corruption::kNone;
  /// dashboard_fanout input rate (records/s); 0 = the workload default.
  double rate = 0;
  /// Where the traced run writes its span file.
  std::string trace_dir = ".";
  /// Parent of the per-round scratch directories (checkpoint stores).
  std::string work_dir = ".";
};

/// What one workload run produced: every metric it measured, by name.
/// End-to-end metrics are measured in untraced runs, per-layer metrics in
/// traced runs; run.py picks the set the mode asks for from BENCHMARK.json,
/// which also holds their units.
struct Report {
  /// Final values (e.g. a percentile over the samples of every round).
  std::map<std::string, double> metrics;
  /// One value per round; main() reports their median.
  std::map<std::string, std::vector<double>> per_round;
  /// Results expected plus operations attempted.
  uint64_t attempted = 0;
  /// Missing, wrong or duplicated results plus failed operations.
  uint64_t failed = 0;
  std::vector<std::string> notes;

  /// Samples pooled over all rounds, for timings a single round has too
  /// few of: `<name>_p50_<unit>` and `<name>_p99_<unit>` are taken over
  /// the pool, the latter at the highest percentile the pool supports.
  std::map<std::pair<std::string, std::string>, std::vector<double>> pooled;

  void Set(const std::string& name, double value) { metrics[name] = value; }
  void Pool(const std::string& name, const std::string& unit,
            const std::vector<double>& samples) {
    auto& v = pooled[{name, unit}];
    v.insert(v.end(), samples.begin(), samples.end());
  }
  void AddRound(const std::string& name, double value) {
    per_round[name].push_back(value);
  }
  void Note(const char* fmt, ...) __attribute__((format(printf, 2, 3)));
};

/// What one round (one fresh job) of a workload measured.
struct Round {
  /// The round ran to the end and its results were checked.
  bool ok = false;
  double setup_s = 0;
  double peak_rss_mb = 0;
  double throughput = 0;
  std::vector<double> latency_ms;
  CheckCounts check;
  /// Control operations (attaches, detaches, joins) and how many failed.
  uint64_t ops = 0;
  uint64_t failed_ops = 0;
};

/// How a workload's rounds are run and reported.
struct RoundPlan {
  int min_rounds = 3;
  /// Results every round must deliver; a round that fails counts them all
  /// as failed. 0 when the round's check knows (it counts them itself).
  uint64_t expected_results = 0;
  /// The sink receives the results, so a round's latency samples are also
  /// the engine latency (dataflow.engine_latency_*).
  bool sink_receives = false;
  /// Open loop at a fixed rate: tracing overhead shows in latency, not in
  /// throughput.
  bool open_loop = false;
  /// Traced runs also run untraced rounds at worker_threads=1 for
  /// scheduler.w1_speedup.
  bool w1_baseline = false;
};

/// Runs one round. `tracer` is disabled in untraced rounds; `workers` is
/// JobOptions::worker_threads (0 = the default pool); per-layer numbers go
/// to `report`.
using RoundFn =
    std::function<Round(Tracer* tracer, size_t workers, Report* report)>;

/// Runs rounds for options.seconds, and at least plan.min_rounds of them,
/// and fills `report`. Every round adds to attempted/failed. An untraced
/// run reports the end-to-end metrics as medians over rounds. A traced run
/// repeats cycles of an untraced round, a traced round and, with
/// plan.w1_baseline, an untraced round at worker_threads=1, each cycle
/// starting one step later so warm-up and drift hit every kind alike.
/// Per-layer metrics come from the traced rounds; bench.trace_overhead_pct
/// compares the medians of the traced and untraced rounds, and
/// scheduler.w1_speedup those of the untraced default-pool and
/// worker_threads=1 rounds.
void RunRounds(const Options& options, const RoundPlan& plan,
               const RoundFn& round, Tracer* tracer, Report* report);

/// Job::Create, then Start, each timed into dataflow.job_create_s and
/// dataflow.job_start_s and recorded as a span under `parent`. A failure is
/// noted in `report` and returned.
streamline::Result<std::unique_ptr<streamline::Job>> CreateAndStartJob(
    const streamline::LogicalGraph& graph, const streamline::JobOptions& jo,
    Tracer* tracer, uint64_t parent, uint64_t trace_id, Report* report);

/// Returns freed heap to the system and resets the peak resident set to
/// the current one, so a round's peak does not include input generation or
/// what earlier rounds left in the allocator.
void ResetPeakRss();
/// Peak resident set of this process since the last ResetPeakRss, in MiB.
/// Workloads reset it at the start of each round and report the median of
/// the rounds' peaks.
double PeakRssMb();

/// All counters and gauges of a job's registry, by name.
std::map<std::string, double> ReadMetrics(
    const streamline::MetricsRegistry& metrics);

/// Sum of the values whose name starts with `prefix` and ends with
/// `suffix`.
double SumMatching(const std::map<std::string, double>& m,
                   const std::string& prefix, const std::string& suffix);
/// The values whose name starts with `prefix` and ends with `suffix`.
std::vector<double> Matching(const std::map<std::string, double>& m,
                             const std::string& prefix,
                             const std::string& suffix);

/// Adds one round's latency percentiles, `<prefix>_p50_ms` and
/// `<prefix>_p99_ms`, of which the report gives the median over rounds. A
/// round with fewer than 1000 samples (ten beyond p99) adds no p99 and a
/// note. Returns the sample count.
size_t AddLatencyRound(std::vector<double> samples, const std::string& prefix,
                       Report* report);

/// Adds one round of scheduler layer metrics from a completed job's
/// scheduler.* gauges: busy_share, steal_share, parks_per_kmorsel and
/// wakeups_per_kmorsel.
void AddSchedulerRound(const std::map<std::string, double>& m,
                       Report* report);

/// Adds one round of window state metrics from the per-subtask
/// op.<op>.<i>.state.{keys,load_factor,max_probe} gauges of window
/// operator `op`: keys summed, median load factor, longest probe.
void AddWindowStateRound(const std::map<std::string, double>& m,
                         const std::string& op, Report* report);

/// Max / mean of per-subtask counts; 1 = perfectly even.
double Skew(const std::vector<double>& per_subtask);

/// Sets dataflow.partition_skew and dataflow.partition_skew_after_shift:
/// the skew of input records over `parallelism` keyed subtasks before and
/// from `shift_ts` on. The engine exports no per-subtask record counter,
/// so the split is derived from the generated keys with the engine's
/// public KeyHashOf and its hash-modulo routing of keyed edges.
void AddPartitionSkew(const std::vector<streamline::Timestamp>& ts,
                      const std::vector<streamline::Value>& keys,
                      streamline::Timestamp shift_ts, int parallelism,
                      Report* report);

/// A fresh directory under `parent`, removed with its contents by the
/// destructor.
class TempDir {
 public:
  explicit TempDir(const std::string& parent);
  ~TempDir();
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Workload entry points.
Report RunYsb(const Options& options, Tracer* tracer);
Report RunDashboard(const Options& options, Tracer* tracer);
Report RunSessions(const Options& options, Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
