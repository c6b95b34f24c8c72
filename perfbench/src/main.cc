// streamline_perfbench: runs one benchmark workload and prints its metrics.
//
//   streamline_perfbench --workload <ysb_ingest|dashboard_fanout|
//                        sessions_replay> --seed <n> --seconds <s>
//                        --trace <0|1> [--corrupt none|drop|alter]
//                        [--rate <records/s>] [--trace-dir <dir>]
//                        [--work-dir <dir>]
//
// Notes first; the last line of stdout is one JSON object
// {"attempted", "failed", "metrics": {"<name>": <value>, ...}} holding every
// metric the run measured (a non-finite value is null). perfbench/run.py
// picks the metrics the mode reports, with their units, from BENCHMARK.json
// and prints the result.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench.h"
#include "stats.h"

namespace perfbench {
namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: streamline_perfbench --workload "
               "<ysb_ingest|dashboard_fanout|sessions_replay> --seed <n> "
               "--seconds <s> --trace <0|1> [--corrupt none|drop|alter] "
               "[--rate <records/s>] [--trace-dir <dir>] [--work-dir <dir>]\n",
               why);
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
    } else if (flag == "--trace") {
      o.trace = std::strtol(v.c_str(), &end, 10) != 0;
    } else if (flag == "--rate") {
      o.rate = std::strtod(v.c_str(), &end);
    } else if (flag == "--trace-dir") {
      o.trace_dir = v;
    } else if (flag == "--work-dir") {
      o.work_dir = v;
    } else if (flag == "--corrupt") {
      if (v == "none") {
        o.corrupt = Corruption::kNone;
      } else if (v == "drop") {
        o.corrupt = Corruption::kDropInput;
      } else if (v == "alter") {
        o.corrupt = Corruption::kAlterResult;
      } else {
        Usage("--corrupt takes none, drop or alter");
      }
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      Usage(("bad value for " + flag).c_str());
    }
  }
  if (!have_workload) Usage("--workload is required");
  if (!(o.seconds > 0) || o.seconds > 600) Usage("--seconds out of range");
  return o;
}

// `v` with all its digits; JSON has no NaN or infinity, so those are null.
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Main(int argc, char** argv) {
  const Options options = ParseArgs(argc, argv);
  Tracer tracer(options.trace);

  Report report;
  if (options.workload == "ysb_ingest") {
    report = RunYsb(options, &tracer);
  } else if (options.workload == "dashboard_fanout") {
    report = RunDashboard(options, &tracer);
  } else if (options.workload == "sessions_replay") {
    report = RunSessions(options, &tracer);
  } else {
    Usage(("unknown workload " + options.workload).c_str());
  }

  for (auto& [key, samples] : report.pooled) {
    const auto& [name, unit] = key;
    const Percentiles p = Summarize(&samples);
    if (p.count == 0) continue;
    // With too few samples for any tail percentile, the maximum stands in.
    report.Set(name + "_p50_" + unit, p.p50);
    report.Set(name + "_p99_" + unit, p.tail_pct > 0 ? p.tail : samples.back());
    if (p.tail_pct > 0) {
      report.Note("%s: %zu samples, p99 reported at p%g", name.c_str(),
                  p.count, p.tail_pct);
    } else {
      report.Note("%s: %zu samples, p99 reported as the maximum",
                  name.c_str(), p.count);
    }
  }
  for (const std::string& n : report.notes) std::printf("# %s\n", n.c_str());

  if (options.trace) {
    const auto spans = tracer.spans();
    std::printf("# trace: %zu spans; self time by span name:\n",
                spans.size());
    for (const auto& [name, t] : TotalsByName(spans)) {
      std::printf("#   %-36s n=%-8llu total=%10.3f ms  self=%10.3f ms\n",
                  name.c_str(), static_cast<unsigned long long>(t.count),
                  static_cast<double>(t.total_ns) / 1e6,
                  static_cast<double>(t.self_ns) / 1e6);
    }
    std::filesystem::create_directories(options.trace_dir);
    const std::string path = options.trace_dir + "/" + options.workload +
                             "-seed" + std::to_string(options.seed) +
                             ".spans.jsonl";
    const auto st = tracer.WriteJsonLines(path);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("# trace: spans written to %s\n", path.c_str());
  }

  for (const auto& [name, rounds] : report.per_round) {
    if (!rounds.empty()) report.metrics.emplace(name, Median(rounds));
  }
  std::string json = "{\"attempted\": " + std::to_string(report.attempted) +
                     ", \"failed\": " + std::to_string(report.failed) +
                     ", \"metrics\": {";
  for (const auto& [name, value] : report.metrics) {
    if (json.back() != '{') json += ", ";
    json += "\"" + name + "\": " + JsonNumber(value);
  }
  std::printf("%s}}\n", json.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
