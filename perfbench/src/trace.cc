#include "trace.h"

#include <algorithm>
#include <fstream>
#include <unordered_map>
#include <utility>

namespace perfbench {

using streamline::MutexLock;
using streamline::Status;

uint64_t Tracer::Record(std::string_view name, uint64_t parent,
                        uint64_t trace_id, int64_t start_ns, int64_t end_ns) {
  if (!enabled_) return 0;
  MutexLock lock(&mu_);
  Span s;
  s.id = spans_.size() + 1;
  s.parent = parent;
  s.trace_id = trace_id;
  s.name = std::string(name);
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

uint64_t Tracer::Begin(std::string_view name, uint64_t parent,
                       uint64_t trace_id) {
  const int64_t now = NowNs();
  return Record(name, parent, trace_id, now, now);
}

void Tracer::End(uint64_t id) {
  if (!enabled_ || id == 0) return;
  const int64_t now = NowNs();
  MutexLock lock(&mu_);
  spans_[id - 1].end_ns = now;  // ids are 1-based positions in spans_
}

std::vector<Span> Tracer::spans() const {
  MutexLock lock(&mu_);
  return spans_;
}

Status Tracer::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::Internal("cannot open trace file " + path);
  for (const Span& s : spans()) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"trace\":" << s.trace_id << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << "}\n";
  }
  out.flush();
  if (!out) return Status::Internal("short write to trace file " + path);
  return Status::Ok();
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, size_t> index;
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    auto it = index.find(s.parent);
    if (s.parent == 0 || it == index.end()) continue;
    const Span& p = spans[it->second];
    const int64_t lo = std::max(s.start_ns, p.start_ns);
    const int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) children[it->second].emplace_back(lo, hi);
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

std::map<std::string, SpanTotals> TotalsByName(
    const std::vector<Span>& spans) {
  const std::vector<int64_t> self = SelfTimesNs(spans);
  std::map<std::string, SpanTotals> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = out[spans[i].name];
    ++t.count;
    t.total_ns += spans[i].end_ns - spans[i].start_ns;
    t.self_ns += self[i];
  }
  return out;
}

}  // namespace perfbench
