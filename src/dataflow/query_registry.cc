#include "dataflow/query_registry.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace streamline {

uint64_t QueryRegistry::AttachSliding(Duration range, Duration slide,
                                      Timestamp origin,
                                      ResultHandler handler) {
  STREAMLINE_CHECK(range > 0 && slide > 0)
      << "standing query needs positive range and slide";
  MutexLock lock(&mu_);
  const uint64_t id = next_id_++;
  const QueryDescriptor desc{range, slide, origin};
  const bool rewrite = FactorsThroughActiveLocked(desc);
  const uint64_t seq = latest_seq_.load(std::memory_order_relaxed) + 1;
  log_.push_back(QueryCommand{seq, QueryCommand::Kind::kAttach, id, desc});
  Entry entry;
  entry.desc = desc;
  entry.attach_seq = seq;
  entry.handler = std::move(handler);
  entries_.emplace(id, std::move(entry));
  ++stats_.attaches;
  ++stats_.active_queries;
  if (rewrite) {
    // The new window factors through an existing query's cut grid: it adds
    // zero new slice boundaries, only result routes (Factor-Windows-style
    // sub-window reuse on top of Cutty sharing).
    ++stats_.rewrites_shared;
    if (rewrites_counter_ != nullptr) rewrites_counter_->Increment();
  }
  if (attaches_counter_ != nullptr) attaches_counter_->Increment();
  UpdateGaugesLocked();
  latest_seq_.store(seq, std::memory_order_release);
  return id;
}

Status QueryRegistry::Detach(uint64_t query_id) {
  MutexLock lock(&mu_);
  auto it = entries_.find(query_id);
  if (it == entries_.end()) {
    return Status::NotFound("unknown query id " + std::to_string(query_id));
  }
  if (it->second.detach_seq != 0) {
    return Status::FailedPrecondition("query " + std::to_string(query_id) +
                                      " already detached");
  }
  const uint64_t seq = latest_seq_.load(std::memory_order_relaxed) + 1;
  log_.push_back(QueryCommand{seq, QueryCommand::Kind::kDetach, query_id,
                              it->second.desc});
  it->second.detach_seq = seq;
  ++stats_.detaches;
  --stats_.active_queries;
  if (detaches_counter_ != nullptr) detaches_counter_->Increment();
  UpdateGaugesLocked();
  latest_seq_.store(seq, std::memory_order_release);
  return Status::Ok();
}

bool QueryRegistry::WaitQueryApplied(uint64_t query_id,
                                     std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  MutexLock lock(&mu_);
  auto it = entries_.find(query_id);
  if (it == entries_.end()) return false;
  // Wait on the latest command concerning the query (detach supersedes).
  const uint64_t seq = std::max(it->second.attach_seq, it->second.detach_seq);
  for (;;) {
    bool applied = !worker_acks_.empty();
    for (const auto& [subtask, acked] : worker_acks_) {
      applied = applied && acked >= seq;
    }
    if (applied) return true;
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return false;
    (void)ack_cv_.WaitFor(&mu_, deadline - now);  // loop re-checks predicate
  }
}

QueryRegistry::Stats QueryRegistry::stats() const {
  MutexLock lock(&mu_);
  return stats_;
}

uint64_t QueryRegistry::ResultCount(uint64_t query_id) const {
  MutexLock lock(&mu_);
  auto it = entries_.find(query_id);
  return it == entries_.end() ? 0 : it->second.results;
}

void QueryRegistry::RegisterWorker(const std::string& worker) {
  MutexLock lock(&mu_);
  worker_acks_.emplace(worker, 0);
}

void QueryRegistry::BindMetrics(MetricsRegistry* metrics) {
  if (metrics == nullptr) return;
  MutexLock lock(&mu_);
  if (metrics_ == metrics) return;
  metrics_ = metrics;
  attaches_counter_ = metrics->GetCounter("registry.attaches");
  detaches_counter_ = metrics->GetCounter("registry.detaches");
  rewrites_counter_ = metrics->GetCounter("registry.rewrites_shared");
  slices_gc_counter_ = metrics->GetCounter("registry.slices_gc");
  queries_gauge_ = metrics->GetGauge("registry.queries");
  slices_shared_gauge_ = metrics->GetGauge("registry.slices_shared");
  // Replay counts accumulated before this job (pre-start attaches, or a
  // whole prior incarnation under the supervisor) into its fresh counters.
  attaches_counter_->Increment(stats_.attaches);
  detaches_counter_->Increment(stats_.detaches);
  rewrites_counter_->Increment(stats_.rewrites_shared);
  slices_gc_counter_->Increment(stats_.slices_gc);
  UpdateGaugesLocked();
}

void QueryRegistry::UnbindMetrics(MetricsRegistry* metrics) {
  MutexLock lock(&mu_);
  if (metrics_ != metrics) return;
  metrics_ = nullptr;
  attaches_counter_ = nullptr;
  detaches_counter_ = nullptr;
  rewrites_counter_ = nullptr;
  slices_gc_counter_ = nullptr;
  queries_gauge_ = nullptr;
  slices_shared_gauge_ = nullptr;
}

std::vector<QueryCommand> QueryRegistry::CommandsAfter(
    uint64_t after_seq) const {
  MutexLock lock(&mu_);
  std::vector<QueryCommand> out;
  // Sequence numbers are 1..log_.size() in order; slice the tail directly.
  if (after_seq < log_.size()) {
    out.assign(log_.begin() + static_cast<ptrdiff_t>(after_seq), log_.end());
  }
  return out;
}

void QueryRegistry::AckApplied(const std::string& worker, uint64_t seq,
                               uint64_t shared_slices, uint64_t slices_freed) {
  MutexLock lock(&mu_);
  worker_acks_[worker] = seq;
  worker_slices_[worker] = shared_slices;
  if (slices_freed > 0) {
    stats_.slices_gc += slices_freed;
    if (slices_gc_counter_ != nullptr) {
      slices_gc_counter_->Increment(slices_freed);
    }
  }
  UpdateGaugesLocked();
  ack_cv_.NotifyAll();
}

void QueryRegistry::Route(const Record& record) {
  ResultHandler handler;
  {
    MutexLock lock(&mu_);
    const uint64_t id =
        record.fields.size() > 3
            ? static_cast<uint64_t>(record.field(3).AsInt64())
            : 0;
    auto it = entries_.find(id);
    if (it != entries_.end()) {
      ++it->second.results;
      handler = it->second.handler;
    } else {
      handler = default_handler_;
    }
  }
  // Invoke outside the lock: handlers may call back into the registry.
  if (handler) handler(record);
}

void QueryRegistry::SetDefaultHandler(ResultHandler handler) {
  MutexLock lock(&mu_);
  default_handler_ = std::move(handler);
}

bool QueryRegistry::FactorsThroughActiveLocked(
    const QueryDescriptor& d) const {
  for (const auto& [id, entry] : entries_) {
    if (entry.detach_seq != 0) continue;
    const QueryDescriptor& e = entry.desc;
    // Every begin of `d` lands on a cut already made for `e`: d's begins
    // are origin_d + k*slide_d, which all lie on e's begin grid iff slide_d
    // is a multiple of slide_e and the origins are congruent mod slide_e.
    if (d.slide % e.slide == 0 &&
        ((d.origin - e.origin) % e.slide + e.slide) % e.slide == 0) {
      return true;
    }
  }
  return false;
}

void QueryRegistry::UpdateGaugesLocked() {
  if (queries_gauge_ != nullptr) {
    queries_gauge_->Set(static_cast<double>(stats_.active_queries));
  }
  if (slices_shared_gauge_ != nullptr) {
    uint64_t total = 0;
    for (const auto& [subtask, slices] : worker_slices_) total += slices;
    slices_shared_gauge_->Set(static_cast<double>(total));
  }
}

}  // namespace streamline
