#ifndef STREAMLINE_COMMON_FAULT_INJECTION_H_
#define STREAMLINE_COMMON_FAULT_INJECTION_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/random.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace streamline {

/// Deterministic fault injection for chaos tests and benchmarks. The
/// executor consults the injector at every instrumented *site* -- a string
/// label like "source:gen", "op:window_agg" or "op:sink_0" derived from the
/// logical graph's node names -- and a matching rule makes that site fail:
/// either with an error Status (the library's native error path) or by
/// throwing std::runtime_error (modeling a bug in user code). Rules are
/// scriptable as "site X fails at the Nth hit", "on checkpoint K" (the
/// snapshot call for checkpoint K fails) or "with probability p" under the
/// injector's seed, so any crash an operator, source or sink can suffer is
/// reproducible run-to-run.
///
/// One injector is shared by every task of a job (and, under a supervisor,
/// by every restarted incarnation): rule counters persist across restarts,
/// so a "fail once at record N" rule does not re-fire after recovery.
/// Thread-safe; the per-hit mutex is acceptable because injection is a
/// test/bench facility (JobOptions::fault_injector is null in production
/// and the executor's fast path is a single pointer check).
class FaultInjector {
 public:
  enum class FaultKind : uint8_t {
    kStatus = 0,  // the instrumented site fails with Status::Internal
    kThrow = 1,   // the instrumented site throws std::runtime_error
  };

  struct Rule {
    /// Site label to match; "*" matches every site.
    std::string site;
    FaultKind kind = FaultKind::kStatus;
    /// The site is broken from the Nth matching record-path hit (1-based)
    /// onward, bounded by max_fires; 0 disables. With the default
    /// max_fires = 1 this is "fail exactly once, at hit N".
    uint64_t at_hit = 0;
    /// Fire when the site snapshots checkpoint id K; 0 disables.
    uint64_t at_checkpoint = 0;
    /// Fire on any record-path hit with this probability; 0 disables.
    double probability = 0.0;
    /// How many times this rule may fire in total; 0 = unlimited.
    uint64_t max_fires = 1;
  };

  explicit FaultInjector(uint64_t seed = 42) : rng_(seed) {}

  /// Rule builders for the common shapes.
  static Rule FailAtHit(std::string site, uint64_t n,
                        FaultKind kind = FaultKind::kStatus);
  static Rule FailOnCheckpoint(std::string site, uint64_t checkpoint_id,
                               FaultKind kind = FaultKind::kStatus);
  static Rule FailWithProbability(std::string site, double p,
                                  FaultKind kind = FaultKind::kStatus,
                                  uint64_t max_fires = 1);

  void AddRule(Rule rule);

  /// Record-path hook: called per record delivered to the site. Returns a
  /// non-ok Status when a kStatus rule fires; throws std::runtime_error
  /// when a kThrow rule fires.
  Status OnHit(std::string_view site);

  /// Outcome of probing a span of `count` record hits at once (a batch
  /// hop's equivalent of `count` OnHit calls). `passed` records precede
  /// the fault; when `fired`, the caller must process exactly that prefix
  /// and then apply the fault itself -- fail with `status` for kStatus
  /// rules, throw std::runtime_error(`message`) for kThrow rules -- so
  /// batch delivery reproduces record-by-record delivery exactly.
  struct SpanFault {
    size_t passed = 0;
    bool fired = false;
    FaultKind kind = FaultKind::kStatus;
    Status status;
    std::string message;
  };

  /// Probes `count` consecutive record hits at `site` under one lock,
  /// with identical hit accounting and rule evaluation (including
  /// probability draws) to `count` OnHit calls. Unlike OnHit it never
  /// throws: a kThrow fault is returned for the caller to raise after the
  /// passed prefix was processed. Hits after a fired fault are not
  /// counted, matching record-by-record delivery, which stops at the
  /// fault.
  SpanFault OnSpan(std::string_view site, size_t count);

  /// Checkpoint-path hook: called when the site is about to snapshot state
  /// for `checkpoint_id`. Same firing semantics as OnHit.
  Status OnCheckpoint(std::string_view site, uint64_t checkpoint_id);

  /// Total faults fired so far (across all rules).
  uint64_t fires() const;
  /// Record-path hits observed at `site` so far.
  uint64_t hits(std::string_view site) const;

 private:
  struct RuleState {
    Rule rule;
    uint64_t hits = 0;
    uint64_t fires = 0;
  };

  /// Fires rule `rs` for `site`: throws or returns an error Status.
  Status Fire(RuleState* rs, std::string_view site, const std::string& why)
      STREAMLINE_REQUIRES(mu_);

  mutable Mutex mu_;
  Rng rng_ STREAMLINE_GUARDED_BY(mu_);
  std::vector<RuleState> rules_ STREAMLINE_GUARDED_BY(mu_);
  std::vector<std::pair<std::string, uint64_t>> site_hits_
      STREAMLINE_GUARDED_BY(mu_);
  uint64_t fires_ STREAMLINE_GUARDED_BY(mu_) = 0;
};

}  // namespace streamline

#endif  // STREAMLINE_COMMON_FAULT_INJECTION_H_
