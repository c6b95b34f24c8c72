#include "common/thread_pool.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#if defined(__linux__)
#include <pthread.h>
#endif

#include "common/logging.h"

namespace streamline {
namespace {

// Worker identity for deque selection: which pool (if any) owns the
// calling thread, and that thread's worker index.
thread_local WorkStealingPool* tls_pool = nullptr;
thread_local size_t tls_worker_index = 0;

// Yields this many times while empty before parking: cheap wakeups beat
// latency, and on busy hosts a peer needs the core more than the spin.
constexpr int kIdleSpinBudget = 64;

// Parked workers still wake at this cadence as a backstop against lost
// wakeups.
constexpr auto kParkBackstop = std::chrono::milliseconds(1);

void SetCurrentThreadName(const std::string& name) {
#if defined(__linux__)
  // pthread_setname_np silently fails past 15 chars + NUL; truncate.
  pthread_setname_np(pthread_self(), name.substr(0, 15).c_str());
#else
  (void)name;
#endif
}

}  // namespace

WorkStealingPool::WorkStealingPool(Options options)
    : name_prefix_(options.thread_name_prefix) {
  size_t n = options.num_workers;
  if (n == 0) n = std::max(1u, std::thread::hardware_concurrency());
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back(std::make_unique<Worker>());
  }
  // Threads start only after every Worker slot exists: WorkerMain scans
  // peers' deques, so the vector must be fully formed first.
  for (size_t i = 0; i < n; ++i) {
    workers_[i]->thread = std::thread([this, i] { WorkerMain(i); });
  }
}

WorkStealingPool::~WorkStealingPool() { Shutdown(); }

void WorkStealingPool::Notify(Schedulable* task) {
  // State machine, transitions owned as follows. Notify may take
  //   kIdle -> kQueued            (then enqueues -- only the transitioner
  //                                enqueues, so the task sits in at most
  //                                one queue slot per kQueued episode)
  //   kRunning -> kRunningNotified (the running worker requeues at finish)
  // and treats kQueued / kRunningNotified as already-covered no-ops.
  // Claiming (ClaimAndRun) takes kQueued -> kRunning with an acquire
  // CAS; the finish protocol (RunClaimed) owns every transition out of
  // kRunning*. The release/acquire pairing on
  // claim/finish is the happens-before edge that hands the task's
  // non-atomic state from one worker to the next.
  uint32_t state = task->sched_state_.load(std::memory_order_relaxed);
  for (;;) {
    if (state == Schedulable::kQueued ||
        state == Schedulable::kRunningNotified) {
      return;  // someone will (re)run it; nothing to do
    }
    if (state == Schedulable::kIdle) {
      if (task->sched_state_.compare_exchange_weak(
              state, Schedulable::kQueued, std::memory_order_acq_rel,
              std::memory_order_relaxed)) {
        counters_.notifies.fetch_add(1, std::memory_order_relaxed);
        Enqueue(task, /*to_front=*/true);
        return;
      }
      continue;  // raced; state reloaded
    }
    // state == kRunning: ask the running worker to requeue after Step.
    if (task->sched_state_.compare_exchange_weak(
            state, Schedulable::kRunningNotified, std::memory_order_acq_rel,
            std::memory_order_relaxed)) {
      return;
    }
  }
}

void WorkStealingPool::Enqueue(Schedulable* task, bool to_front) {
  if (tls_pool == this) {
    Worker& w = *workers_[tls_worker_index];
    MutexLock lock(&w.mu);
    // Newly notified work goes to the front: the owner drains LIFO for
    // cache locality (a batch just produced is consumed next). A task
    // requeueing itself after a morsel goes to the back so long-running
    // producers round-robin with their consumers instead of starving
    // them. Thieves take from the back (the oldest, coldest task).
    if (to_front) {
      w.deque.push_front(task);
    } else {
      w.deque.push_back(task);
    }
    w.approx_size.store(w.deque.size(), std::memory_order_relaxed);
  } else {
    MutexLock lock(&global_mu_);
    global_.push_back(task);
    global_size_.store(global_.size(), std::memory_order_relaxed);
  }
  WakeOne();
}

void WorkStealingPool::WakeOne() {
  if (num_parked_approx_.load(std::memory_order_seq_cst) == 0) return;
  {
    // Empty critical section: serializes with a worker between its "deques
    // are empty" check and its park, so the notify below cannot be lost.
    MutexLock lock(&park_mu_);
  }
  counters_.wakeups.fetch_add(1, std::memory_order_relaxed);
  park_cv_.NotifyOne();
}

void WorkStealingPool::WakeAllForShutdown() {
  {
    MutexLock lock(&park_mu_);
  }
  park_cv_.NotifyAll();
}

bool WorkStealingPool::ClaimAndRun(Schedulable* task,
                                   std::atomic<uint64_t>* morsel_counter) {
  uint32_t expected = Schedulable::kQueued;
  if (!task->sched_state_.compare_exchange_strong(
          expected, Schedulable::kRunning, std::memory_order_acq_rel,
          std::memory_order_relaxed)) {
    return false;  // stale queue entry: claimed (and maybe requeued) elsewhere
  }
  morsel_counter->fetch_add(1, std::memory_order_relaxed);
  RunClaimed(task);
  return true;
}

void WorkStealingPool::RunClaimed(Schedulable* task) {
  const bool time_it = tls_pool == this;
  std::chrono::steady_clock::time_point start;
  if (time_it) {
    start = std::chrono::steady_clock::now();
    Worker& self = *workers_[tls_worker_index];
    self.current_since_ns.store(
        static_cast<uint64_t>(start.time_since_epoch().count()),
        std::memory_order_relaxed);
    self.current.store(task, std::memory_order_relaxed);
  }
  const bool more = task->Step();
  if (time_it) {
    Worker& self = *workers_[tls_worker_index];
    self.current.store(nullptr, std::memory_order_relaxed);
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    self.busy_ns.fetch_add(static_cast<uint64_t>(ns),
                           std::memory_order_relaxed);
  }
  // Finish protocol. We own the kRunning* state; Notify may still flip
  // kRunning -> kRunningNotified concurrently.
  for (;;) {
    uint32_t state = task->sched_state_.load(std::memory_order_relaxed);
    if (more || state == Schedulable::kRunningNotified) {
      // Requeue. The release store also covers a Notify that lands between
      // the load and the store: kQueued already means "will run again".
      task->sched_state_.store(Schedulable::kQueued,
                               std::memory_order_release);
      Enqueue(task, /*to_front=*/false);
      return;
    }
    // No more work and no notify seen: try to go idle. A concurrent
    // Notify flips the state under us and the CAS fails -> loop requeues.
    if (task->sched_state_.compare_exchange_weak(
            state, Schedulable::kIdle, std::memory_order_release,
            std::memory_order_relaxed)) {
      return;
    }
  }
}

bool WorkStealingPool::TryRunOneTask() {
  const bool on_pool = tls_pool == this;
  auto run_from_global = [this]() -> bool {
    for (;;) {
      Schedulable* task = nullptr;
      {
        MutexLock lock(&global_mu_);
        if (!global_.empty()) {
          task = global_.front();
          global_.pop_front();
          global_size_.store(global_.size(), std::memory_order_relaxed);
        }
      }
      if (task == nullptr) return false;
      if (ClaimAndRun(task, &counters_.morsels_injected)) return true;
    }
  };
  // 0. Fairness backstop: a worker whose own deque never drains (one
  // self-requeuing task is enough) would otherwise never reach step 2,
  // starving off-pool notifies forever. Poll the global queue *first* on
  // every kGlobalPollStride-th acquisition (Go's scheduler plays the same
  // trick with its global runq).
  if (on_pool) {
    constexpr uint64_t kGlobalPollStride = 61;
    Worker& self = *workers_[tls_worker_index];
    if (++self.tick % kGlobalPollStride == 0 &&
        global_size_.load(std::memory_order_relaxed) != 0 &&
        run_from_global()) {
      return true;
    }
  }
  // 1. Own deque, newest first (LIFO: hot caches).
  if (on_pool) {
    Worker& self = *workers_[tls_worker_index];
    for (;;) {
      Schedulable* task = nullptr;
      {
        MutexLock lock(&self.mu);
        if (!self.deque.empty()) {
          task = self.deque.front();
          self.deque.pop_front();
          self.approx_size.store(self.deque.size(),
                                 std::memory_order_relaxed);
        }
      }
      if (task == nullptr) break;
      if (ClaimAndRun(task, &counters_.morsels_local)) return true;
    }
  }
  // 2. Global injection queue (notifies from outside the pool).
  if (global_size_.load(std::memory_order_relaxed) != 0 &&
      run_from_global()) {
    return true;
  }
  // 3. Steal the oldest task from a peer. Start past our own index so
  // victims differ across workers instead of all hammering worker 0.
  const size_t n = workers_.size();
  const size_t start = on_pool ? tls_worker_index + 1 : 0;
  for (size_t k = 0; k < n; ++k) {
    const size_t v = (start + k) % n;
    if (on_pool && v == tls_worker_index) continue;
    Worker& victim = *workers_[v];
    if (victim.approx_size.load(std::memory_order_relaxed) == 0) continue;
    for (;;) {
      Schedulable* task = nullptr;
      {
        MutexLock lock(&victim.mu);
        if (!victim.deque.empty()) {
          task = victim.deque.back();
          victim.deque.pop_back();
          victim.approx_size.store(victim.deque.size(),
                                   std::memory_order_relaxed);
        }
      }
      if (task == nullptr) break;
      if (ClaimAndRun(task, &counters_.morsels_stolen)) {
        counters_.steals.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
    }
  }
  return false;
}

void WorkStealingPool::WorkerMain(size_t index) {
  SetCurrentThreadName(name_prefix_ + std::to_string(index));
  tls_pool = this;
  tls_worker_index = index;
  int idle_spins = 0;
  while (!shutdown_.load(std::memory_order_acquire)) {
    if (TryRunOneTask()) {
      idle_spins = 0;
      continue;
    }
    if (++idle_spins < kIdleSpinBudget) {
      std::this_thread::yield();
      continue;
    }
    idle_spins = 0;
    counters_.parks.fetch_add(1, std::memory_order_relaxed);
    MutexLock lock(&park_mu_);
    if (shutdown_.load(std::memory_order_acquire)) break;
    ++num_parked_;
    num_parked_approx_.store(static_cast<int>(num_parked_),
                             std::memory_order_seq_cst);
    park_cv_.WaitFor(&park_mu_, kParkBackstop);
    --num_parked_;
    num_parked_approx_.store(static_cast<int>(num_parked_),
                             std::memory_order_seq_cst);
  }
  tls_pool = nullptr;
}

uint64_t WorkStealingPool::ScheduleRepeating(int64_t period_ms,
                                             std::function<void()> fn) {
  STREAMLINE_CHECK_GT(period_ms, 0);
  uint64_t id;
  {
    MutexLock lock(&timer_mu_);
    STREAMLINE_CHECK(!shutdown_.load(std::memory_order_relaxed))
        << "ScheduleRepeating after Shutdown";
    id = next_timer_id_++;
    TimerEntry entry;
    entry.id = id;
    entry.period_ms = period_ms;
    entry.next = std::chrono::steady_clock::now() +
                 std::chrono::milliseconds(period_ms);
    entry.fn = std::move(fn);
    timers_.push_back(std::move(entry));
    EnsureTimerThreadLocked();
  }
  timer_cv_.NotifyAll();
  return id;
}

void WorkStealingPool::CancelTimer(uint64_t id) {
  MutexLock lock(&timer_mu_);
  for (auto it = timers_.begin(); it != timers_.end(); ++it) {
    if (it->id == id) {
      timers_.erase(it);
      break;
    }
  }
  // A cancelled timer's callback may still be mid-flight on the timer
  // thread; TimerMain re-checks existence before rescheduling.
}

void WorkStealingPool::EnsureTimerThreadLocked() {
  if (timer_thread_started_) return;
  timer_thread_started_ = true;
  timer_thread_ = std::thread([this] { TimerMain(); });
}

void WorkStealingPool::TimerMain() {
  SetCurrentThreadName(name_prefix_ + "T");
  timer_mu_.Lock();
  while (!shutdown_.load(std::memory_order_acquire)) {
    if (timers_.empty()) {
      timer_cv_.WaitFor(&timer_mu_, std::chrono::milliseconds(50));
      continue;
    }
    auto soonest = std::min_element(timers_.begin(), timers_.end(),
                                    [](const TimerEntry& a, const TimerEntry& b) {
                                      return a.next < b.next;
                                    });
    const auto now = std::chrono::steady_clock::now();
    if (soonest->next > now) {
      timer_cv_.WaitFor(&timer_mu_, soonest->next - now);
      continue;
    }
    // Run the callback without the lock so it may call CancelTimer /
    // ScheduleRepeating; re-find the entry by id afterwards since the
    // vector may have changed underneath us.
    const uint64_t id = soonest->id;
    std::function<void()> fn = soonest->fn;
    timer_mu_.Unlock();
    fn();
    timer_mu_.Lock();
    for (TimerEntry& t : timers_) {
      if (t.id == id) {
        t.next = std::chrono::steady_clock::now() +
                 std::chrono::milliseconds(t.period_ms);
        break;
      }
    }
  }
  timer_mu_.Unlock();
}

void WorkStealingPool::Shutdown() {
  bool expected = false;
  if (!shutdown_.compare_exchange_strong(expected, true,
                                         std::memory_order_acq_rel)) {
    return;
  }
  WakeAllForShutdown();
  {
    MutexLock lock(&timer_mu_);
  }
  timer_cv_.NotifyAll();
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
  if (timer_thread_.joinable()) timer_thread_.join();
  // Drop queued-but-unstarted morsels: their owners are torn down with us.
  {
    MutexLock lock(&global_mu_);
    global_.clear();
    global_size_.store(0, std::memory_order_relaxed);
  }
  for (auto& w : workers_) {
    MutexLock lock(&w->mu);
    w->deque.clear();
    w->approx_size.store(0, std::memory_order_relaxed);
  }
}

bool WorkStealingPool::OnWorkerThread() const { return tls_pool == this; }

uint64_t WorkStealingPool::WorkerBusyMicros(size_t i) const {
  STREAMLINE_CHECK_LT(i, workers_.size());
  return workers_[i]->busy_ns.load(std::memory_order_relaxed) / 1000;
}

std::string WorkStealingPool::DebugQueues() {
  char buf[64];
  std::string out;
  const uint64_t now_ns = static_cast<uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  for (size_t i = 0; i < workers_.size(); ++i) {
    if (Schedulable* cur =
            workers_[i]->current.load(std::memory_order_relaxed)) {
      const uint64_t since =
          workers_[i]->current_since_ns.load(std::memory_order_relaxed);
      std::snprintf(buf, sizeof(buf), "w%zu@%p(%.1fs) ", i,
                    static_cast<void*>(cur),
                    static_cast<double>(now_ns - since) / 1e9);
      out += buf;
    }
    out += "w" + std::to_string(i) + "[";
    MutexLock lock(&workers_[i]->mu);
    for (size_t j = 0; j < workers_[i]->deque.size(); ++j) {
      if (j > 0) out += " ";
      std::snprintf(buf, sizeof(buf), "%p",
                    static_cast<void*>(workers_[i]->deque[j]));
      out += buf;
    }
    out += "] ";
  }
  out += "g[";
  MutexLock lock(&global_mu_);
  for (size_t j = 0; j < global_.size(); ++j) {
    if (j > 0) out += " ";
    std::snprintf(buf, sizeof(buf), "%p", static_cast<void*>(global_[j]));
    out += buf;
  }
  out += "]";
  return out;
}

size_t WorkStealingPool::ApproxReadyDepth() const {
  size_t depth = global_size_.load(std::memory_order_relaxed);
  for (const auto& w : workers_) {
    depth += w->approx_size.load(std::memory_order_relaxed);
  }
  return depth;
}

ThreadPool::ThreadPool(size_t num_threads)
    : pool_([num_threads] {
        STREAMLINE_CHECK_GT(num_threads, 0u);
        WorkStealingPool::Options o;
        o.num_workers = num_threads;
        o.thread_name_prefix = "sl-pool";
        return o;
      }()) {
  drainers_.reserve(pool_.num_workers());
  for (size_t i = 0; i < pool_.num_workers(); ++i) {
    drainers_.emplace_back(std::make_unique<Drainer>(this));
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(&mu_);
    STREAMLINE_CHECK(!shutdown_) << "Submit after Shutdown";
    tasks_.push_back(std::move(task));
    ++outstanding_;
  }
  // Every drainer gets notified so queued closures spread across workers;
  // surplus drainers find an empty queue and go idle immediately.
  for (auto& d : drainers_) pool_.Notify(d.get());
}

bool ThreadPool::DrainOne() {
  std::function<void()> task;
  {
    MutexLock lock(&mu_);
    if (tasks_.empty()) return false;
    task = std::move(tasks_.front());
    tasks_.pop_front();
  }
  task();
  bool more;
  {
    MutexLock lock(&mu_);
    --outstanding_;
    more = !tasks_.empty();
    if (outstanding_ == 0) idle_.NotifyAll();
  }
  return more;
}

void ThreadPool::Wait() {
  MutexLock lock(&mu_);
  while (outstanding_ != 0) idle_.Wait(&mu_);
}

void ThreadPool::Shutdown() {
  {
    MutexLock lock(&mu_);
    if (shutdown_) return;
    shutdown_ = true;
  }
  // Historical contract: Shutdown completes already-submitted work.
  Wait();
  pool_.Shutdown();
}

}  // namespace streamline
