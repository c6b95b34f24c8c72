#ifndef STREAMLINE_COMMON_SPSC_RING_H_
#define STREAMLINE_COMMON_SPSC_RING_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

namespace streamline {

/// Cache-line size used for padding hot atomics. 64 bytes covers x86 and
/// most ARM cores; over-aligning on exotic hardware only wastes bytes.
inline constexpr size_t kCacheLineSize = 64;

/// Bounded lock-free single-producer/single-consumer ring buffer -- the
/// engine's per-edge data-plane channel. One thread may call the producer
/// side (TryPush), one thread the consumer side (TryPop); head and tail
/// live on separate cache lines and each side keeps a cached copy of the
/// other's index, so the steady-state fast path touches no shared cache
/// line beyond the slot itself (acquire/release ordering only, no RMW).
///
/// Capacity is rounded up to a power of two. Elements must be
/// default-constructible and move-assignable.
template <typename T>
class SpscRing {
 public:
  explicit SpscRing(size_t capacity)
      : capacity_(RoundUpPow2(capacity < 1 ? 1 : capacity)),
        mask_(capacity_ - 1),
        slots_(new T[capacity_]) {}

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  /// Producer side. Returns false when the ring is full.
  bool TryPush(T&& item) {
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - cached_head_ >= capacity_) {
      cached_head_ = head_.load(std::memory_order_acquire);
      if (tail - cached_head_ >= capacity_) return false;
    }
    slots_[tail & mask_] = std::move(item);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side. Returns false when the ring is empty.
  bool TryPop(T* out) {
    const uint64_t head = head_.load(std::memory_order_relaxed);
    if (head == cached_tail_) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      if (head == cached_tail_) return false;
    }
    *out = std::move(slots_[head & mask_]);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Producer-side full check (exact for the producer, approximate
  /// elsewhere).
  bool Full() const {
    return tail_.load(std::memory_order_acquire) -
               head_.load(std::memory_order_acquire) >=
           capacity_;
  }

  /// Consumer-side empty check (exact for the consumer, approximate
  /// elsewhere).
  bool Empty() const {
    return head_.load(std::memory_order_acquire) ==
           tail_.load(std::memory_order_acquire);
  }

  /// Approximate element count (exact only from a quiescent state).
  size_t size() const {
    const uint64_t tail = tail_.load(std::memory_order_acquire);
    const uint64_t head = head_.load(std::memory_order_acquire);
    return static_cast<size_t>(tail - head);
  }

  size_t capacity() const { return capacity_; }

 private:
  static size_t RoundUpPow2(size_t v) {
    size_t p = 1;
    while (p < v) p <<= 1;
    return p;
  }

  const size_t capacity_;
  const size_t mask_;
  std::unique_ptr<T[]> slots_;

  // Consumer-owned line: read index plus a cached copy of the producer's
  // tail (refreshed only when the ring looks empty).
  alignas(kCacheLineSize) std::atomic<uint64_t> head_{0};
  uint64_t cached_tail_ = 0;

  // Producer-owned line, symmetric.
  alignas(kCacheLineSize) std::atomic<uint64_t> tail_{0};
  uint64_t cached_head_ = 0;

  // Keep the producer line from sharing its cache line with whatever is
  // allocated after this object.
  char pad_[kCacheLineSize - sizeof(std::atomic<uint64_t>) - sizeof(uint64_t)];
};

/// Readiness signal a channel fires after every successful push and on
/// close. The executor's implementation marks the consuming task runnable
/// on the work-stealing pool. Wake() must be cheap, non-blocking, and safe
/// from any thread.
class Waker {
 public:
  virtual ~Waker() = default;
  virtual void Wake() = 0;
};

/// Single-producer/single-consumer channel: an SpscRing plus the engine's
/// channel protocol -- close-and-drain semantics (after Close, TryPush is
/// rejected and TryPop drains the remaining elements; a consumer that sees
/// closed() with an empty ring has reached end-of-channel) and a Waker
/// fired after every successful push and on close. Neither side ever
/// blocks: a full ring is backpressure the producer handles as scheduling
/// state, an empty one means the consumer goes idle until its waker fires.
template <typename T>
class SpscChannel {
 public:
  explicit SpscChannel(size_t capacity) : ring_(capacity) {}

  SpscChannel(const SpscChannel&) = delete;
  SpscChannel& operator=(const SpscChannel&) = delete;

  /// Producer: false when full or closed (the item is then not consumed).
  bool TryPush(T&& item) {
    if (closed_.load(std::memory_order_acquire)) return false;
    if (!ring_.TryPush(std::move(item))) return false;
    if (waker_ != nullptr) waker_->Wake();
    return true;
  }

  /// Consumer: false when currently empty (not necessarily closed).
  bool TryPop(T* out) { return ring_.TryPop(out); }

  /// Marks the channel closed: the producer is rejected, the consumer
  /// drains whatever is buffered and then sees end-of-channel. Callable
  /// from any thread.
  void Close() {
    closed_.store(true, std::memory_order_release);
    if (waker_ != nullptr) waker_->Wake();
  }

  bool closed() const { return closed_.load(std::memory_order_acquire); }

  /// Approximate; see SpscRing::size.
  size_t size() const { return ring_.size(); }
  size_t capacity() const { return ring_.capacity(); }
  bool Empty() const { return ring_.Empty(); }

  /// Sets the push/close readiness signal (none by default). Must be
  /// called before the producer starts pushing.
  void set_waker(Waker* waker) { waker_ = waker; }

 private:
  SpscRing<T> ring_;
  Waker* waker_ = nullptr;
  std::atomic<bool> closed_{false};
};

}  // namespace streamline

#endif  // STREAMLINE_COMMON_SPSC_RING_H_
