#include "common/spsc_ring.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace streamline {
namespace {

TEST(SpscRingTest, PushPopFifo) {
  SpscRing<int> ring(4);
  int out = 0;
  EXPECT_TRUE(ring.TryPush(1));
  EXPECT_TRUE(ring.TryPush(2));
  EXPECT_TRUE(ring.TryPop(&out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(ring.TryPop(&out));
  EXPECT_EQ(out, 2);
  EXPECT_FALSE(ring.TryPop(&out));
}

TEST(SpscRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscRing<int>(1).capacity(), 1u);
  EXPECT_EQ(SpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(SpscRing<int>(4).capacity(), 4u);
  EXPECT_EQ(SpscRing<int>(1000).capacity(), 1024u);
  EXPECT_EQ(SpscRing<int>(0).capacity(), 1u);
}

TEST(SpscRingTest, PushFailsWhenFull) {
  SpscRing<int> ring(2);
  EXPECT_TRUE(ring.TryPush(1));
  EXPECT_TRUE(ring.TryPush(2));
  EXPECT_FALSE(ring.TryPush(3));
  EXPECT_TRUE(ring.Full());
  int out = 0;
  EXPECT_TRUE(ring.TryPop(&out));
  EXPECT_TRUE(ring.TryPush(3));  // slot freed
}

TEST(SpscRingTest, FailedPushDoesNotConsumeTheItem) {
  SpscRing<std::unique_ptr<int>> ring(1);
  EXPECT_TRUE(ring.TryPush(std::make_unique<int>(1)));
  auto item = std::make_unique<int>(2);
  EXPECT_FALSE(ring.TryPush(std::move(item)));
  // A rejected push must leave the item intact for a retry.
  ASSERT_NE(item, nullptr);
  EXPECT_EQ(*item, 2);
}

TEST(SpscRingTest, WrapsAroundManyTimes) {
  SpscRing<uint64_t> ring(8);
  uint64_t out = 0;
  for (uint64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(ring.TryPush(uint64_t{i}));
    ASSERT_TRUE(ring.TryPop(&out));
    ASSERT_EQ(out, i);
  }
  EXPECT_TRUE(ring.Empty());
}

TEST(SpscRingTest, MoveOnlyElements) {
  SpscRing<std::unique_ptr<std::string>> ring(4);
  EXPECT_TRUE(ring.TryPush(std::make_unique<std::string>("a")));
  EXPECT_TRUE(ring.TryPush(std::make_unique<std::string>("b")));
  std::unique_ptr<std::string> out;
  EXPECT_TRUE(ring.TryPop(&out));
  EXPECT_EQ(*out, "a");
  EXPECT_TRUE(ring.TryPop(&out));
  EXPECT_EQ(*out, "b");
}

TEST(SpscRingTest, SizeTracksOccupancy) {
  SpscRing<int> ring(8);
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_TRUE(ring.Empty());
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(ring.TryPush(int{i}));
  EXPECT_EQ(ring.size(), 5u);
  int out = 0;
  ring.TryPop(&out);
  EXPECT_EQ(ring.size(), 4u);
}

// Two-thread stress: every element arrives exactly once, in order. This is
// the test the thread-sanitizer CI job leans on.
TEST(SpscRingTest, ThreadedFifoStress) {
  constexpr uint64_t kItems = 200'000;
  SpscRing<uint64_t> ring(64);
  std::thread producer([&] {
    for (uint64_t i = 0; i < kItems; ++i) {
      while (!ring.TryPush(uint64_t{i})) std::this_thread::yield();
    }
  });
  uint64_t expected = 0;
  uint64_t item = 0;
  while (expected < kItems) {
    if (ring.TryPop(&item)) {
      ASSERT_EQ(item, expected);
      ++expected;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_TRUE(ring.Empty());
}

// --- SpscChannel: the non-blocking channel protocol over the ring ----------

// Counts Wake() calls; shared by every channel a test consumer multiplexes.
class CountingWaker : public Waker {
 public:
  void Wake() override { wakes.fetch_add(1, std::memory_order_acq_rel); }
  std::atomic<uint64_t> wakes{0};
};

// Consumer side of the close-and-drain protocol: spins (yielding) until an
// element arrives or the channel is closed and drained. False only at
// end-of-channel.
bool PopOrEnd(SpscChannel<int>* ch, int* out) {
  for (;;) {
    if (ch->TryPop(out)) return true;
    // Closed: one more pop covers an element pushed between the failed
    // TryPop and the close check.
    if (ch->closed()) return ch->TryPop(out);
    std::this_thread::yield();
  }
}

TEST(SpscChannelTest, PushPopFifo) {
  SpscChannel<int> ch(4);
  EXPECT_TRUE(ch.TryPush(1));
  EXPECT_TRUE(ch.TryPush(2));
  int out = 0;
  ASSERT_TRUE(ch.TryPop(&out));
  EXPECT_EQ(out, 1);
  ASSERT_TRUE(ch.TryPop(&out));
  EXPECT_EQ(out, 2);
  EXPECT_FALSE(ch.TryPop(&out));
}

TEST(SpscChannelTest, CloseDrainsThenEnds) {
  SpscChannel<int> ch(4);
  ASSERT_TRUE(ch.TryPush(1));
  ASSERT_TRUE(ch.TryPush(2));
  ch.Close();
  EXPECT_FALSE(ch.TryPush(3));  // rejected after close
  int out = 0;
  ASSERT_TRUE(ch.TryPop(&out));
  EXPECT_EQ(out, 1);
  ASSERT_TRUE(ch.TryPop(&out));
  EXPECT_EQ(out, 2);
  EXPECT_FALSE(ch.TryPop(&out));  // drained ...
  EXPECT_TRUE(ch.closed());       // ... and closed -> end of channel
}

// The scheduler's wakeup contract: the waker fires exactly once per
// accepted push and once on close, so a consumer that went idle on an
// empty ring is always marked runnable again.
TEST(SpscChannelTest, WakerFiresOncePerPushAndOnClose) {
  CountingWaker waker;
  SpscChannel<int> ch(4);
  ch.set_waker(&waker);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(ch.TryPush(int{i}));
  EXPECT_EQ(waker.wakes.load(), 3u);
  int out = 0;
  ASSERT_TRUE(ch.TryPop(&out));
  EXPECT_EQ(waker.wakes.load(), 3u);  // pops never wake
  ch.Close();
  EXPECT_EQ(waker.wakes.load(), 4u);
}

// A push rejected as full or closed delivered nothing, so it must not
// wake the consumer (a spurious wakeup per rejected retry would turn
// backpressure into a notify storm).
TEST(SpscChannelTest, WakerSilentOnRejectedPush) {
  CountingWaker waker;
  SpscChannel<int> ch(2);
  ch.set_waker(&waker);
  ASSERT_TRUE(ch.TryPush(1));
  ASSERT_TRUE(ch.TryPush(2));
  EXPECT_EQ(waker.wakes.load(), 2u);
  EXPECT_FALSE(ch.TryPush(3));  // full
  EXPECT_EQ(waker.wakes.load(), 2u);
  ch.Close();
  EXPECT_EQ(waker.wakes.load(), 3u);
  int out = 0;
  ASSERT_TRUE(ch.TryPop(&out));  // room again, but closed
  EXPECT_FALSE(ch.TryPush(4));
  EXPECT_EQ(waker.wakes.load(), 3u);
}

TEST(SpscChannelTest, ThreadedTransferDeliversEverythingOnce) {
  constexpr int kItems = 100'000;
  SpscChannel<int> ch(32);
  std::thread producer([&] {
    for (int i = 0; i < kItems; ++i) {
      while (!ch.TryPush(int{i})) std::this_thread::yield();
    }
    ch.Close();
  });
  int expected = 0;
  int v = 0;
  while (PopOrEnd(&ch, &v)) {
    ASSERT_EQ(v, expected);
    ++expected;
  }
  producer.join();
  EXPECT_EQ(expected, kItems);
}

// One consumer multiplexing several producer channels through a shared
// waker -- the executor's input topology. The consumer goes idle only
// until the waker fires; reading the wake count before each sweep makes
// a push racing with the sweep visible, never lost.
TEST(SpscChannelTest, MultiplexedChannelsOneWaker) {
  constexpr int kProducers = 4;
  constexpr int kItemsEach = 20'000;
  CountingWaker waker;
  std::vector<std::unique_ptr<SpscChannel<int>>> channels;
  for (int p = 0; p < kProducers; ++p) {
    channels.push_back(std::make_unique<SpscChannel<int>>(16));
    channels.back()->set_waker(&waker);
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kItemsEach; ++i) {
        while (!channels[p]->TryPush(int{p})) std::this_thread::yield();
      }
      channels[p]->Close();
    });
  }
  std::vector<int> counts(kProducers, 0);
  int open = kProducers;
  std::vector<bool> live(kProducers, true);
  while (open > 0) {
    const uint64_t seen = waker.wakes.load(std::memory_order_acquire);
    bool progress = false;
    for (int p = 0; p < kProducers; ++p) {
      if (!live[p]) continue;
      int v = 0;
      if (channels[p]->TryPop(&v)) {
        ASSERT_EQ(v, p);
        ++counts[p];
        progress = true;
      } else if (channels[p]->closed()) {
        while (channels[p]->TryPop(&v)) ++counts[p];
        live[p] = false;
        --open;
        progress = true;
      }
    }
    if (!progress) {
      while (waker.wakes.load(std::memory_order_acquire) == seen) {
        std::this_thread::yield();
      }
    }
  }
  for (std::thread& t : producers) t.join();
  for (int p = 0; p < kProducers; ++p) EXPECT_EQ(counts[p], kItemsEach);
}

}  // namespace
}  // namespace streamline
