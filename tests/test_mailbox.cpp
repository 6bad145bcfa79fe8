#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "mpi/mailbox.hpp"

namespace skt::mpi {
namespace {

Message make(int src, Tag tag, std::uint64_t comm, std::uint8_t payload) {
  Message m;
  m.src_world = src;
  m.tag = tag;
  m.comm_id = comm;
  m.payload = {static_cast<std::byte>(payload)};
  return m;
}

TEST(Mailbox, MatchesOnSourceTagAndComm) {
  Mailbox box;
  std::atomic<bool> aborted{false};
  box.push(make(1, 5, 0, 10));
  box.push(make(2, 5, 0, 20));
  box.push(make(1, 6, 0, 30));
  box.push(make(1, 5, 9, 40));

  const auto m = box.pop(1, 5, 9, aborted);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->payload[0], std::byte{40});
  EXPECT_EQ(box.pending(), 3u);
}

TEST(Mailbox, FifoWithinMatchClass) {
  Mailbox box;
  std::atomic<bool> aborted{false};
  box.push(make(3, 7, 0, 1));
  box.push(make(3, 7, 0, 2));
  box.push(make(3, 7, 0, 3));
  EXPECT_EQ(box.pop(3, 7, 0, aborted)->payload[0], std::byte{1});
  EXPECT_EQ(box.pop(3, 7, 0, aborted)->payload[0], std::byte{2});
  EXPECT_EQ(box.pop(3, 7, 0, aborted)->payload[0], std::byte{3});
}

TEST(Mailbox, BlocksUntilPush) {
  Mailbox box;
  std::atomic<bool> aborted{false};
  std::atomic<bool> got{false};
  std::thread receiver([&] {
    const auto m = box.pop(0, 1, 0, aborted);
    got = m.has_value();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(got.load());
  box.push(make(0, 1, 0, 99));
  receiver.join();
  EXPECT_TRUE(got.load());
}

TEST(Mailbox, AbortWakesBlockedReceiver) {
  Mailbox box;
  std::atomic<bool> aborted{false};
  std::atomic<bool> returned_empty{false};
  std::thread receiver([&] {
    const auto m = box.pop(0, 1, 0, aborted);
    returned_empty = !m.has_value();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  aborted.store(true);
  box.interrupt();
  receiver.join();
  EXPECT_TRUE(returned_empty.load());
}

TEST(Mailbox, AbortedPopStillDrainsMatches) {
  // Abort only matters when no match exists; queued matches deliver.
  Mailbox box;
  std::atomic<bool> aborted{true};
  box.push(make(4, 2, 0, 5));
  const auto m = box.pop(4, 2, 0, aborted);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->payload[0], std::byte{5});
  EXPECT_FALSE(box.pop(4, 2, 0, aborted).has_value());
}

// await() is how a lender sleeps until its loan is released: a condition
// set by another thread is seen once that thread calls interrupt().
TEST(Mailbox, AwaitWakesOnInterrupt) {
  Mailbox box;
  std::atomic<int> phase{LoanState::kBorrowed};
  std::atomic<bool> woke{false};
  std::thread lender([&] {
    box.await([&] { return phase.load() == LoanState::kReleased; });
    woke = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(woke.load());
  box.push(make(1, 1, 0, 1));  // unrelated traffic rechecks, and waits on
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_FALSE(woke.load());
  phase = LoanState::kReleased;
  box.interrupt();
  lender.join();
  EXPECT_TRUE(woke.load());
}

TEST(Mailbox, ManyProducersOneConsumer) {
  Mailbox box;
  std::atomic<bool> aborted{false};
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 100;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&box, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        box.push(make(p, 1, 0, static_cast<std::uint8_t>(i & 0xff)));
      }
    });
  }
  // Per-source FIFO must hold even under concurrency.
  for (int p = 0; p < kProducers; ++p) {
    for (int i = 0; i < kPerProducer; ++i) {
      const auto m = box.pop(p, 1, 0, aborted);
      ASSERT_TRUE(m.has_value());
      ASSERT_EQ(m->payload[0], static_cast<std::byte>(i & 0xff)) << "src " << p;
    }
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(box.pending(), 0u);
}

}  // namespace
}  // namespace skt::mpi
