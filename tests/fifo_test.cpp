// sim::Fifo, the ring behind every per-server queue: FIFO order across
// wrap-around and growth, capacity kept by pops and clear(), front-to-back
// iteration, value semantics, and no storage until the first push_back.
#include "sim/fifo.h"

#include <gtest/gtest.h>

#include <deque>
#include <utility>
#include <vector>

namespace stale::sim {
namespace {

template <class T>
std::vector<T> contents(const Fifo<T>& fifo) {
  return std::vector<T>(fifo.begin(), fifo.end());
}

TEST(FifoTest, DefaultConstructedHoldsNoStorage) {
  const Fifo<double> fifo;
  EXPECT_TRUE(fifo.empty());
  EXPECT_EQ(fifo.size(), 0u);
  EXPECT_EQ(fifo.capacity(), 0u);
  EXPECT_EQ(fifo.begin(), fifo.end());
}

TEST(FifoTest, FirstPushAllocatesTheFirstRing) {
  Fifo<int> fifo;
  fifo.push_back(7);
  EXPECT_EQ(fifo.capacity(), Fifo<int>::kFirstCapacity);
  EXPECT_EQ(fifo.front(), 7);
  EXPECT_EQ(fifo.back(), 7);
  EXPECT_EQ(fifo.size(), 1u);
}

TEST(FifoTest, OrderSurvivesWrapAround) {
  Fifo<int> fifo;
  for (int i = 0; i < 4; ++i) fifo.push_back(i);
  // Rotate through the ring several times at a constant size: the head
  // wraps without any growth.
  for (int i = 4; i < 40; ++i) {
    EXPECT_EQ(fifo.front(), i - 4);
    fifo.pop_front();
    fifo.push_back(i);
    EXPECT_EQ(fifo.back(), i);
    EXPECT_EQ(contents(fifo), (std::vector<int>{i - 3, i - 2, i - 1, i}));
  }
  EXPECT_EQ(fifo.capacity(), Fifo<int>::kFirstCapacity);
}

TEST(FifoTest, GrowthWithNonZeroHeadKeepsOrder) {
  Fifo<int> fifo;
  for (int i = 0; i < 4; ++i) fifo.push_back(i);
  fifo.pop_front();
  fifo.pop_front();
  fifo.push_back(4);
  fifo.push_back(5);  // ring full and wrapped: head at slot 2
  ASSERT_EQ(fifo.capacity(), 4u);
  fifo.push_back(6);  // grows with the elements split across the wrap
  EXPECT_EQ(fifo.capacity(), 8u);
  EXPECT_EQ(contents(fifo), (std::vector<int>{2, 3, 4, 5, 6}));
  EXPECT_EQ(fifo.front(), 2);
  EXPECT_EQ(fifo.back(), 6);
}

TEST(FifoTest, MatchesDequeUnderRandomOperations) {
  // A scripted mix of pushes and pops from both ends, so the ring wraps
  // and grows from every head position.
  Fifo<long> fifo;
  std::deque<long> reference;
  unsigned state = 12345;
  for (long i = 0; i < 20'000; ++i) {
    state = state * 1103515245u + 12345u;
    const unsigned op = (state >> 16) % 10;
    if (op < 6 || reference.empty()) {
      fifo.push_back(i);
      reference.push_back(i);
    } else if (op < 9) {
      fifo.pop_front();
      reference.pop_front();
    } else {
      fifo.pop_back();
      reference.pop_back();
    }
    ASSERT_EQ(fifo.size(), reference.size());
    if (!reference.empty()) {
      ASSERT_EQ(fifo.front(), reference.front());
      ASSERT_EQ(fifo.back(), reference.back());
    }
  }
  EXPECT_EQ(contents(fifo),
            std::vector<long>(reference.begin(), reference.end()));
}

TEST(FifoTest, ClearKeepsCapacity) {
  Fifo<double> fifo;
  for (int i = 0; i < 10; ++i) fifo.push_back(i);
  const std::size_t capacity = fifo.capacity();
  EXPECT_EQ(capacity, 16u);
  fifo.clear();
  EXPECT_TRUE(fifo.empty());
  EXPECT_EQ(fifo.capacity(), capacity);
  fifo.push_back(3.5);
  EXPECT_EQ(fifo.front(), 3.5);
  EXPECT_EQ(fifo.capacity(), capacity);
}

TEST(FifoTest, PopsKeepCapacity) {
  Fifo<int> fifo;
  for (int i = 0; i < 5; ++i) fifo.push_back(i);
  while (!fifo.empty()) fifo.pop_front();
  EXPECT_EQ(fifo.capacity(), 8u);
}

TEST(FifoTest, IterationRunsFromTheFront) {
  Fifo<int> fifo;
  for (int i = 0; i < 6; ++i) fifo.push_back(10 * i);
  fifo.pop_front();
  std::vector<int> seen;
  for (const int v : fifo) seen.push_back(v);
  EXPECT_EQ(seen, (std::vector<int>{10, 20, 30, 40, 50}));
  auto it = fifo.begin();
  EXPECT_EQ(*it++, 10);
  EXPECT_EQ(*it, 20);
}

TEST(FifoTest, CopyIsIndependentAndOrdered) {
  Fifo<int> original;
  for (int i = 0; i < 4; ++i) original.push_back(i);
  original.pop_front();
  original.push_back(4);  // wrapped
  Fifo<int> copy(original);
  EXPECT_EQ(contents(copy), (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(copy.capacity(), original.capacity());
  copy.pop_front();
  copy.push_back(9);
  EXPECT_EQ(contents(original), (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(contents(copy), (std::vector<int>{2, 3, 4, 9}));

  Fifo<int> assigned;
  assigned.push_back(42);
  assigned = original;
  EXPECT_EQ(contents(assigned), (std::vector<int>{1, 2, 3, 4}));

  const Fifo<int> empty_copy{Fifo<int>()};
  EXPECT_EQ(empty_copy.capacity(), 0u);
}

TEST(FifoTest, MoveTransfersStorageAndEmptiesTheSource) {
  Fifo<int> source;
  for (int i = 0; i < 5; ++i) source.push_back(i);
  Fifo<int> moved(std::move(source));
  EXPECT_EQ(contents(moved), (std::vector<int>{0, 1, 2, 3, 4}));
  // The moved-from queue is a valid empty queue (tested on purpose).
  EXPECT_TRUE(source.empty());
  EXPECT_EQ(source.capacity(), 0u);
  source.push_back(8);
  EXPECT_EQ(source.front(), 8);

  Fifo<int> target;
  target.push_back(1);
  target = std::move(moved);
  EXPECT_EQ(contents(target), (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(FifoTest, VectorOfFifosReallocatesIntact) {
  std::vector<Fifo<int>> queues;
  for (int q = 0; q < 50; ++q) {
    queues.emplace_back();
    for (int i = 0; i <= q % 7; ++i) queues.back().push_back(q * 100 + i);
  }
  for (int q = 0; q < 50; ++q) {
    const auto& queue = queues[static_cast<std::size_t>(q)];
    ASSERT_EQ(queue.size(), static_cast<std::size_t>(q % 7 + 1));
    EXPECT_EQ(queue.front(), q * 100);
    EXPECT_EQ(queue.back(), q * 100 + q % 7);
  }
}

}  // namespace
}  // namespace stale::sim
