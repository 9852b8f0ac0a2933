// Allocation guard for the per-server layers. This binary replaces the global
// operator new with a counting one and checks that building a 100,000-server
// Cluster, IndividualBoard or DispatcherSet takes a fixed handful of heap
// allocations, whatever n is. A per-server heap object (a std::deque member
// allocates a map and a node even when empty) would add at least one
// allocation per server and fail here, long before it shows up as memory in
// a large-n benchmark.
//
// The replacement is global, so the guard lives in its own executable.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#include "dispatch/dispatcher_set.h"
#include "loadinfo/individual_board.h"
#include "queueing/cluster.h"
#include "sim/rng.h"

namespace {

std::atomic<std::size_t> g_allocations{0};
// Where the counter's self-test parks its pointers, so the compiler cannot
// elide the new/delete pairs.
void* volatile g_sink = nullptr;

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace stale {
namespace {

constexpr int kServers = 100'000;
// Each constructor below allocates a few vectors of n entries; anything
// near n allocations means per-server heap state crept back in.
constexpr std::size_t kBudget = 32;

template <class Build>
std::size_t allocations_of(Build&& build) {
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  build();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(AllocGuardTest, CountsAllocations) {
  // The counter itself works: n separate objects are n allocations.
  const std::size_t count = allocations_of([] {
    for (int i = 0; i < 100; ++i) {
      int* p = new int(i);
      g_sink = p;
      delete p;
    }
  });
  EXPECT_EQ(count, 100u);
}

TEST(AllocGuardTest, ClusterConstructionIsConstantAllocations) {
  const std::size_t count =
      allocations_of([] { const queueing::Cluster cluster(kServers); });
  EXPECT_LE(count, kBudget);
  const std::size_t small =
      allocations_of([] { const queueing::Cluster cluster(10); });
  EXPECT_EQ(count, small);
}

TEST(AllocGuardTest, IndividualBoardConstructionIsConstantAllocations) {
  const std::size_t count = allocations_of([] {
    sim::Rng rng(1);
    const loadinfo::IndividualBoard board(kServers, 1.0, rng);
  });
  EXPECT_LE(count, kBudget);
  const std::size_t small = allocations_of([] {
    sim::Rng rng(1);
    const loadinfo::IndividualBoard board(10, 1.0, rng);
  });
  EXPECT_EQ(count, small);
}

TEST(AllocGuardTest, DispatcherSetConstructionIsConstantAllocations) {
  for (const bool individual : {false, true}) {
    const std::size_t count = allocations_of([individual] {
      sim::Rng rng(1);
      const dispatch::DispatcherSet boards(4, kServers, 1.0, individual, rng);
    });
    EXPECT_LE(count, kBudget) << (individual ? "individual" : "periodic");
  }
}

}  // namespace
}  // namespace stale
