// Zero-allocation contract of ListScheduler::cycles(G, scratch): once a
// scratch has seen a stream of graphs, replaying that stream performs no
// heap allocation — whichever of the two ready-list buffers the previous
// run left in the `ready` role.  The scheduler swaps `ready` and `leftover`
// once per cycle, so the role each buffer starts a run in depends on the
// parity of every cycle scheduled before; the test replays the stream from
// both parities.
//
// Its own executable: the counting operator new below replaces the global
// allocator for the whole binary.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "sched/list_scheduler.hpp"
#include "sched/scheduler_scratch.hpp"
#include "test_util.hpp"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace isex::sched {
namespace {

/// Allocations made by one replay of `stream` through `scratch`.
std::uint64_t replay_allocs(const ListScheduler& scheduler,
                            const std::vector<dfg::Graph>& stream,
                            SchedulerScratch& scratch) {
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (const dfg::Graph& g : stream) (void)scheduler.cycles(g, scratch);
  return g_allocs.load(std::memory_order_relaxed) - before;
}

TEST(ListSchedulerAllocs, WarmedUpStreamAllocatesNothingInEitherSwapParity) {
  const ListScheduler scheduler(MachineConfig::make(2, {4, 2}));
  // Wide random DAGs plus the stream's largest graph, a chain: its ready
  // list never holds more than one node, so only an up-front reservation
  // sizes the buffer that holds it to the chain's length.
  std::vector<dfg::Graph> stream;
  Rng rng(11);
  for (const std::size_t n : {12u, 24u, 48u})
    stream.push_back(testing::make_random_dag(n, rng));
  stream.push_back(testing::make_chain(64));
  const dfg::Graph one_cycle = testing::make_chain(1);

  SchedulerScratch scratch;
  (void)replay_allocs(scheduler, stream, scratch);  // warm-up
  for (int parity = 0; parity < 2; ++parity) {
    SCOPED_TRACE("parity " + std::to_string(parity));
    EXPECT_EQ(replay_allocs(scheduler, stream, scratch), 0u);
    // One single-cycle run swaps the buffers once, so the next replay
    // starts with the other buffer in the `ready` role.
    (void)scheduler.cycles(one_cycle, scratch);
  }
}

}  // namespace
}  // namespace isex::sched
