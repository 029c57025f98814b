// Unit tests for the fiber layer: creation, yielding, interleaving,
// recycling (reset / FiberPool), stack pooling, and guard-page
// integrity.
#include "simt/fiber.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "simt/simt.h"

namespace {

using simt::Fiber;
using simt::FiberPool;
using simt::FiberStackPool;

TEST(Fiber, RunsToCompletionOnFirstResume) {
  FiberStackPool pool;
  int x = 0;
  Fiber f(pool, [&] { x = 42; });
  EXPECT_FALSE(f.done());
  f.resume();
  EXPECT_TRUE(f.done());
  EXPECT_EQ(x, 42);
}

TEST(Fiber, YieldSuspendsAndResumeContinues) {
  FiberStackPool pool;
  std::vector<int> trace;
  Fiber f(pool, [&] {
    trace.push_back(1);
    Fiber::current()->yield();
    trace.push_back(3);
    Fiber::current()->yield();
    trace.push_back(5);
  });
  f.resume();
  trace.push_back(2);
  f.resume();
  trace.push_back(4);
  EXPECT_FALSE(f.done());
  f.resume();
  EXPECT_TRUE(f.done());
  EXPECT_EQ(trace, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(Fiber, CurrentIsNullInSchedulerContext) {
  FiberStackPool pool;
  EXPECT_EQ(Fiber::current(), nullptr);
  Fiber* seen = nullptr;
  Fiber f(pool, [&] { seen = Fiber::current(); });
  f.resume();
  EXPECT_EQ(seen, &f);
  EXPECT_EQ(Fiber::current(), nullptr);
}

TEST(Fiber, ManyFibersInterleaveRoundRobin) {
  FiberStackPool pool;
  constexpr int kN = 64;
  std::vector<int> order;
  std::vector<std::unique_ptr<Fiber>> fibers;
  for (int i = 0; i < kN; ++i) {
    fibers.push_back(std::make_unique<Fiber>(pool, [&, i] {
      order.push_back(i);
      Fiber::current()->yield();
      order.push_back(i + kN);
    }));
  }
  for (auto& f : fibers) f->resume();
  for (auto& f : fibers) f->resume();
  for (auto& f : fibers) EXPECT_TRUE(f->done());
  ASSERT_EQ(order.size(), 2 * kN);
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(order[i], i);
    EXPECT_EQ(order[kN + i], i + kN);
  }
}

TEST(Fiber, LocalStateSurvivesYield) {
  FiberStackPool pool;
  double result = 0.0;
  Fiber f(pool, [&] {
    double acc = 1.5;           // lives on the fiber stack
    std::string s = "fiber";    // heap + stack mix
    Fiber::current()->yield();
    acc *= 2.0;
    Fiber::current()->yield();
    result = acc + static_cast<double>(s.size());
  });
  f.resume();
  f.resume();
  f.resume();
  EXPECT_DOUBLE_EQ(result, 8.0);
}

TEST(Fiber, FloatingPointStateAcrossSwitches) {
  FiberStackPool pool;
  // Two fibers doing FP work interleaved: values must not leak between
  // contexts (the switch saves mxcsr/x87cw; data regs are caller-saved).
  double a = 0, b = 0;
  Fiber f1(pool, [&] {
    double x = 1.0;
    for (int i = 0; i < 10; ++i) {
      x = x * 1.5 + 0.25;
      Fiber::current()->yield();
    }
    a = x;
  });
  Fiber f2(pool, [&] {
    double x = 2.0;
    for (int i = 0; i < 10; ++i) {
      x = x * 0.5 - 0.125;
      Fiber::current()->yield();
    }
    b = x;
  });
  while (!f1.done() || !f2.done()) {
    if (!f1.done()) f1.resume();
    if (!f2.done()) f2.resume();
  }
  double xa = 1.0, xb = 2.0;
  for (int i = 0; i < 10; ++i) {
    xa = xa * 1.5 + 0.25;
    xb = xb * 0.5 - 0.125;
  }
  EXPECT_DOUBLE_EQ(a, xa);
  EXPECT_DOUBLE_EQ(b, xb);
}

TEST(Fiber, ResumeAfterDoneThrows) {
  FiberStackPool pool;
  Fiber f(pool, [] {});
  f.resume();
  EXPECT_TRUE(f.done());
  EXPECT_THROW(f.resume(), std::logic_error);
}

TEST(FiberStackPool, ReusesReleasedStacks) {
  FiberStackPool pool(64 * 1024, /*max_cached=*/8);
  void* s1 = pool.lease();
  pool.release(s1);
  EXPECT_EQ(pool.cached(), 1u);
  void* s2 = pool.lease();
  EXPECT_EQ(s1, s2);  // LIFO reuse
  pool.release(s2);
}

TEST(FiberStackPool, RoundsStackSizeToPageSize) {
  FiberStackPool pool(1000);  // sub-page request
  EXPECT_GE(pool.stack_size(), 1000u);
  EXPECT_EQ(pool.stack_size() % 4096, 0u);
}

TEST(FiberStackPool, CapsCachedStacks) {
  FiberStackPool pool(64 * 1024, /*max_cached=*/2);
  void* a = pool.lease();
  void* b = pool.lease();
  void* c = pool.lease();
  pool.release(a);
  pool.release(b);
  pool.release(c);  // beyond cap: unmapped
  EXPECT_EQ(pool.cached(), 2u);
}

TEST(Fiber, DeepRecursionWithinStackLimit) {
  FiberStackPool pool(256 * 1024);
  // ~100 frames x ~1KB stays within 256 KB.
  std::function<int(int)> rec = [&](int n) -> int {
    volatile char pad[1024];
    pad[0] = static_cast<char>(n);
    return n == 0 ? pad[0] : rec(n - 1) + 1;
  };
  int result = -1;
  Fiber f(pool, [&] { result = rec(100); });
  f.resume();
  EXPECT_EQ(result, 100);
}

TEST(Fiber, SequentialFibersReuseOneStack) {
  FiberStackPool pool;
  const std::size_t mapped_before = pool.total_mapped();
  for (int i = 0; i < 100; ++i) {
    Fiber f(pool, [] {});
    f.resume();
  }
  // 100 sequential fibers should not map 100 stacks.
  EXPECT_LE(pool.total_mapped() - mapped_before, 1u);
}

// --- recycling: Fiber::reset and FiberPool ---------------------------------

TEST(FiberReset, FinishedFiberRunsAgain) {
  FiberStackPool pool;
  int runs = 0;
  Fiber f(pool, [&] { runs++; });
  f.resume();
  EXPECT_TRUE(f.done());
  f.reset();
  EXPECT_FALSE(f.done());
  f.resume();
  EXPECT_EQ(runs, 2);
}

TEST(FiberReset, NewEntryAndYieldStateWorkAfterReset) {
  FiberStackPool pool;
  std::vector<int> trace;
  Fiber f(pool, [&] { trace.push_back(1); });
  f.resume();
  f.reset([&] {
    trace.push_back(2);
    Fiber::current()->yield();
    trace.push_back(3);
  });
  f.resume();
  EXPECT_FALSE(f.done());
  f.resume();
  EXPECT_TRUE(f.done());
  EXPECT_EQ(trace, (std::vector<int>{1, 2, 3}));
}

TEST(FiberReset, SuspendedFiberRefusesReset) {
  FiberStackPool pool;
  Fiber f(pool, [] { Fiber::current()->yield(); });
  f.resume();  // now suspended mid-run
  EXPECT_THROW(f.reset(), std::logic_error);
  f.resume();  // let it finish so the stack unwinds normally
  EXPECT_TRUE(f.done());
}

TEST(FiberReset, ExceptionFromRecycledFiberRethrowsFromResume) {
  FiberStackPool pool;
  Fiber f(pool, [] {});
  f.resume();
  f.reset([] { throw std::runtime_error("recycled boom"); });
  try {
    f.resume();
    FAIL() << "expected the kernel exception to rethrow from resume()";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "recycled boom");
  }
  EXPECT_TRUE(f.done());
  // A fiber that threw is finished and can be re-armed again.
  bool ran = false;
  f.reset([&] { ran = true; });
  f.resume();
  EXPECT_TRUE(ran);
}

TEST(FiberPoolTest, AcquireRecycleReusesTheSameFiber) {
  FiberStackPool stacks;
  FiberPool pool(stacks);
  auto f = pool.acquire([] {});
  Fiber* first = f.get();
  f->resume();
  pool.recycle(std::move(f));
  EXPECT_EQ(pool.cached(), 1u);
  int x = 0;
  auto g = pool.acquire([&] { x = 7; });
  EXPECT_EQ(g.get(), first);  // same object, re-armed
  g->resume();
  EXPECT_EQ(x, 7);
}

TEST(FiberPoolTest, SuspendedFiberIsDroppedNotCached) {
  FiberStackPool stacks;
  FiberPool pool(stacks);
  auto f = pool.acquire([] { Fiber::current()->yield(); });
  f->resume();  // suspended
  pool.recycle(std::move(f));
  EXPECT_EQ(pool.cached(), 0u);
}

TEST(FiberRecycling, SyncFreeBlockConstructsFarFewerFibersThanThreads) {
  // A thread that never suspends runs on the fiber of the thread before
  // it, one plain call each: a sync-free block of N threads acquires
  // exactly one fiber, not N. (Counters count cross-launch FiberPool
  // hits as reuses, so created + reuses is the fibers acquired.)
  simt::Device dev(simt::make_sim_a100_config());
  simt::LaunchParams p;
  p.grid = {1};
  p.block = {256};
  p.name = "sync_free_recycling";
  int ran = 0;
  const simt::LaunchRecord rec = dev.launch_sync(p, [&] { ran++; });
  EXPECT_EQ(ran, 256);
  EXPECT_EQ(rec.stats.fibers_created + rec.stats.fiber_reuses, 1u);
}

TEST(FiberRecycling, BarrierKernelStillOneFiberPerThread) {
  // Every thread suspends at the barrier, so recycling cannot kick in
  // within the launch; all 64 fibers must exist simultaneously.
  simt::Device dev(simt::make_sim_a100_config());
  simt::LaunchParams p;
  p.grid = {1};
  p.block = {64};
  p.name = "barrier_no_recycling";
  const simt::LaunchRecord rec = dev.launch_sync(p, [] {
    auto& t = simt::this_thread();
    t.block->sync_threads(t);
  });
  EXPECT_EQ(rec.stats.fibers_created + rec.stats.fiber_reuses, 64u);
}

TEST(FiberRecycling, KernelExceptionFromRecycledFiberPropagates) {
  // Force heavy recycling, then throw from a late thread: the rethrow
  // must reach the launch site with the original message.
  simt::Device dev(simt::make_sim_a100_config());
  simt::LaunchParams p;
  p.grid = {1};
  p.block = {128};
  p.name = "recycled_throw";
  try {
    dev.launch_sync(p, [] {
      auto& t = simt::this_thread();
      if (t.flat_tid == 100) throw std::runtime_error("thread 100 went bad");
    });
    FAIL() << "expected kernel exception";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("thread 100 went bad"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
