// Tests for Semaphore, Mutex, CondVar, Gate, and Resource.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <random>
#include <vector>

#include "heap_counter.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"
#include "sim/sync.hpp"

namespace {

using sim::CondVar;
using sim::Engine;
using sim::Gate;
using sim::Mutex;
using sim::Resource;
using sim::Semaphore;
using sim::Task;
using sim::Time;

TEST(Semaphore, ImmediateAcquireWhenAvailable) {
  Engine eng;
  Semaphore sem{eng, 2};
  int got = 0;
  eng.spawn([](Semaphore& s, int& g) -> Task<void> {
    co_await s.acquire();
    co_await s.acquire();
    g = 2;
  }(sem, got));
  eng.run();
  EXPECT_EQ(got, 2);
  EXPECT_EQ(sem.available(), 0);
}

TEST(Semaphore, BlocksUntilRelease) {
  Engine eng;
  Semaphore sem{eng, 0};
  Time acquired_at = Time::zero();
  eng.spawn([](Engine& e, Semaphore& s, Time& at) -> Task<void> {
    co_await s.acquire();
    at = e.now();
  }(eng, sem, acquired_at));
  eng.spawn([](Engine& e, Semaphore& s) -> Task<void> {
    co_await e.sleep(Time::us(7.0));
    s.release();
  }(eng, sem));
  eng.run();
  EXPECT_EQ(acquired_at, Time::us(7.0));
}

TEST(Semaphore, FifoWakeupOrder) {
  Engine eng;
  Semaphore sem{eng, 0};
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    eng.spawn([](Engine& e, Semaphore& s, std::vector<int>& ord,
                 int id) -> Task<void> {
      co_await e.sleep(Time::ns(id + 1));  // deterministic arrival order
      co_await s.acquire();
      ord.push_back(id);
    }(eng, sem, order, i));
  }
  eng.spawn([](Engine& e, Semaphore& s) -> Task<void> {
    co_await e.sleep(Time::us(1.0));
    s.release(4);
  }(eng, sem));
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Semaphore, TryAcquire) {
  Engine eng;
  Semaphore sem{eng, 1};
  EXPECT_TRUE(sem.try_acquire());
  EXPECT_FALSE(sem.try_acquire());
  sem.release();
  EXPECT_TRUE(sem.try_acquire());
}

TEST(Semaphore, ReleaseManyHandsPermitsToWaitersThenCounts) {
  Engine eng;
  Semaphore sem{eng, 0};
  int woke = 0;
  for (int i = 0; i < 2; ++i) {
    eng.spawn([](Semaphore& s, int& w) -> Task<void> {
      co_await s.acquire();
      ++w;
    }(sem, woke));
  }
  eng.schedule_fn(Time::us(1.0), [&sem] { sem.release(5); });
  eng.run();
  EXPECT_EQ(woke, 2);
  EXPECT_EQ(sem.available(), 3);
}

TEST(Mutex, MutualExclusion) {
  Engine eng;
  Mutex mu{eng};
  int in_critical = 0;
  int max_in_critical = 0;
  for (int i = 0; i < 5; ++i) {
    eng.spawn([](Engine& e, Mutex& m, int& in, int& peak) -> Task<void> {
      auto g = co_await m.scoped();
      ++in;
      peak = std::max(peak, in);
      co_await e.sleep(Time::us(1.0));
      --in;
    }(eng, mu, in_critical, max_in_critical));
  }
  eng.run();
  EXPECT_EQ(max_in_critical, 1);
  EXPECT_FALSE(mu.locked());
}

TEST(Mutex, GuardReleasesOnScopeExit) {
  Engine eng;
  Mutex mu{eng};
  eng.spawn([](Mutex& m) -> Task<void> {
    {
      auto g = co_await m.scoped();
      EXPECT_TRUE(m.locked());
    }
    EXPECT_FALSE(m.locked());
  }(mu));
  eng.run();
}

TEST(CondVar, WaitNotifyOne) {
  Engine eng;
  Mutex mu{eng};
  CondVar cv{eng};
  bool ready = false;
  Time woke_at = Time::zero();
  eng.spawn([](Engine& e, Mutex& m, CondVar& c, bool& r,
               Time& at) -> Task<void> {
    co_await m.lock();
    while (!r) co_await c.wait(m);
    at = e.now();
    m.unlock();
  }(eng, mu, cv, ready, woke_at));
  eng.spawn([](Engine& e, Mutex& m, CondVar& c, bool& r) -> Task<void> {
    co_await e.sleep(Time::us(3.0));
    co_await m.lock();
    r = true;
    c.notify_one();
    m.unlock();
  }(eng, mu, cv, ready));
  eng.run();
  EXPECT_EQ(woke_at, Time::us(3.0));
}

TEST(CondVar, NotifyAllWakesEveryWaiter) {
  Engine eng;
  Mutex mu{eng};
  CondVar cv{eng};
  bool go = false;
  int woke = 0;
  for (int i = 0; i < 6; ++i) {
    eng.spawn([](Mutex& m, CondVar& c, bool& g, int& w) -> Task<void> {
      co_await m.lock();
      while (!g) co_await c.wait(m);
      ++w;
      m.unlock();
    }(mu, cv, go, woke));
  }
  eng.schedule_fn(Time::us(1.0), [&] {
    go = true;
    cv.notify_all();
  });
  eng.run();
  EXPECT_EQ(woke, 6);
}

TEST(Gate, BroadcastsOnceOpen) {
  Engine eng;
  Gate gate{eng};
  std::vector<Time> times;
  for (int i = 0; i < 3; ++i) {
    eng.spawn([](Engine& e, Gate& g, std::vector<Time>& ts) -> Task<void> {
      co_await g.wait();
      ts.push_back(e.now());
    }(eng, gate, times));
  }
  eng.schedule_fn(Time::us(2.0), [&gate] { gate.open(); });
  eng.run();
  ASSERT_EQ(times.size(), 3u);
  for (auto t : times) EXPECT_EQ(t, Time::us(2.0));
  // Late waiters pass straight through.
  bool passed = false;
  eng.spawn([](Gate& g, bool& p) -> Task<void> {
    co_await g.wait();
    p = true;
  }(gate, passed));
  eng.run();
  EXPECT_TRUE(passed);
}

// Ids 0..n-1 in order: what a FIFO wake sequence of n arrivals looks like.
std::vector<int> arrival_order(int n) {
  std::vector<int> ids(static_cast<std::size_t>(n));
  std::iota(ids.begin(), ids.end(), 0);
  return ids;
}

// Acquirers keep arriving while earlier ones are being released, so the
// waiter ring grows, drains and wraps around many times; permits still go
// to waiters strictly in arrival order.
TEST(Semaphore, InterleavedAcquireReleaseWakesInArrivalOrder) {
  Engine eng;
  Semaphore sem{eng, 0};
  int arrived = 0;
  std::vector<int> woke;
  eng.spawn([](Engine& e, Semaphore& s, int& arrived,
               std::vector<int>& woke) -> Task<void> {
    std::mt19937 rng{7};
    for (int step = 0; step < 400; ++step) {
      if (rng() % 3 != 0) {
        e.spawn([](Semaphore& s, std::vector<int>& w, int id) -> Task<void> {
          co_await s.acquire();
          w.push_back(id);
        }(s, woke, arrived++));
      } else {
        s.release(static_cast<std::int64_t>(rng() % 4));
      }
      co_await e.sleep(Time::us(1.0));
    }
    s.release(arrived);  // let every remaining waiter through
  }(eng, sem, arrived, woke));
  eng.run();
  EXPECT_GT(arrived, 200);
  EXPECT_EQ(woke, arrival_order(arrived));
}

// notify_one wakes the longest waiter; notify_all wakes the rest in order.
TEST(CondVar, InterleavedWaitNotifyWakesInArrivalOrder) {
  Engine eng;
  Mutex mu{eng};
  CondVar cv{eng};
  int arrived = 0;
  std::vector<int> woke;
  eng.spawn([](Engine& e, Mutex& m, CondVar& c, int& arrived,
               std::vector<int>& woke) -> Task<void> {
    std::mt19937 rng{11};
    for (int step = 0; step < 300; ++step) {
      if (rng() % 2 == 0) {
        e.spawn([](Mutex& m, CondVar& c, std::vector<int>& w,
                   int id) -> Task<void> {
          co_await m.lock();
          co_await c.wait(m);
          w.push_back(id);
          m.unlock();
        }(m, c, woke, arrived++));
      } else {
        c.notify_one();
      }
      co_await e.sleep(Time::us(1.0));
    }
    c.notify_all();
  }(eng, mu, cv, arrived, woke));
  eng.run();
  EXPECT_GT(arrived, 100);
  EXPECT_EQ(woke, arrival_order(arrived));
  EXPECT_EQ(cv.waiting(), 0u);
}

TEST(Gate, WakesWaitersInArrivalOrder) {
  Engine eng;
  Gate gate{eng};
  std::vector<int> woke;
  constexpr int kWaiters = 37;  // several ring doublings
  for (int i = 0; i < kWaiters; ++i) {
    eng.schedule_fn(Time::us(i), [&eng, &gate, &woke, i] {
      eng.spawn([](Gate& g, std::vector<int>& w, int id) -> Task<void> {
        co_await g.wait();
        w.push_back(id);
      }(gate, woke, i));
    });
  }
  eng.schedule_fn(Time::us(kWaiters), [&gate] { gate.open(); });
  eng.run();
  EXPECT_EQ(woke, arrival_order(kWaiters));
}

// A primitive nobody has waited on holds no heap memory: per-pair protocol
// state embeds several of these, and most pairs sit idle.
TEST(IdleFootprint, PrimitivesWithoutWaitersAllocateNothing) {
  Engine eng;
  bool acquired = false;
  const std::size_t bytes = heap_counter::bytes_during([&] {
    Semaphore sem{eng, 1};
    Mutex mu{eng};
    CondVar cv{eng};
    Gate gate{eng};
    acquired = sem.try_acquire();
    sem.release();
    cv.notify_one();
    cv.notify_all();
    gate.open();
  });
  EXPECT_TRUE(acquired);
  EXPECT_EQ(bytes, 0u);
}

TEST(Resource, SerializesUsers) {
  Engine eng;
  Resource bus{eng, "bus"};
  std::vector<Time> finish;
  for (int i = 0; i < 3; ++i) {
    eng.spawn([](Engine& e, Resource& r, std::vector<Time>& f) -> Task<void> {
      co_await r.use(Time::us(10.0));
      f.push_back(e.now());
    }(eng, bus, finish));
  }
  eng.run();
  ASSERT_EQ(finish.size(), 3u);
  EXPECT_EQ(finish[0], Time::us(10.0));
  EXPECT_EQ(finish[1], Time::us(20.0));
  EXPECT_EQ(finish[2], Time::us(30.0));
  EXPECT_EQ(bus.uses(), 3u);
  EXPECT_EQ(bus.busy_time(), Time::us(30.0));
  EXPECT_DOUBLE_EQ(bus.utilization(Time::us(30.0)), 1.0);
}

TEST(Resource, MultiUnitRunsInParallel) {
  Engine eng;
  Resource cores{eng, "cores", 2};
  std::vector<Time> finish;
  for (int i = 0; i < 4; ++i) {
    eng.spawn([](Engine& e, Resource& r, std::vector<Time>& f) -> Task<void> {
      co_await r.use(Time::us(10.0));
      f.push_back(e.now());
    }(eng, cores, finish));
  }
  eng.run();
  ASSERT_EQ(finish.size(), 4u);
  EXPECT_EQ(finish[1], Time::us(10.0));
  EXPECT_EQ(finish[3], Time::us(20.0));
  EXPECT_EQ(eng.now(), Time::us(20.0));
}

TEST(Resource, ManualAcquireRelease) {
  Engine eng;
  Resource r{eng, "r"};
  eng.spawn([](Engine& e, Resource& res) -> Task<void> {
    co_await res.acquire();
    EXPECT_EQ(res.in_use(), 1);
    co_await e.sleep(Time::us(2.0));
    res.note_busy(Time::us(2.0));
    res.release();
    EXPECT_EQ(res.in_use(), 0);
  }(eng, r));
  eng.run();
  EXPECT_EQ(r.busy_time(), Time::us(2.0));
}

}  // namespace
