// Tests for Channel<T>: FIFO delivery, bounded backpressure, close(); and
// for the Fifo ring underneath it.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "heap_counter.hpp"
#include "sim/engine.hpp"
#include "sim/fifo.hpp"
#include "sim/queue.hpp"

namespace {

using sim::Channel;
using sim::ChannelClosed;
using sim::Engine;
using sim::Fifo;
using sim::Task;
using sim::Time;

// A value with heap storage that counts its live instances, so the tests
// see moves across ring growth and destruction at pop time.
struct Tracked {
  static inline int live = 0;
  std::string v;
  explicit Tracked(std::string s) : v{std::move(s)} { ++live; }
  Tracked(Tracked&& o) noexcept : v{std::move(o.v)} { ++live; }
  Tracked(const Tracked&) = delete;
  Tracked& operator=(const Tracked&) = delete;
  ~Tracked() { --live; }
};

// Seeded random push / pop / iterate / clear against a std::deque model.
// Push-heavy and pop-heavy phases alternate, so the ring grows while its
// head sits mid-buffer (growth across the wrap) and drains back through it.
TEST(Fifo, MatchesDequeModel) {
  for (unsigned seed = 1; seed <= 20; ++seed) {
    std::mt19937 rng{seed};
    Fifo<Tracked> q;
    std::deque<std::string> model;
    int next = 0;
    for (int step = 0; step < 3000; ++step) {
      const bool push_heavy = (step / 150) % 2 == 0;
      const unsigned r = rng() % 100;
      if (r < (push_heavy ? 65u : 35u)) {
        // Long enough to live on the heap, not in the SSO buffer.
        std::string v = "value-" + std::to_string(next++) + "-padding-padding";
        q.push_back(Tracked{v});
        model.push_back(std::move(v));
      } else if (r < 97) {
        if (!model.empty()) {
          ASSERT_EQ(q.front().v, model.front());
          q.pop_front();
          model.pop_front();
        }
      } else if (r < 99) {
        ASSERT_TRUE(std::equal(q.begin(), q.end(), model.begin(), model.end(),
                               [](const Tracked& a, const std::string& b) {
                                 return a.v == b;
                               }));
      } else {
        q.clear();
        model.clear();
      }
      ASSERT_EQ(q.size(), model.size()) << "seed " << seed << " step " << step;
      ASSERT_EQ(q.empty(), model.empty());
      ASSERT_EQ(Tracked::live, static_cast<int>(model.size()));
      if (!model.empty()) {
        ASSERT_EQ(q.front().v, model.front());
        ASSERT_EQ(q.back().v, model.back());
      }
    }
  }
  EXPECT_EQ(Tracked::live, 0);
}

TEST(Fifo, IdleRingAllocatesNothingAndPopDestroysInPlace) {
  EXPECT_EQ(heap_counter::bytes_during([] {
              Fifo<Tracked> idle;
              idle.clear();
            }),
            0u);
  {
    Fifo<Tracked> q;
    q.push_back(Tracked{"a"});
    q.push_back(Tracked{"b"});
    EXPECT_EQ(Tracked::live, 2);
    q.pop_front();
    EXPECT_EQ(Tracked::live, 1);  // gone at pop, not when the slot is reused
    EXPECT_EQ(q.front().v, "b");
  }
  EXPECT_EQ(Tracked::live, 0);
}

// A queue that sits idle between bursts gives its drained ring back, and
// the next push grows a fresh one.
TEST(Fifo, ReleaseIfEmptyFreesADrainedRing) {
  Fifo<Tracked> q;
  const std::size_t idle = heap_counter::live;
  for (const char* v : {"a", "b", "c"}) q.push_back(Tracked{v});
  q.release_if_empty();  // holds three: keeps its ring
  ASSERT_EQ(q.size(), 3u);
  EXPECT_EQ(q.front().v, "a");
  EXPECT_EQ(q.back().v, "c");
  while (!q.empty()) q.pop_front();
  EXPECT_GT(heap_counter::live, idle);  // clear() and pops keep the ring
  q.release_if_empty();
  EXPECT_EQ(heap_counter::live, idle);
  EXPECT_EQ(Tracked::live, 0);
  for (const char* v : {"d", "e", "f"}) q.push_back(Tracked{v});
  q.pop_front();
  q.push_back(Tracked{"g"});
  std::vector<std::string> got;
  for (const Tracked& t : q) got.push_back(t.v);
  EXPECT_EQ(got, (std::vector<std::string>{"e", "f", "g"}));
}

// Receivers queue up while try_send feeds them and more receivers arrive;
// close() then fails the rest.  The k-th value goes to the k-th receiver
// to arrive, and the leftovers see ChannelClosed in arrival order.
TEST(Channel, InterleavedTrySendRecvCloseKeepsFifoOrder) {
  Engine eng;
  Channel<std::string> ch{eng};
  int arrived = 0;
  int sent = 0;
  std::vector<std::pair<int, std::string>> got;  // (receiver, value)
  std::vector<int> closed;
  eng.spawn([](Engine& e, Channel<std::string>& ch, int& arrived, int& sent,
               std::vector<std::pair<int, std::string>>& got,
               std::vector<int>& closed) -> Task<void> {
    const auto receive = [](Channel<std::string>& c,
                            std::vector<std::pair<int, std::string>>& got,
                            std::vector<int>& closed, int id) -> Task<void> {
      try {
        got.emplace_back(id, co_await c.recv());
      } catch (const ChannelClosed&) {
        closed.push_back(id);
      }
    };
    std::mt19937 rng{3};
    // Receiver-heavy and sender-heavy phases alternate, so both backlogs
    // build up.
    for (int step = 0; step < 400; ++step) {
      const unsigned receiver_pct = (step / 40) % 2 == 0 ? 70 : 30;
      if (rng() % 100 < receiver_pct) {
        e.spawn(receive(ch, got, closed, arrived++));
      } else {
        EXPECT_TRUE(ch.try_send(std::to_string(sent++)));
      }
      co_await e.sleep(Time::us(1.0));
    }
    // Leave a few receivers waiting for close().
    while (arrived < sent + 5) {
      e.spawn(receive(ch, got, closed, arrived++));
      co_await e.sleep(Time::us(1.0));
    }
    ch.close();
  }(eng, ch, arrived, sent, got, closed));
  eng.run();
  ASSERT_EQ(got.size(), static_cast<std::size_t>(sent));
  for (int k = 0; k < sent; ++k) {
    EXPECT_EQ(got[static_cast<std::size_t>(k)],
              (std::pair<int, std::string>{k, std::to_string(k)}));
  }
  ASSERT_EQ(closed.size(), 5u);
  for (std::size_t i = 0; i < closed.size(); ++i) {
    EXPECT_EQ(closed[i], sent + static_cast<int>(i));
  }
  EXPECT_GT(sent, 150);
}

// Senders blocked on a full bounded channel resume in arrival order.
TEST(Channel, BlockedSendersResumeInArrivalOrder) {
  Engine eng;
  Channel<std::string> ch{eng, 2};
  constexpr int kSenders = 21;
  for (int i = 0; i < kSenders; ++i) {
    eng.schedule_fn(Time::us(i), [&eng, &ch, i] {
      eng.spawn([](Channel<std::string>& c, int id) -> Task<void> {
        co_await c.send(std::to_string(id));
      }(ch, i));
    });
  }
  std::vector<std::string> got;
  eng.spawn([](Engine& e, Channel<std::string>& c,
               std::vector<std::string>& got) -> Task<void> {
    co_await e.sleep(Time::us(kSenders));
    for (int i = 0; i < kSenders; ++i) {
      got.push_back(co_await c.recv());
      co_await e.sleep(Time::us(0.5));
    }
  }(eng, ch, got));
  eng.run();
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kSenders));
  for (int i = 0; i < kSenders; ++i) {
    EXPECT_EQ(got[static_cast<std::size_t>(i)], std::to_string(i));
  }
}

TEST(IdleFootprint, ChannelWithoutTrafficAllocatesNothing) {
  Engine eng;
  bool empty = false;
  const std::size_t bytes = heap_counter::bytes_during([&] {
    Channel<std::vector<std::string>> unbounded{eng};
    Channel<std::vector<std::string>> bounded{eng, 4};
    empty = !unbounded.try_recv().has_value() && bounded.empty();
    bounded.close();
  });
  EXPECT_TRUE(empty);
  EXPECT_EQ(bytes, 0u);
}

TEST(Channel, FifoDelivery) {
  Engine eng;
  Channel<int> ch{eng};
  std::vector<int> got;
  eng.spawn([](Channel<int>& c) -> Task<void> {
    for (int i = 0; i < 5; ++i) co_await c.send(i);
  }(ch));
  eng.spawn([](Channel<int>& c, std::vector<int>& g) -> Task<void> {
    for (int i = 0; i < 5; ++i) g.push_back(co_await c.recv());
  }(ch, got));
  eng.run();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Channel, ReceiverBlocksUntilSend) {
  Engine eng;
  Channel<std::string> ch{eng};
  Time got_at = Time::zero();
  eng.spawn([](Engine& e, Channel<std::string>& c, Time& at) -> Task<void> {
    auto s = co_await c.recv();
    EXPECT_EQ(s, "hello");
    at = e.now();
  }(eng, ch, got_at));
  eng.spawn([](Engine& e, Channel<std::string>& c) -> Task<void> {
    co_await e.sleep(Time::us(4.0));
    co_await c.send("hello");
  }(eng, ch));
  eng.run();
  EXPECT_EQ(got_at, Time::us(4.0));
}

TEST(Channel, BoundedSenderBlocksWhenFull) {
  Engine eng;
  Channel<int> ch{eng, 2};
  std::vector<Time> send_done;
  eng.spawn([](Engine& e, Channel<int>& c,
               std::vector<Time>& done) -> Task<void> {
    for (int i = 0; i < 3; ++i) {
      co_await c.send(i);
      done.push_back(e.now());
    }
  }(eng, ch, send_done));
  eng.spawn([](Engine& e, Channel<int>& c) -> Task<void> {
    co_await e.sleep(Time::us(10.0));
    (void)co_await c.recv();
  }(eng, ch));
  eng.run_until(Time::us(20.0));
  ASSERT_EQ(send_done.size(), 3u);
  EXPECT_EQ(send_done[0], Time::zero());
  EXPECT_EQ(send_done[1], Time::zero());
  EXPECT_EQ(send_done[2], Time::us(10.0));  // unblocked by the recv
}

TEST(Channel, TrySendRespectsCapacity) {
  Engine eng;
  Channel<int> ch{eng, 1};
  EXPECT_TRUE(ch.try_send(1));
  EXPECT_FALSE(ch.try_send(2));
  auto v = ch.try_recv();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 1);
  EXPECT_FALSE(ch.try_recv().has_value());
}

TEST(Channel, CloseWakesBlockedReceiver) {
  Engine eng;
  Channel<int> ch{eng};
  bool threw = false;
  eng.spawn([](Channel<int>& c, bool& t) -> Task<void> {
    try {
      (void)co_await c.recv();
    } catch (const ChannelClosed&) {
      t = true;
    }
  }(ch, threw));
  eng.schedule_fn(Time::us(1.0), [&ch] { ch.close(); });
  eng.run();
  EXPECT_TRUE(threw);
}

TEST(Channel, RecvAfterCloseThrowsImmediately) {
  Engine eng;
  Channel<int> ch{eng};
  ch.close();
  bool threw = false;
  eng.spawn([](Channel<int>& c, bool& t) -> Task<void> {
    try {
      (void)co_await c.recv();
    } catch (const ChannelClosed&) {
      t = true;
    }
  }(ch, threw));
  eng.run();
  EXPECT_TRUE(threw);
}

TEST(Channel, MoveOnlyPayload) {
  Engine eng;
  Channel<std::unique_ptr<int>> ch{eng};
  int got = 0;
  eng.spawn([](Channel<std::unique_ptr<int>>& c) -> Task<void> {
    co_await c.send(std::make_unique<int>(99));
  }(ch));
  eng.spawn([](Channel<std::unique_ptr<int>>& c, int& g) -> Task<void> {
    auto p = co_await c.recv();
    g = *p;
  }(ch, got));
  eng.run();
  EXPECT_EQ(got, 99);
}

TEST(Channel, ManyProducersOneConsumer) {
  Engine eng;
  Channel<int> ch{eng, 4};
  long sum = 0;
  for (int p = 0; p < 10; ++p) {
    eng.spawn([](Engine& e, Channel<int>& c, int id) -> Task<void> {
      for (int i = 0; i < 20; ++i) {
        co_await e.sleep(Time::ns(id * 3 + 1));
        co_await c.send(1);
      }
    }(eng, ch, p));
  }
  eng.spawn([](Channel<int>& c, long& s) -> Task<void> {
    for (int i = 0; i < 200; ++i) s += co_await c.recv();
  }(ch, sum));
  eng.run();
  EXPECT_EQ(sum, 200);
}

}  // namespace
