// Coroutine synchronization primitives with FIFO wakeup order.
//
// All primitives resume waiters through the engine's event queue (never
// inline), so wakeups are deterministic and re-entrancy free: a release()
// performed at time t resumes the waiter at time t but after events already
// queued for t.
//
// Waiter lists are sim::Fifo rings, so a primitive nobody has waited on
// holds no heap memory.
#pragma once

#include <coroutine>
#include <cstdint>

#include "sim/engine.hpp"
#include "sim/fifo.hpp"
#include "sim/task.hpp"

namespace sim {

// Counting semaphore.  acquire() is an awaitable; release() never blocks.
class Semaphore {
 public:
  Semaphore(Engine& eng, std::int64_t initial)
      : eng_{eng}, count_{initial} {}
  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  auto acquire() {
    struct Awaiter {
      Semaphore& s;
      bool await_ready() const noexcept {
        if (s.count_ > 0) {
          --s.count_;
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) { s.waiters_.push_back(h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  bool try_acquire() {
    if (count_ > 0) {
      --count_;
      return true;
    }
    return false;
  }

  // Releases `n` permits.  Queued waiters receive permits directly, in FIFO
  // order, and are resumed through the engine at the current time.
  void release(std::int64_t n = 1);

  std::int64_t available() const { return count_; }
  std::size_t waiting() const { return waiters_.size(); }

 private:
  Engine& eng_;
  std::int64_t count_;
  Fifo<std::coroutine_handle<>> waiters_;
};

// Non-recursive mutex.  Use `auto g = co_await m.scoped();` for RAII style.
class Mutex {
 public:
  explicit Mutex(Engine& eng) : sem_{eng, 1} {}

  auto lock() { return sem_.acquire(); }
  void unlock() { sem_.release(); }
  bool locked() const { return sem_.available() == 0; }

  class Guard {
   public:
    explicit Guard(Mutex* m) : m_{m} {}
    Guard(Guard&& o) noexcept : m_{o.m_} { o.m_ = nullptr; }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;
    Guard& operator=(Guard&&) = delete;
    ~Guard() {
      if (m_) m_->unlock();
    }

   private:
    Mutex* m_;
  };

  Task<Guard> scoped() {
    co_await lock();
    co_return Guard{this};
  }

 private:
  Semaphore sem_;
};

// Condition variable for use with Mutex.  wait() atomically enqueues and
// releases the mutex, then reacquires it after a notify.
class CondVar {
 public:
  explicit CondVar(Engine& eng) : eng_{eng} {}

  Task<void> wait(Mutex& m);
  void notify_one();
  void notify_all();

  std::size_t waiting() const { return waiters_.size(); }

 private:
  Engine& eng_;
  Fifo<std::coroutine_handle<>> waiters_;
};

// One-shot broadcast gate: tasks wait() until somebody open()s it.
class Gate {
 public:
  explicit Gate(Engine& eng) : eng_{eng} {}

  auto wait() {
    struct Awaiter {
      Gate& g;
      bool await_ready() const noexcept { return g.open_; }
      void await_suspend(std::coroutine_handle<> h) { g.waiters_.push_back(h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  void open();
  bool is_open() const { return open_; }

 private:
  Engine& eng_;
  bool open_ = false;
  Fifo<std::coroutine_handle<>> waiters_;
};

}  // namespace sim
