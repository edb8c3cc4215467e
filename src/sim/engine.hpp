// Deterministic discrete-event engine.
//
// The engine owns a time-ordered queue of pending resumptions.  Events at
// equal times fire in insertion order, so a given program is bit-for-bit
// reproducible.  Root coroutines are started with spawn() (counted towards
// completion / deadlock detection) or spawn_daemon() (server loops that are
// allowed to remain blocked when the experiment finishes).
#pragma once

#include <coroutine>
#include <cstdint>
#include <exception>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/task.hpp"
#include "sim/time.hpp"

namespace sim {

// Thrown by Engine::run() when non-daemon tasks remain blocked but no event
// can ever wake them (a genuine protocol deadlock in the simulated system).
class DeadlockError : public std::runtime_error {
 public:
  explicit DeadlockError(const std::string& what) : std::runtime_error(what) {}
};

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  Time now() const { return now_; }

  // -- scheduling --------------------------------------------------------------
  void schedule(Time at, std::coroutine_handle<> h);
  void schedule_fn(Time at, std::function<void()> fn);

  // Awaitable: resume after `d` of simulated time.
  auto sleep(Time d) {
    struct Awaiter {
      Engine& eng;
      Time at;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) { eng.schedule(at, h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, now_ + d};
  }
  auto sleep_until(Time t) {
    struct Awaiter {
      Engine& eng;
      Time at;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) { eng.schedule(at, h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, t < now_ ? now_ : t};
  }
  // Reschedule at the current time, behind already-queued events.
  auto yield() { return sleep(Time::zero()); }

  // -- root coroutines ---------------------------------------------------------
  // Starts `t` immediately (it runs until its first suspension).  The task
  // counts towards run() completion: run() throws DeadlockError if any
  // spawned task is still blocked when the event queue drains.
  void spawn(Task<void> t);
  // Like spawn, but the task may be left blocked at the end of the run
  // (device firmware, server loops).
  void spawn_daemon(Task<void> t);

  // -- execution ---------------------------------------------------------------
  // Drains the event queue.  Rethrows the first exception that escaped a
  // spawned task; throws DeadlockError on deadlock.
  void run();
  // Runs until simulated time would exceed `t`; returns true if the queue
  // drained (all work done).
  bool run_until(Time t);
  // Requests run() to return after the current event.
  void stop() { stop_requested_ = true; }

  std::size_t pending_events() const { return queue_.size(); }
  std::uint64_t events_processed() const { return events_processed_; }
  int active_tasks() const { return active_tasks_; }

 private:
  struct Detached {
    struct promise_type {
      Detached get_return_object() { return {}; }
      std::suspend_never initial_suspend() noexcept { return {}; }
      std::suspend_never final_suspend() noexcept { return {}; }
      void return_void() {}
      void unhandled_exception() noexcept { std::terminate(); }
    };
  };
  Detached run_root(Task<void> t, bool daemon);

  struct Item {
    Time at;
    std::uint64_t seq;
    std::coroutine_handle<> handle;   // one of handle/fn is set
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Item& a, const Item& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  Item pop();  // the earliest event, moved out of the heap
  void dispatch(Item item);
  void finish_run();

  // A binary heap under std::push_heap / std::pop_heap with Later, so the
  // next event leaves it by move: copying an Item would copy its callable.
  std::vector<Item> queue_;
  Time now_ = Time::zero();
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  int active_tasks_ = 0;
  bool stop_requested_ = false;
  std::vector<std::exception_ptr> task_errors_;
};

}  // namespace sim
