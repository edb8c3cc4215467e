#include "sim/engine.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <utility>

namespace sim {

std::string Time::str() const {
  char buf[40];
  const double us = to_us();
  if (us >= 1e6) {
    std::snprintf(buf, sizeof buf, "%.3fs", to_sec());
  } else if (us >= 1e3) {
    std::snprintf(buf, sizeof buf, "%.3fms", to_ms());
  } else if (us >= 1.0) {
    std::snprintf(buf, sizeof buf, "%.2fus", us);
  } else {
    std::snprintf(buf, sizeof buf, "%.1fns", to_ns());
  }
  return buf;
}

void Engine::schedule(Time at, std::coroutine_handle<> h) {
  assert(at >= now_);
  queue_.push_back(Item{at, next_seq_++, h, nullptr});
  std::push_heap(queue_.begin(), queue_.end(), Later{});
}

void Engine::schedule_fn(Time at, std::function<void()> fn) {
  assert(at >= now_);
  queue_.push_back(Item{at, next_seq_++, nullptr, std::move(fn)});
  std::push_heap(queue_.begin(), queue_.end(), Later{});
}

Engine::Detached Engine::run_root(Task<void> t, bool daemon) {
  if (!daemon) ++active_tasks_;
  try {
    co_await std::move(t);
  } catch (...) {
    task_errors_.push_back(std::current_exception());
  }
  if (!daemon) --active_tasks_;
}

void Engine::spawn(Task<void> t) { run_root(std::move(t), /*daemon=*/false); }

void Engine::spawn_daemon(Task<void> t) {
  run_root(std::move(t), /*daemon=*/true);
}

Engine::Item Engine::pop() {
  std::pop_heap(queue_.begin(), queue_.end(), Later{});
  Item item = std::move(queue_.back());
  queue_.pop_back();
  return item;
}

void Engine::dispatch(Item item) {
  now_ = item.at;
  ++events_processed_;
  if (item.handle) {
    item.handle.resume();
  } else {
    item.fn();
  }
}

void Engine::finish_run() {
  if (!task_errors_.empty()) {
    auto e = task_errors_.front();
    task_errors_.clear();
    std::rethrow_exception(e);
  }
  if (queue_.empty() && active_tasks_ > 0 && !stop_requested_) {
    throw DeadlockError("simulation deadlock: " +
                        std::to_string(active_tasks_) +
                        " task(s) blocked with no pending events at t=" +
                        now_.str());
  }
}

void Engine::run() {
  stop_requested_ = false;
  while (!queue_.empty() && !stop_requested_ && task_errors_.empty()) {
    dispatch(pop());
  }
  finish_run();
}

bool Engine::run_until(Time t) {
  stop_requested_ = false;
  while (!queue_.empty() && !stop_requested_ && task_errors_.empty()) {
    if (queue_.front().at > t) {
      now_ = t;
      if (!task_errors_.empty()) finish_run();
      return false;
    }
    dispatch(pop());
  }
  finish_run();
  return queue_.empty();
}

}  // namespace sim
