// Bounded / unbounded FIFO channel between coroutines.
//
// recv() blocks while empty; send() blocks while a bounded channel is full.
// Values are delivered in FIFO order; waiters wake in FIFO order.
#pragma once

#include <cstddef>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>

#include "sim/engine.hpp"
#include "sim/fifo.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace sim {

class ChannelClosed : public std::runtime_error {
 public:
  ChannelClosed() : std::runtime_error("channel closed") {}
};

template <typename T>
class Channel {
 public:
  // capacity == 0 means unbounded.
  explicit Channel(Engine& eng, std::size_t capacity = 0)
      : items_sem_{eng, 0},
        slots_sem_{eng, capacity == 0
                            ? std::numeric_limits<std::int64_t>::max() / 2
                            : static_cast<std::int64_t>(capacity)} {}

  Task<void> send(T v) {
    co_await slots_sem_.acquire();
    if (closed_) throw ChannelClosed{};
    items_.push_back(std::move(v));
    items_sem_.release();
  }

  // Two-phase send for producers that need to know how long they were
  // blocked on a full channel — and to amend the value accordingly —
  // before it is enqueued (e.g. a wormhole router ECN-marking a packet by
  // its head-of-line blocking time).  reserve() waits until a slot is
  // held; commit() then enqueues without suspending, so the pair is
  // FIFO-equivalent to send() as long as the caller does not suspend in
  // between.  Every reserve() must be matched by exactly one commit().
  Task<void> reserve() {
    co_await slots_sem_.acquire();
    if (closed_) throw ChannelClosed{};
  }
  void commit(T v) {
    items_.push_back(std::move(v));
    items_sem_.release();
  }

  // Non-blocking send; returns false if the channel is full (or closed).
  bool try_send(T v) {
    if (closed_ || !slots_sem_.try_acquire()) return false;
    items_.push_back(std::move(v));
    items_sem_.release();
    return true;
  }

  Task<T> recv() {
    if (closed_) throw ChannelClosed{};
    co_await items_sem_.acquire();
    if (items_.empty()) throw ChannelClosed{};  // woken by close()
    T v = std::move(items_.front());
    items_.pop_front();
    slots_sem_.release();
    co_return v;
  }

  std::optional<T> try_recv() {
    if (!items_sem_.try_acquire()) return std::nullopt;
    if (items_.empty()) return std::nullopt;
    T v = std::move(items_.front());
    items_.pop_front();
    slots_sem_.release();
    return v;
  }

  // Wakes all blocked receivers/senders with ChannelClosed.  Items already
  // queued are discarded.
  void close() {
    closed_ = true;
    items_.clear();
    items_sem_.release(static_cast<std::int64_t>(items_sem_.waiting()));
    slots_sem_.release(static_cast<std::int64_t>(slots_sem_.waiting()));
  }

  bool closed() const { return closed_; }
  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }

 private:
  Fifo<T> items_;
  Semaphore items_sem_;
  Semaphore slots_sem_;
  bool closed_ = false;
};

}  // namespace sim
