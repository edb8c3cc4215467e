// FIFO queue that costs nothing until it holds something.
//
// A power-of-two ring buffer: the first push allocates one slot and every
// push into a full ring doubles it, so an idle queue is three words and a
// null pointer.  pop_front() destroys the element in place (a popped
// packet frees its payload at once); clear() destroys every element but
// keeps the ring for reuse, and release_if_empty() gives an empty queue's
// ring back, for a queue that is usually idle between bursts.  Iteration
// visits elements front to back.
// Any push may reallocate, which invalidates every iterator, pointer and
// reference into the queue.  A pop leaves pointers and references to the
// other elements valid, but shifts every iterator: iterators count from
// the front.
#pragma once

#include <cassert>
#include <cstddef>
#include <iterator>
#include <memory>
#include <utility>

namespace sim {

template <typename T>
class Fifo {
 public:
  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using reference = T&;
    using pointer = T*;

    iterator() = default;
    iterator(Fifo* q, std::size_t i) : q_{q}, i_{i} {}

    T& operator*() const { return q_->at(i_); }
    T* operator->() const { return &q_->at(i_); }
    iterator& operator++() {
      ++i_;
      return *this;
    }
    iterator operator++(int) {
      iterator old = *this;
      ++i_;
      return old;
    }
    bool operator==(const iterator& o) const { return i_ == o.i_; }

   private:
    Fifo* q_ = nullptr;
    std::size_t i_ = 0;
  };

  Fifo() = default;
  Fifo(const Fifo&) = delete;
  Fifo& operator=(const Fifo&) = delete;
  ~Fifo() {
    clear();
    if (slots_ != nullptr) std::allocator<T>{}.deallocate(slots_, cap_);
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  T& front() { return at(0); }
  T& back() { return at(size_ - 1); }

  void push_back(const T& v) { push_back(T(v)); }
  void push_back(T&& v) {
    if (size_ == cap_) {
      T keep(std::move(v));  // `v` may live in this ring, which grow() moves
      grow();
      construct_back(std::move(keep));
    } else {
      construct_back(std::move(v));
    }
  }

  void pop_front() {
    assert(size_ > 0);
    std::destroy_at(slots_ + head_);
    head_ = (head_ + 1) & (cap_ - 1);
    --size_;
  }

  void clear() {
    while (size_ > 0) pop_front();
    head_ = 0;
  }

  // Frees the ring if the queue holds nothing, so it is back to three
  // words and a null pointer; the next push allocates one slot afresh.
  void release_if_empty() {
    if (size_ > 0 || slots_ == nullptr) return;
    std::allocator<T>{}.deallocate(slots_, cap_);
    slots_ = nullptr;
    cap_ = 0;
    head_ = 0;
  }

  iterator begin() { return {this, 0}; }
  iterator end() { return {this, size_}; }

 private:
  // i-th element from the front.
  T& at(std::size_t i) {
    assert(i < size_);
    return slots_[(head_ + i) & (cap_ - 1)];
  }

  void construct_back(T&& v) {
    std::construct_at(slots_ + ((head_ + size_) & (cap_ - 1)), std::move(v));
    ++size_;
  }

  void grow() {
    const std::size_t cap = cap_ == 0 ? 1 : cap_ * 2;
    T* slots = std::allocator<T>{}.allocate(cap);
    for (std::size_t i = 0; i < size_; ++i) {
      T& old = at(i);
      std::construct_at(slots + i, std::move(old));
      std::destroy_at(&old);
    }
    if (slots_ != nullptr) std::allocator<T>{}.deallocate(slots_, cap_);
    slots_ = slots;
    cap_ = cap;
    head_ = 0;
  }

  T* slots_ = nullptr;
  std::size_t cap_ = 0;  // zero or a power of two
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace sim
