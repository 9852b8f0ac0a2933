// A FIFO queue in one contiguous power-of-two ring: the container behind
// every per-server queue of the simulator (a FifoServer's pending departures
// and job metadata, the individual board's undelivered heartbeats, the
// stealing ablation's run queues).
//
// The point is the empty state. A libstdc++ std::deque allocates a 64-B map
// and a 512-B node as soon as it is constructed, so a cluster of 10^5 idle
// servers held over 100 MB of queue storage before its first arrival. A Fifo
// allocates nothing until its first push_back, then starts at a small ring
// and doubles it when full; pops and clear() keep the capacity, so a queue
// that once held k elements never allocates again below k.
//
// push_back, pop_front, pop_back, front, back, empty, size and clear are O(1)
// (push_back amortized); iteration runs from the front. Elements must be
// trivially copyable: every queued record here is a few plain numbers.
#pragma once

#include <cstddef>
#include <iterator>
#include <memory>
#include <type_traits>
#include <utility>

#include "check/contracts.h"

namespace stale::sim {

template <class T>
class Fifo {
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_default_constructible_v<T>,
                "sim::Fifo holds plain records only");

 public:
  // Capacity of the first ring a push_back allocates.
  static constexpr std::size_t kFirstCapacity = 4;

  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = const T*;
    using reference = const T&;

    const_iterator() = default;
    reference operator*() const { return fifo_->slot(offset_); }
    const_iterator& operator++() {
      ++offset_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator before = *this;
      ++offset_;
      return before;
    }
    friend bool operator==(const const_iterator&,
                           const const_iterator&) = default;

   private:
    friend class Fifo;
    const_iterator(const Fifo* fifo, std::size_t offset)
        : fifo_(fifo), offset_(offset) {}

    const Fifo* fifo_ = nullptr;
    std::size_t offset_ = 0;  // position counted from the front
  };

  Fifo() = default;

  // A copy gets the same capacity, its elements laid out from the ring's
  // start.
  Fifo(const Fifo& other) : size_(other.size_), capacity_(other.capacity_) {
    if (capacity_ > 0) data_ = std::make_unique_for_overwrite<T[]>(capacity_);
    for (std::size_t i = 0; i < size_; ++i) data_[i] = other.slot(i);
  }

  Fifo(Fifo&& other) noexcept
      : data_(std::move(other.data_)),
        head_(std::exchange(other.head_, 0)),
        size_(std::exchange(other.size_, 0)),
        capacity_(std::exchange(other.capacity_, 0)) {}

  // Copy and move assignment both go through the by-value parameter.
  Fifo& operator=(Fifo other) noexcept {
    std::swap(data_, other.data_);
    std::swap(head_, other.head_);
    std::swap(size_, other.size_);
    std::swap(capacity_, other.capacity_);
    return *this;
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }

  const T& front() const {
    STALE_DCHECK(size_ > 0);
    return data_[head_];
  }
  const T& back() const {
    STALE_DCHECK(size_ > 0);
    return slot(size_ - 1);
  }

  void push_back(const T& value) {
    if (size_ == capacity_) grow();
    data_[(head_ + size_) & (capacity_ - 1)] = value;
    ++size_;
  }

  void pop_front() {
    STALE_DCHECK(size_ > 0);
    head_ = (head_ + 1) & (capacity_ - 1);
    --size_;
  }

  void pop_back() {
    STALE_DCHECK(size_ > 0);
    --size_;
  }

  // Drops every element; the ring stays allocated.
  void clear() {
    head_ = 0;
    size_ = 0;
  }

  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, size_); }

 private:
  // The element `offset` places behind the front.
  const T& slot(std::size_t offset) const {
    return data_[(head_ + offset) & (capacity_ - 1)];
  }

  // Doubles the ring (or allocates the first one), unrolling the elements
  // to the new ring's start so a wrapped queue keeps its order.
  void grow() {
    const std::size_t capacity =
        capacity_ == 0 ? kFirstCapacity : 2 * capacity_;
    auto data = std::make_unique_for_overwrite<T[]>(capacity);
    for (std::size_t i = 0; i < size_; ++i) data[i] = slot(i);
    data_ = std::move(data);
    head_ = 0;
    capacity_ = capacity;
  }

  std::unique_ptr<T[]> data_;
  std::size_t head_ = 0;      // index of the front element
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;  // 0 or a power of two
};

}  // namespace stale::sim
