#pragma once

#include <cstddef>
#include <iterator>
#include <type_traits>
#include <utility>
#include <vector>

namespace poi360 {

/// Growable first-in-first-out queue in a power-of-two ring: the
/// operations of a deque that a FIFO needs (push at either end, pop at the
/// front, indexing, ordered iteration) with no allocation once the ring has
/// reached the queue's peak length. A full ring doubles and unwraps the
/// queue to its front; it never shrinks, so it keeps its peak capacity.
///
/// Elements live in a `std::vector<T>`, so `T` must be default-constructible
/// and move-assignable. A popped slot keeps its value, and an erased one
/// its moved-from value, until a push reuses it.
template <typename T>
class Fifo {
  template <bool Const>
  class Iter;

 public:
  using value_type = T;
  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return slots_.size(); }

  /// Element `i` counted from the front.
  T& operator[](std::size_t i) { return slots_[(head_ + i) & mask_]; }
  const T& operator[](std::size_t i) const {
    return slots_[(head_ + i) & mask_];
  }

  T& front() { return slots_[head_]; }
  const T& front() const { return slots_[head_]; }
  T& back() { return (*this)[size_ - 1]; }
  const T& back() const { return (*this)[size_ - 1]; }

  void push_back(T value) {
    if (size_ == slots_.size()) grow();
    slots_[(head_ + size_) & mask_] = std::move(value);
    ++size_;
  }

  void push_front(T value) {
    if (size_ == slots_.size()) grow();
    head_ = (head_ - 1) & mask_;
    slots_[head_] = std::move(value);
    ++size_;
  }

  /// Drops the front element; the queue must not be empty.
  void pop_front() {
    head_ = (head_ + 1) & mask_;
    --size_;
  }

  void clear() {
    head_ = 0;
    size_ = 0;
  }

  /// Removes every element for which `pred` holds and keeps the order of
  /// the rest. `pred` sees each element once, front to back. Returns the
  /// number removed.
  template <typename Pred>
  std::size_t erase_if(Pred pred) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < size_; ++i) {
      T& item = (*this)[i];
      if (pred(item)) continue;
      if (kept != i) (*this)[kept] = std::move(item);
      ++kept;
    }
    const std::size_t erased = size_ - kept;
    size_ = kept;
    return erased;
  }

  iterator begin() { return {this, 0}; }
  iterator end() { return {this, size_}; }
  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, size_}; }

 private:
  static constexpr std::size_t kInitialSlots = 8;

  // Forward iterator over the queue, front to back.
  template <bool Const>
  class Iter {
   public:
    using Owner = std::conditional_t<Const, const Fifo, Fifo>;
    using iterator_category = std::forward_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = std::conditional_t<Const, const T*, T*>;
    using reference = std::conditional_t<Const, const T&, T&>;

    Iter() = default;
    Iter(Owner* fifo, std::size_t i) : fifo_(fifo), i_(i) {}

    reference operator*() const { return (*fifo_)[i_]; }
    pointer operator->() const { return &(*fifo_)[i_]; }
    Iter& operator++() {
      ++i_;
      return *this;
    }
    Iter operator++(int) {
      Iter before = *this;
      ++i_;
      return before;
    }
    bool operator==(const Iter& o) const { return i_ == o.i_; }

   private:
    Owner* fifo_ = nullptr;
    std::size_t i_ = 0;
  };

  // Doubles the ring, unwrapping the queue to the front.
  void grow() {
    std::vector<T> bigger(slots_.empty() ? kInitialSlots : slots_.size() * 2);
    for (std::size_t i = 0; i < size_; ++i) {
      bigger[i] = std::move((*this)[i]);
    }
    slots_ = std::move(bigger);
    head_ = 0;
    mask_ = slots_.size() - 1;
  }

  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
};

}  // namespace poi360
