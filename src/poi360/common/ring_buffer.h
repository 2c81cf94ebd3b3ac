#pragma once

#include <cstddef>
#include <stdexcept>
#include <vector>

namespace poi360 {

/// Fixed-capacity FIFO that overwrites the oldest element when full. The
/// capacity need not be a power of two, so indices wrap by one compare and
/// subtract instead of a division.
///
/// Used for the bounded histories the POI360 controllers keep: the last K
/// firmware-buffer samples for the congestion detector (Eq. 3) and the
/// per-subframe TBS window for the bandwidth estimator (Eq. 4).
template <typename T>
class RingBuffer {
 public:
  explicit RingBuffer(std::size_t capacity)
      : data_(capacity), capacity_(capacity) {
    if (capacity == 0) throw std::invalid_argument("RingBuffer capacity 0");
  }

  void push(const T& value) {
    data_[wrap(head_ + size_)] = value;
    if (size_ == capacity_) {
      head_ = wrap(head_ + 1);
    } else {
      ++size_;
    }
  }

  /// Element `i` counted from the oldest retained element.
  const T& operator[](std::size_t i) const { return data_[wrap(head_ + i)]; }

  const T& front() const { return (*this)[0]; }
  const T& back() const { return (*this)[size_ - 1]; }

  /// Removes and returns the oldest element; throws on an empty buffer.
  T pop_front() {
    if (size_ == 0) throw std::logic_error("RingBuffer::pop_front on empty");
    T value = data_[head_];
    head_ = wrap(head_ + 1);
    --size_;
    return value;
  }

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ == capacity_; }

  void clear() {
    head_ = 0;
    size_ = 0;
  }

 private:
  // Maps a position in [0, 2 * capacity) onto the ring.
  std::size_t wrap(std::size_t i) const {
    return i >= capacity_ ? i - capacity_ : i;
  }

  std::vector<T> data_;
  std::size_t capacity_ = 0;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace poi360
