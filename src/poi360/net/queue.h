#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "poi360/common/fifo.h"
#include "poi360/common/time.h"
#include "poi360/common/units.h"
#include "poi360/sim/simulator.h"

namespace poi360::net {

/// Fixed-rate drop-tail bottleneck queue.
///
/// Models the wireline access bottleneck of the campus control runs. The
/// element type must expose a `bytes` member. Service is work-conserving:
/// a packet's transmission completes `bytes / rate` after it reaches the
/// head of the queue. `Sink` is any callable taking `(T, SimTime
/// drained_at)`.
template <typename T,
          typename Sink = std::function<void(T, SimTime drained_at)>>
class DrainQueue {
 public:
  DrainQueue(sim::Simulator& simulator, Bitrate rate,
             std::int64_t byte_limit, Sink sink)
      : sim_(simulator), rate_(rate), byte_limit_(byte_limit),
        sink_(std::move(sink)) {}

  void push(T item) {
    if (queued_bytes_ + item.bytes > byte_limit_) {
      ++dropped_;
      return;
    }
    queued_bytes_ += item.bytes;
    queue_.push_back(std::move(item));
    if (!busy_) start_service();
  }

  std::int64_t queued_bytes() const { return queued_bytes_; }
  std::size_t queued_packets() const { return queue_.size(); }
  std::int64_t dropped() const { return dropped_; }
  Bitrate rate() const { return rate_; }

 private:
  void start_service() {
    busy_ = true;
    const SimDuration tx = transfer_time(queue_.front().bytes, rate_);
    sim_.schedule_in(tx, [this]() { finish_head(); });
  }

  void finish_head() {
    T item = std::move(queue_.front());
    queue_.pop_front();
    queued_bytes_ -= item.bytes;
    sink_(std::move(item), sim_.now());
    if (!queue_.empty()) {
      start_service();
    } else {
      busy_ = false;
    }
  }

  sim::Simulator& sim_;
  Bitrate rate_;
  std::int64_t byte_limit_;
  Sink sink_;
  Fifo<T> queue_;
  std::int64_t queued_bytes_ = 0;
  std::int64_t dropped_ = 0;
  bool busy_ = false;
};

}  // namespace poi360::net
