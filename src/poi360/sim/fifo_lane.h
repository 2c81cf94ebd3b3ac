#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "poi360/common/fifo.h"
#include "poi360/common/time.h"
#include "poi360/sim/simulator.h"

namespace poi360::sim {

/// A queue of one-shot deliveries of `T` merged into its simulator's event
/// order: `push(at, item)` fires `consumer(item, at)` at `at`, exactly as
/// `schedule_at(at, ...)` would, but the item waits in a ring (a
/// `poi360::Fifo`) instead of riding a callback through the one-shot heap.
///
/// `Consumer` is any callable taking `(T, SimTime)`. A caller on a hot path
/// passes a concrete functor type so each delivery is a direct call; the
/// default `std::function` suits everyone else.
///
/// Each push draws its sequence number from the engine where `schedule_at`
/// would, so the global (time, seq) order — and every random stream — is
/// the same as with one-shot events. A push earlier than the lane's last
/// item falls back to `schedule_at`, so a non-monotone stream (a reordered
/// or duplicated packet, a display time that moves backwards) stays
/// correct; it only loses the fast path, and its callback may allocate.
///
/// The lane is pinned (its address is in the engine and in fallback
/// events) and must not outlive its simulator.
template <typename T, typename Consumer = std::function<void(T, SimTime)>>
class FifoLane final : public LaneBase {
 public:
  FifoLane(Simulator& simulator, Consumer consumer)
      : LaneBase(simulator), consumer_(std::move(consumer)) {}

  /// Delivers `item` at `at` (clamped to now).
  void push(SimTime at, T item) {
    if (at < sim_.now()) at = sim_.now();
    if (size_ != 0 && at < items_.back().at) {
      sim_.schedule_at(at, [this, item = std::move(item), at]() mutable {
        consumer_(std::move(item), at);
      });
      return;
    }
    const std::uint64_t seq = draw_seq();
    items_.push_back(Item{at, seq, std::move(item)});
    if (size_++ == 0) publish_head(at, seq);
  }

 private:
  struct Item {
    SimTime at = 0;
    std::uint64_t seq = 0;
    T value{};
  };

  void deliver_head() override {
    Item& head = items_.front();
    const SimTime at = head.at;
    T value = std::move(head.value);
    items_.pop_front();
    --size_;
    publish_next(items_.front().at, items_.front().seq);
    consumer_(std::move(value), at);
  }

  Consumer consumer_;
  Fifo<Item> items_;
};

}  // namespace poi360::sim
