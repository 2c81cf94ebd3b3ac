#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <queue>
#include <vector>

#include "poi360/common/time.h"
#include "poi360/sim/callback.h"

namespace poi360::sim {

class Simulator;

/// What the engine sees of a FIFO lane (`sim::FifoLane<T>`, fifo_lane.h):
/// its item count and a hook that delivers its head item. Lanes attach to
/// their simulator on construction and detach on destruction, so a lane
/// must not outlive its simulator.
class LaneBase {
 public:
  LaneBase(const LaneBase&) = delete;
  LaneBase& operator=(const LaneBase&) = delete;

  /// Items waiting in the lane (out-of-order pushes sit in the heap).
  std::size_t size() const { return size_; }

 protected:
  explicit LaneBase(Simulator& simulator);
  ~LaneBase();

  /// Draws the engine's next sequence number, exactly where `schedule_at`
  /// draws it for a one-shot event.
  std::uint64_t draw_seq();
  /// A push made the lane nonempty: publishes its head item's key.
  void publish_head(SimTime at, std::uint64_t seq);
  /// The head item left: publishes the next head's key (or, when `size_`
  /// is 0, that the lane is empty; `at` and `seq` are then unused) and
  /// finds the earliest lane again, before the consumer runs.
  void publish_next(SimTime at, std::uint64_t seq);

  Simulator& sim_;
  std::size_t size_ = 0;

 private:
  friend class Simulator;
  /// Removes the head item, publishes the next head (`publish_next`),
  /// then hands the removed item to the lane's consumer.
  virtual void deliver_head() = 0;

  std::size_t index_;  // slot in the engine's lane table
};

/// Discrete-event simulation engine.
///
/// One logical event order with microsecond resolution drives everything:
/// the 4 ms LTE grant tick, video frames (~27.8 ms at 36 FPS), the 40 ms
/// modem diagnostic reports, packet deliveries, and controller timers.
/// Events at the same timestamp run in scheduling order (FIFO), which makes
/// runs fully deterministic for a given seed.
///
/// Three lanes share one logical (time, seq) order:
///
///  * one-shot events go through a binary heap of 24-byte POD entries whose
///    callbacks live in a recycled slot pool — `InlineCallback` keeps
///    typical captures out of the heap allocator, and keeping the callable
///    out of the priority queue keeps sift operations cheap;
///  * periodic timers — the fixed-cadence streams that dominate a session
///    (the LTE grant tick, pacer ticks, diag reports, frame capture) —
///    live in a dedicated lane: each firing advances the timer in place,
///    so after setup a periodic stream never touches the heap *or* the
///    priority queue. Their (next, seq) keys sit in one contiguous vector
///    with the index of the earliest key cached; only a periodic firing or
///    a new timer can move it, so other firings skip the lane's scan;
///  * FIFO lanes (`FifoLane<T>`) carry monotone one-shot streams — a
///    link's packet deliveries, a session's frame handoffs and displays —
///    as plain items handed straight to the lane's consumer, with no
///    callback built and no heap sift per item. Each lane publishes its
///    head key into a vector of its own, with its own cached earliest
///    index, so an idle lane never lengthens the periodic rescan.
///
/// The FIFO contract is preserved exactly across all lanes: every firing
/// carries a sequence number, a lane item draws its number when pushed (as
/// `schedule_at` does), a periodic timer's next firing draws its number
/// after the current callback ran (so events the callback schedules sort
/// ahead of the timer's next turn, just as when each firing re-scheduled
/// itself through the queue), and the engine always fires the globally
/// smallest (time, seq).
class Simulator {
 public:
  using Callback = InlineCallback;

  Simulator() = default;
  // Lanes hold the engine's address.
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  SimTime now() const { return now_; }

  /// Schedules `cb` to run at absolute time `t` (clamped to `now()`).
  void schedule_at(SimTime t, Callback cb);

  /// Schedules `cb` to run `delay` from now (negative delays clamp to now).
  void schedule_in(SimDuration delay, Callback cb) {
    schedule_at(now_ + delay, std::move(cb));
  }

  /// Schedules `cb` every `period`, starting at `start`, until `run_until`'s
  /// horizon. The callback may inspect `now()`.
  void schedule_periodic(SimTime start, SimDuration period, Callback cb);

  /// Runs events until the queue is empty or `end` is reached; leaves the
  /// clock at `end` (events scheduled exactly at `end` do run).
  void run_until(SimTime end);

  /// One-shot events, periodic timers and lane items still to fire.
  std::size_t pending_events() const;

 private:
  friend class LaneBase;

  struct Event {
    SimTime time;
    std::uint64_t seq;   // tie-breaker: FIFO among same-time events
    std::uint32_t slot;  // index of the callback in slots_
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  struct Key {
    SimTime time;
    std::uint64_t seq;
    bool operator<(const Key& o) const {
      return time != o.time ? time < o.time : seq < o.seq;
    }
  };
  // The key of an empty lane: later than every real firing.
  static constexpr Key kIdle{std::numeric_limits<SimTime>::max(),
                             std::numeric_limits<std::uint64_t>::max()};
  struct PeriodicTimer {
    SimDuration period;
    Callback cb;
  };

  /// Fires the earliest pending event across all lanes if its time is
  /// <= `horizon`; returns false when nothing qualified.
  bool fire_next(SimTime horizon);

  std::uint32_t acquire_slot(Callback cb);
  void find_earliest_periodic();
  void find_earliest_lane();
  std::size_t attach_lane(LaneBase* lane);
  void detach_lane(std::size_t index);

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  // One-shot callbacks, indexed by Event::slot and recycled through the
  // free list; at steady state scheduling allocates nothing.
  std::vector<Callback> slots_;
  std::vector<std::uint32_t> free_slots_;
  // Timers are never cancelled. Keys and timers share an index; the deque
  // keeps a firing callback in place while it registers new periodic
  // streams, which may reallocate the key vector.
  std::vector<Key> periodic_keys_;
  std::deque<PeriodicTimer> periodics_;
  std::size_t earliest_periodic_ = 0;  // valid while periodic_keys_ is nonempty
  // Lane head keys and lanes share an index; a detached lane leaves a null
  // slot with the idle key.
  std::vector<Key> lane_keys_;
  std::vector<LaneBase*> lanes_;
  std::size_t earliest_lane_ = 0;  // valid while lane_keys_ is nonempty
};

inline std::uint64_t LaneBase::draw_seq() { return sim_.next_seq_++; }

inline void LaneBase::publish_head(SimTime at, std::uint64_t seq) {
  const Simulator::Key key{at, seq};
  sim_.lane_keys_[index_] = key;
  if (key < sim_.lane_keys_[sim_.earliest_lane_]) {
    sim_.earliest_lane_ = index_;
  }
}

inline void LaneBase::publish_next(SimTime at, std::uint64_t seq) {
  sim_.lane_keys_[index_] =
      size_ == 0 ? Simulator::kIdle : Simulator::Key{at, seq};
  sim_.find_earliest_lane();
}

}  // namespace poi360::sim
