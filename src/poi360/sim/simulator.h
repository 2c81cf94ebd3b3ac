#pragma once

#include <cstdint>
#include <deque>
#include <queue>
#include <vector>

#include "poi360/common/time.h"
#include "poi360/sim/callback.h"

namespace poi360::sim {

/// Discrete-event simulation engine.
///
/// A single event queue with microsecond resolution drives everything: LTE
/// subframes (1 ms), video frames (~27.8 ms at 36 FPS), the 40 ms modem
/// diagnostic reports, packet deliveries, and controller timers. Events at
/// the same timestamp run in scheduling order (FIFO), which makes runs fully
/// deterministic for a given seed.
///
/// Two lanes share one logical (time, seq) order:
///
///  * one-shot events go through a binary heap of 24-byte POD entries whose
///    callbacks live in a recycled slot pool — `InlineCallback` keeps
///    typical captures (an RTP packet, a completed frame) out of the heap
///    allocator, and keeping the callable out of the priority queue keeps
///    sift operations cheap;
///  * periodic timers — the fixed-cadence streams that dominate a session
///    (the LTE grant tick, pacer ticks, diag reports, frame capture) —
///    live in a dedicated lane: each firing advances the timer in place,
///    so after setup a periodic stream never touches the heap *or* the
///    priority queue. Their (next, seq) keys sit in one contiguous vector
///    with the index of the earliest key cached; only a periodic firing or
///    a new timer can move it, so one-shot firings skip the lane's scan.
///
/// The FIFO contract is preserved exactly across both lanes: every firing
/// (one-shot or periodic) carries a sequence number, a periodic timer's
/// next firing draws its sequence number after the current callback ran
/// (so events the callback schedules sort ahead of the timer's next turn,
/// just as when each firing re-scheduled itself through the queue), and
/// the engine always fires the globally smallest (time, seq).
class Simulator {
 public:
  using Callback = InlineCallback;

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

  std::size_t pending_events() const {
    return queue_.size() + periodic_keys_.size();
  }

 private:
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
  struct PeriodicKey {
    SimTime next;
    std::uint64_t seq;  // refreshed after every firing
    bool operator<(const PeriodicKey& o) const {
      return next != o.next ? next < o.next : seq < o.seq;
    }
  };
  struct PeriodicTimer {
    SimDuration period;
    Callback cb;
  };

  /// Fires the earliest pending event across both lanes if its time is
  /// <= `horizon`; returns false when nothing qualified.
  bool fire_next(SimTime horizon);

  std::uint32_t acquire_slot(Callback cb);
  void find_earliest_periodic();

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
  std::vector<PeriodicKey> periodic_keys_;
  std::deque<PeriodicTimer> periodics_;
  std::size_t earliest_periodic_ = 0;  // valid while periodic_keys_ is nonempty
};

}  // namespace poi360::sim
