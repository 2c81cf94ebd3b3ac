#include "poi360/sim/simulator.h"

#include <algorithm>
#include <utility>

namespace poi360::sim {

void Simulator::schedule_at(SimTime t, Callback cb) {
  if (t < now_) t = now_;
  queue_.push_back(Event{t, next_seq_++, std::move(cb)});
  std::push_heap(queue_.begin(), queue_.end(), Later{});
}

void Simulator::schedule_periodic(SimTime start, SimDuration period,
                                  Callback cb) {
  if (start < now_) start = now_;
  periodic_keys_.push_back(Key{start, next_seq_++});
  periodics_.push_back(PeriodicTimer{period, std::move(cb)});
  if (periodic_keys_.back() < periodic_keys_[earliest_periodic_]) {
    earliest_periodic_ = periodic_keys_.size() - 1;
  }
}

// Sessions run a handful of timers and lanes, so a linear scan over the
// contiguous keys beats maintaining another heap.
void Simulator::find_earliest_periodic() {
  std::size_t best = 0;
  for (std::size_t i = 1; i < periodic_keys_.size(); ++i) {
    if (periodic_keys_[i] < periodic_keys_[best]) best = i;
  }
  earliest_periodic_ = best;
}

void Simulator::find_earliest_lane() {
  std::size_t best = 0;
  for (std::size_t i = 1; i < lane_keys_.size(); ++i) {
    if (lane_keys_[i] < lane_keys_[best]) best = i;
  }
  earliest_lane_ = best;
}

std::size_t Simulator::attach_lane(LaneBase* lane) {
  lanes_.push_back(lane);
  lane_keys_.push_back(kIdle);
  return lanes_.size() - 1;
}

void Simulator::detach_lane(std::size_t index) {
  lanes_[index] = nullptr;
  lane_keys_[index] = kIdle;
  find_earliest_lane();
}

std::size_t Simulator::pending_events() const {
  std::size_t n = queue_.size() + periodic_keys_.size();
  for (const LaneBase* lane : lanes_) {
    if (lane != nullptr) n += lane->size();
  }
  return n;
}

LaneBase::LaneBase(Simulator& simulator)
    : sim_(simulator), index_(simulator.attach_lane(this)) {}

LaneBase::~LaneBase() { sim_.detach_lane(index_); }

bool Simulator::fire_next(SimTime horizon) {
  // The earliest firing is the globally smallest (time, seq) across the
  // one-shot heap, the periodic lane and the FIFO lanes.
  enum class Source { kNone, kHeap, kPeriodic, kLane };
  Source source = Source::kNone;
  Key best = kIdle;
  if (!queue_.empty()) {
    best = Key{queue_.front().time, queue_.front().seq};
    source = Source::kHeap;
  }
  if (!periodic_keys_.empty() && periodic_keys_[earliest_periodic_] < best) {
    best = periodic_keys_[earliest_periodic_];
    source = Source::kPeriodic;
  }
  if (!lane_keys_.empty() && lane_keys_[earliest_lane_] < best) {
    best = lane_keys_[earliest_lane_];
    source = Source::kLane;
  }
  if (source == Source::kNone || best.time > horizon) return false;

  now_ = best.time;
  switch (source) {
    case Source::kPeriodic: {
      const std::size_t index = earliest_periodic_;
      periodics_[index].cb();
      // Re-arm in place. The next firing draws its sequence number *after*
      // the callback ran, exactly as when each firing re-scheduled itself
      // through the queue: events the callback just scheduled at the same
      // future timestamp keep their FIFO slot ahead of the timer's next
      // turn.
      periodic_keys_[index] =
          Key{now_ + periodics_[index].period, next_seq_++};
      find_earliest_periodic();
      break;
    }
    case Source::kLane:
      lanes_[earliest_lane_]->deliver_head();
      break;
    default: {
      // Move the callback out before invoking: the callback may schedule
      // new events, which can reallocate the heap under it.
      std::pop_heap(queue_.begin(), queue_.end(), Later{});
      Callback cb = std::move(queue_.back().cb);
      queue_.pop_back();
      cb();
      break;
    }
  }
  return true;
}

void Simulator::run_until(SimTime end) {
  while (fire_next(end)) {
  }
  if (now_ < end) now_ = end;
}

}  // namespace poi360::sim
