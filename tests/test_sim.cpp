#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <stdexcept>
#include <utility>
#include <vector>

#include "poi360/sim/fifo_lane.h"
#include "poi360/sim/simulator.h"

namespace poi360::sim {
namespace {

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.schedule_at(msec(30), [&]() { order.push_back(3); });
  s.schedule_at(msec(10), [&]() { order.push_back(1); });
  s.schedule_at(msec(20), [&]() { order.push_back(2); });
  s.run_until(msec(100));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), msec(100));
}

TEST(Simulator, SameTimeEventsAreFifo) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    s.schedule_at(msec(10), [&, i]() { order.push_back(i); });
  }
  s.run_until(msec(10));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, PastSchedulingClampsToNow) {
  Simulator s;
  int fired_at = -1;
  s.schedule_at(msec(50), [&]() {
    s.schedule_at(msec(10), [&]() {  // in the past
      fired_at = static_cast<int>(to_millis(s.now()));
    });
  });
  s.run_until(msec(100));
  EXPECT_EQ(fired_at, 50);
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator s;
  SimTime fired = -1;
  s.schedule_at(msec(20), [&]() {
    s.schedule_in(msec(5), [&]() { fired = s.now(); });
  });
  s.run_until(msec(100));
  EXPECT_EQ(fired, msec(25));
}

TEST(Simulator, EventsBeyondHorizonStayPending) {
  Simulator s;
  bool fired = false;
  s.schedule_at(msec(200), [&]() { fired = true; });
  s.run_until(msec(100));
  EXPECT_FALSE(fired);
  EXPECT_EQ(s.pending_events(), 1u);
  s.run_until(msec(300));
  EXPECT_TRUE(fired);
}

TEST(Simulator, PendingEventsCountsLaneItems) {
  Simulator s;
  std::vector<int> got;
  FifoLane<int> lane(s, [&](int v, SimTime) { got.push_back(v); });
  lane.push(msec(10), 1);
  lane.push(msec(20), 2);
  lane.push(msec(15), 3);  // behind the last item: waits in the heap
  s.schedule_at(msec(30), []() {});
  s.schedule_periodic(msec(50), msec(50), []() {});
  EXPECT_EQ(lane.size(), 2u);
  EXPECT_EQ(s.pending_events(), 5u);
  s.run_until(msec(16));
  EXPECT_EQ(got, (std::vector<int>{1, 3}));
  EXPECT_EQ(lane.size(), 1u);
  EXPECT_EQ(s.pending_events(), 3u);
  s.run_until(msec(40));
  EXPECT_EQ(lane.size(), 0u);
  EXPECT_EQ(s.pending_events(), 1u);  // the periodic timer
}

TEST(Simulator, EventExactlyAtHorizonRuns) {
  Simulator s;
  bool fired = false;
  s.schedule_at(msec(100), [&]() { fired = true; });
  s.run_until(msec(100));
  EXPECT_TRUE(fired);
}

TEST(Simulator, PeriodicFiresAtEachPeriod) {
  Simulator s;
  std::vector<SimTime> fires;
  s.schedule_periodic(msec(10), msec(10), [&]() { fires.push_back(s.now()); });
  s.run_until(msec(55));
  ASSERT_EQ(fires.size(), 5u);
  for (std::size_t i = 0; i < fires.size(); ++i) {
    EXPECT_EQ(fires[i], msec(10) * static_cast<SimDuration>(i + 1));
  }
}

// The engine advances only through run()/run_until(); there is no
// single-event entry point.
template <typename S>
concept HasStep = requires(S& s) { s.step(); };
static_assert(!HasStep<Simulator>);

// Each callback counts its firing and throws past the two scheduled, so an
// engine that re-fires events fails at once instead of running away.
TEST(Simulator, NestedSchedulingDuringEvent) {
  Simulator s;
  std::vector<int> order;
  int fired = 0;
  const auto count_firing = [&fired]() {
    if (++fired > 2) throw std::runtime_error("more firings than scheduled");
  };
  s.schedule_at(msec(10), [&]() {
    count_firing();
    order.push_back(1);
    s.schedule_at(msec(10), [&]() {  // same time
      count_firing();
      order.push_back(2);
    });
  });
  s.run_until(msec(10));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

// A one-shot scheduled *during* a periodic firing at the timestamp of the
// timer's next firing must run first: the timer's next turn draws its
// sequence number after the callback, exactly as when each firing
// re-scheduled itself through the queue.
TEST(Simulator, OneShotFromPeriodicCallbackBeatsNextFiring) {
  Simulator s;
  std::vector<std::pair<char, SimTime>> order;
  bool scheduled = false;
  s.schedule_periodic(msec(10), msec(10), [&]() {
    order.push_back({'p', s.now()});
    if (!scheduled) {
      scheduled = true;
      s.schedule_at(msec(20), [&]() { order.push_back({'o', s.now()}); });
    }
  });
  s.run_until(msec(20));
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], (std::pair<char, SimTime>{'p', msec(10)}));
  EXPECT_EQ(order[1], (std::pair<char, SimTime>{'o', msec(20)}));
  EXPECT_EQ(order[2], (std::pair<char, SimTime>{'p', msec(20)}));
}

// Coincident periodic timers fire in sequence-number order, and each firing
// refreshes the timer's sequence number. Timers 1 and 2 keep registration
// order among themselves; timer 3's *first* firing at t=20 carries its
// (older) registration sequence number and therefore precedes the t=10
// timers' re-armed turns — exactly the order the self-rescheduling
// wrapper-event implementation produced.
TEST(Simulator, CoincidentPeriodicsKeepSequenceOrder) {
  Simulator s;
  std::vector<int> order;
  s.schedule_periodic(msec(10), msec(10), [&]() { order.push_back(1); });
  s.schedule_periodic(msec(10), msec(10), [&]() { order.push_back(2); });
  s.schedule_periodic(msec(20), msec(20), [&]() { order.push_back(3); });
  s.run_until(msec(40));
  // t=10: 1,2 | t=20: 3,1,2 | t=30: 1,2 | t=40: 3,1,2
  EXPECT_EQ(order,
            (std::vector<int>{1, 2, 3, 1, 2, 1, 2, 3, 1, 2}));
}

TEST(Simulator, PeriodicRegisteredDuringCallbackStartsOnTime) {
  Simulator s;
  std::vector<SimTime> fires;
  s.schedule_at(msec(10), [&]() {
    s.schedule_periodic(msec(15), msec(5), [&]() { fires.push_back(s.now()); });
  });
  s.run_until(msec(30));
  EXPECT_EQ(fires, (std::vector<SimTime>{msec(15), msec(20), msec(25),
                                         msec(30)}));
}

// Reference engine replicating the pre-optimization Simulator semantics
// exactly: a single (time, seq) ordered pool where schedule_periodic wraps
// the callback in a self-rescheduling closure (the next firing's sequence
// number is drawn after the callback runs). The production engine, with its
// dedicated periodic lane, must be observationally indistinguishable.
class ReferenceEngine {
 public:
  SimTime now() const { return now_; }

  void schedule_at(SimTime t, std::function<void()> cb) {
    if (t < now_) t = now_;
    events_.push_back(Ev{t, seq_++, std::move(cb)});
  }

  void schedule_periodic(SimTime start, SimDuration period,
                         std::function<void()> cb) {
    if (start < now_) start = now_;
    auto shared = std::make_shared<std::function<void()>>(std::move(cb));
    schedule_at(start, [this, shared, period]() {
      (*shared)();
      schedule_periodic_again(shared, period);
    });
  }

  void run_until(SimTime end) {
    while (true) {
      std::size_t best = events_.size();
      for (std::size_t i = 0; i < events_.size(); ++i) {
        if (best == events_.size() || events_[i].time < events_[best].time ||
            (events_[i].time == events_[best].time &&
             events_[i].seq < events_[best].seq)) {
          best = i;
        }
      }
      if (best == events_.size() || events_[best].time > end) break;
      Ev ev = std::move(events_[best]);
      events_.erase(events_.begin() + static_cast<std::ptrdiff_t>(best));
      now_ = ev.time;
      ev.cb();
    }
    if (now_ < end) now_ = end;
  }

 private:
  struct Ev {
    SimTime time;
    std::uint64_t seq;
    std::function<void()> cb;
  };

  void schedule_periodic_again(std::shared_ptr<std::function<void()>> shared,
                               SimDuration period) {
    schedule_at(now_ + period, [this, shared, period]() {
      (*shared)();
      schedule_periodic_again(shared, period);
    });
  }

  SimTime now_ = 0;
  std::uint64_t seq_ = 0;
  std::vector<Ev> events_;
};

// The reference model of a FIFO lane: every push is a plain one-shot.
class ReferenceLane {
 public:
  ReferenceLane(ReferenceEngine& engine,
                std::function<void(int, SimTime)> consumer)
      : engine_(engine), consumer_(std::move(consumer)) {}

  void push(SimTime at, int item) {
    if (at < engine_.now()) at = engine_.now();
    engine_.schedule_at(at, [this, item, at]() { consumer_(item, at); });
  }

 private:
  ReferenceEngine& engine_;
  std::function<void(int, SimTime)> consumer_;
};

struct FiringLog {
  std::size_t limit;
  std::vector<std::pair<int, SimTime>> entries;

  void push_back(std::pair<int, SimTime> entry) {
    if (entries.size() >= limit) {
      throw std::runtime_error("more firings than scheduled");
    }
    entries.push_back(entry);
  }
};

template <typename Engine>
struct LaneOf {
  using type = FifoLane<int>;
};
template <>
struct LaneOf<ReferenceEngine> {
  using type = ReferenceLane;
};

// Drives one engine through a deterministic pseudo-random scenario of
// one-shots, periodics and two FIFO lanes (millisecond granularity to force
// timestamp collisions), where some firings schedule or push follow-ups at
// the current timestamp. Lane A gets monotone pushes, pushes at now() from
// one-shot callbacks, and pushes onto itself during its own deliveries;
// lane B gets pushes in random order, so many take the heap fallback.
// Returns the full (tag, time) firing log. Every firing logs itself, and
// the log throws once it would pass `limit` entries, so an engine that
// fires more than the scenario scheduled fails at once.
template <typename Engine>
std::vector<std::pair<int, SimTime>> run_scenario(Engine& e, unsigned seed,
                                                  std::size_t limit) {
  using Lane = typename LaneOf<Engine>::type;
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> time_ms(0, 200);
  FiringLog log{limit, {}};

  Lane* lane_a = nullptr;
  Lane a(e, [&e, &log, &lane_a](int tag, SimTime at) {
    EXPECT_EQ(at, e.now());
    log.push_back({tag, e.now()});
    if (tag % 5 == 0 && tag < 5000) {  // re-push onto the delivering lane
      lane_a->push(e.now(), tag + 5000);
      lane_a->push(e.now() + msec(tag % 3), tag + 6000);
    }
  });
  lane_a = &a;
  Lane b(e, [&e, &log](int tag, SimTime at) {
    EXPECT_EQ(at, e.now());
    log.push_back({tag, e.now()});
  });

  SimTime monotone = 0;
  for (int n = 0; n < 60; ++n) {
    const int tag = n;
    const SimTime t = msec(time_ms(rng));
    const bool chain = (n % 4 == 0);
    const bool push_now = (n % 6 == 1);
    e.schedule_at(t, [&e, &log, &a, tag, chain, push_now]() {
      log.push_back({tag, e.now()});
      if (chain) {
        e.schedule_at(e.now(), [&e, &log, tag]() {  // same-time follow-up
          log.push_back({tag + 1000, e.now()});
        });
      }
      if (push_now) a.push(e.now(), tag + 4000);
    });
    monotone += msec(time_ms(rng) % 4);
    a.push(monotone, 4100 + n);
    b.push(msec(time_ms(rng)), 4300 + n);
  }
  const SimDuration periods[] = {msec(1), msec(5), msec(7), msec(28),
                                 msec(40)};
  for (int p = 0; p < 5; ++p) {
    const int tag = 2000 + p;
    const SimTime start = msec(time_ms(rng) % 50);
    e.schedule_periodic(start, periods[p], [&e, &log, &b, tag]() {
      log.push_back({tag, e.now()});
      if (tag == 2001 && to_millis(e.now()) == 25) {
        e.schedule_at(e.now(), [&e, &log]() { log.push_back({3000, e.now()}); });
      }
      if (tag == 2003) {
        b.push(e.now() + msec(3), 4500 + static_cast<int>(e.now() / msec(1)));
      }
    });
  }
  e.run_until(msec(400));
  return log.entries;
}

// Differential property test: the production engine's firing order equals
// the reference engine's, event for event, across several seeds.
TEST(Simulator, MatchesReferenceEngineOnRandomizedSchedules) {
  for (unsigned seed : {1u, 7u, 42u, 1234u}) {
    Simulator fast;
    ReferenceEngine ref;
    const auto want = run_scenario(ref, seed, SIZE_MAX);
    const auto got = run_scenario(fast, seed, want.size());
    ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], want[i]) << "seed " << seed << " index " << i;
    }
    EXPECT_EQ(fast.now(), ref.now());
  }
}

// Captures past std::function's small buffer live on the allocator heap
// and reach the callback intact.
TEST(Simulator, AcceptsOversizedCallbacks) {
  Simulator s;
  struct Big {
    std::int64_t words[32];
  };
  Big big{};
  big.words[31] = 9;
  std::int64_t big_got = 0;
  s.schedule_at(msec(2), [big, &big_got]() { big_got = big.words[31]; });
  s.run_until(msec(5));
  EXPECT_EQ(big_got, 9);
}

// A running callback may grow the engine under itself: a one-shot that
// schedules a thousand one-shots reallocates the heap it was popped from,
// and a periodic that registers another periodic may reallocate the key
// vector. Both then read their own captures. The one-shot's two
// references fit std::function's small buffer, so were the callback
// invoked in place in the heap, those reads would hit freed storage.
TEST(Simulator, CallbackMayGrowTheHeapWhileItRuns) {
  Simulator s;
  std::vector<int> order;
  s.schedule_at(msec(1), [&s, &order]() {
    for (int i = 0; i < 1000; ++i) {
      s.schedule_at(msec(2), [&order, i]() { order.push_back(i); });
    }
    order.push_back(-1);
  });
  bool registered = false;
  s.schedule_periodic(msec(3), msec(2), [&s, &order, &registered]() {
    if (!registered) {
      registered = true;
      s.schedule_periodic(msec(4), msec(2),
                          [&order]() { order.push_back(2000); });
    }
    order.push_back(1000);
  });
  s.run_until(msec(6));
  std::vector<int> want{-1};
  for (int i = 0; i < 1000; ++i) want.push_back(i);
  for (int v : {1000, 2000, 1000, 2000}) want.push_back(v);
  EXPECT_EQ(order, want);
  EXPECT_EQ(s.pending_events(), 2u);
}

}  // namespace
}  // namespace poi360::sim
