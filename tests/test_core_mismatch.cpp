#include <gtest/gtest.h>

#include <deque>
#include <utility>

#include "poi360/common/rng.h"
#include "poi360/core/mismatch.h"

namespace poi360::core {
namespace {

MismatchTracker::Config fast_reset() {
  MismatchTracker::Config c;
  c.convergence_hold = 0;  // classic Eq. 2 behaviour for unit tests
  return c;
}

TEST(Mismatch, ConvergedFramesReportFrameDelay) {
  MismatchTracker tracker(fast_reset());
  // ROI at the frame's best level: M = d_v.
  const SimDuration m =
      tracker.on_frame(sec(1), msec(420), 1.0, 1.0, {6, 4});
  EXPECT_EQ(m, msec(420));
  EXPECT_FALSE(tracker.mismatch_active());
}

TEST(Mismatch, MismatchGrowsWithTime) {
  MismatchTracker tracker(fast_reset());
  SimTime t = sec(1);
  // First mismatched frame: counting starts, M = max(0, dv) = dv.
  EXPECT_EQ(tracker.on_frame(t, msec(400), 2.0, 1.0, {7, 4}), msec(400));
  EXPECT_TRUE(tracker.mismatch_active());
  // 600 ms later and still mismatched: M = max(600, 400) = 600.
  t += msec(600);
  EXPECT_EQ(tracker.on_frame(t, msec(400), 2.0, 1.0, {7, 4}), msec(600));
  // Much later: M keeps growing from the same t0.
  t += msec(900);
  EXPECT_EQ(tracker.on_frame(t, msec(400), 2.0, 1.0, {7, 4}), msec(1500));
}

TEST(Mismatch, FrameDelayFloorsTheMetric) {
  MismatchTracker tracker(fast_reset());
  // Mismatch just began but the frame delay is large: M = dv.
  EXPECT_EQ(tracker.on_frame(sec(1), msec(800), 3.0, 1.0, {7, 4}),
            msec(800));
}

TEST(Mismatch, ConvergenceResetsT0) {
  MismatchTracker tracker(fast_reset());
  SimTime t = sec(1);
  tracker.on_frame(t, msec(400), 2.0, 1.0, {7, 4});
  t += msec(500);
  tracker.on_frame(t, msec(400), 1.0, 1.0, {7, 4});  // converged
  EXPECT_FALSE(tracker.mismatch_active());
  // New mismatch restarts from a fresh t0.
  t += msec(500);
  EXPECT_EQ(tracker.on_frame(t, msec(400), 2.0, 1.0, {8, 4}), msec(400));
}

TEST(Mismatch, ConvergenceHoldKeepsT0AcrossBriefTouches) {
  MismatchTracker::Config config;
  config.convergence_hold = msec(500);
  MismatchTracker tracker(config);
  SimTime t = sec(1);
  tracker.on_frame(t, msec(400), 2.0, 1.0, {7, 4});
  // Converges for only 100 ms...
  t += msec(300);
  tracker.on_frame(t, msec(400), 1.0, 1.0, {7, 4});
  t += msec(100);
  tracker.on_frame(t, msec(400), 1.0, 1.0, {7, 4});
  // ...then mismatches again: t0 must still be the original one.
  t += msec(100);
  const SimDuration m = tracker.on_frame(t, msec(400), 2.0, 1.0, {8, 4});
  EXPECT_EQ(m, msec(500));  // t - original t0
}

TEST(Mismatch, ToleranceTreatsNearMinAsConverged) {
  MismatchTracker::Config config = fast_reset();
  config.level_tolerance = 1.10;
  MismatchTracker tracker(config);
  const SimDuration m =
      tracker.on_frame(sec(1), msec(400), 1.08, 1.0, {6, 4});
  EXPECT_EQ(m, msec(400));
  EXPECT_FALSE(tracker.mismatch_active());
}

TEST(Mismatch, WindowAverage) {
  MismatchTracker::Config config = fast_reset();
  config.window = sec(1);
  MismatchTracker tracker(config);
  tracker.on_frame(msec(100), msec(300), 1.0, 1.0, {6, 4});
  tracker.on_frame(msec(200), msec(500), 1.0, 1.0, {6, 4});
  EXPECT_EQ(tracker.average(), msec(400));
  // Samples older than the window are evicted.
  tracker.on_frame(msec(1600), msec(700), 1.0, 1.0, {6, 4});
  EXPECT_EQ(tracker.average(), msec(700));
}

// The running sum against the sum of the window's samples in doubles, the
// way the average was computed before. Frames come at jittered intervals
// with gaps longer than the window (every sample evicted at once), and long
// mismatch spells drive M to hours, so window sums reach ~1e11 µs.
TEST(Mismatch, RunningAverageMatchesTheDoubleSumReference) {
  MismatchTracker::Config config;
  config.window = msec(500);
  MismatchTracker tracker(config);
  std::deque<std::pair<SimTime, SimDuration>> window;
  Rng rng(11);
  SimTime t = 0;
  for (int i = 0; i < 200'000; ++i) {
    t += rng.bernoulli(0.001) ? rng.uniform_int(msec(600), sec(400))
                              : rng.uniform_int(0, msec(60));
    const double level = rng.bernoulli(0.3) ? 1.0 : rng.uniform(1.0, 3.0);
    const SimDuration m = tracker.on_frame(
        t, rng.uniform_int(msec(20), sec(3)), level, 1.0,
        {static_cast<int>(rng.uniform_int(0, 11)), 4});
    window.emplace_back(t, m);
    while (window.front().first < t - config.window) window.pop_front();
    double sum = 0.0;
    for (const auto& [at, sample] : window) sum += static_cast<double>(sample);
    ASSERT_EQ(tracker.average(),
              static_cast<SimDuration>(sum /
                                       static_cast<double>(window.size())))
        << "frame " << i;
  }
}

TEST(Mismatch, EmptyAverageIsZero) {
  MismatchTracker tracker;
  EXPECT_EQ(tracker.average(), 0);
}

// Property: M is never below the frame delay.
class MismatchFloor
    : public ::testing::TestWithParam<std::pair<double, SimDuration>> {};

TEST_P(MismatchFloor, NeverBelowFrameDelay) {
  const auto [level, dv] = GetParam();
  MismatchTracker tracker(fast_reset());
  SimTime t = sec(1);
  for (int i = 0; i < 20; ++i) {
    const SimDuration m = tracker.on_frame(t, dv, level, 1.0, {7, 4});
    EXPECT_GE(m, dv);
    t += msec(28);
  }
}

INSTANTIATE_TEST_SUITE_P(
    LevelsAndDelays, MismatchFloor,
    ::testing::Values(std::pair{1.0, msec(200)}, std::pair{1.0, msec(800)},
                      std::pair{1.6, msec(200)}, std::pair{1.6, msec(800)},
                      std::pair{64.0, msec(450)}));

}  // namespace
}  // namespace poi360::core
