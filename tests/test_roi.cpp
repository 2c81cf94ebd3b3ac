#include <gtest/gtest.h>

#include <cmath>
#include <type_traits>

#include "poi360/roi/head_motion.h"
#include "poi360/roi/orientation.h"

namespace poi360::roi {
namespace {

TEST(Orientation, WrapYaw) {
  EXPECT_DOUBLE_EQ(wrap_yaw(0.0), 0.0);
  EXPECT_DOUBLE_EQ(wrap_yaw(180.0), -180.0);
  EXPECT_DOUBLE_EQ(wrap_yaw(-180.0), -180.0);
  EXPECT_DOUBLE_EQ(wrap_yaw(190.0), -170.0);
  EXPECT_DOUBLE_EQ(wrap_yaw(-190.0), 170.0);
  EXPECT_DOUBLE_EQ(wrap_yaw(540.0), -180.0);
  EXPECT_DOUBLE_EQ(wrap_yaw(359.0), -1.0);
}

TEST(Orientation, YawDiffShortestPath) {
  EXPECT_DOUBLE_EQ(yaw_diff(10.0, 350.0), 20.0);
  EXPECT_DOUBLE_EQ(yaw_diff(350.0, 10.0), -20.0);
  EXPECT_DOUBLE_EQ(yaw_diff(0.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(yaw_diff(180.0, 0.0), 180.0);
  EXPECT_DOUBLE_EQ(yaw_diff(-90.0, 90.0), 180.0);  // (-180, 180] convention
}

TEST(Orientation, AngularDistanceChebyshev) {
  EXPECT_DOUBLE_EQ(
      angular_distance({0.0, 0.0}, {30.0, 10.0}), 30.0);
  EXPECT_DOUBLE_EQ(
      angular_distance({0.0, 0.0}, {5.0, 40.0}), 40.0);
  EXPECT_DOUBLE_EQ(
      angular_distance({170.0, 0.0}, {-170.0, 0.0}), 20.0);  // wraps
}

// The session holds its one viewer model by value, with no virtual call.
static_assert(!std::is_polymorphic_v<StochasticHeadMotion>);

TEST(StochasticHeadMotion, DeterministicForSeed) {
  StochasticHeadMotion a({}, 99);
  StochasticHeadMotion b({}, 99);
  for (int i = 0; i < 300; ++i) {
    const SimTime t = msec(100) * i;
    EXPECT_DOUBLE_EQ(a.orientation_at(t).yaw_deg,
                     b.orientation_at(t).yaw_deg);
    EXPECT_DOUBLE_EQ(a.orientation_at(t).pitch_deg,
                     b.orientation_at(t).pitch_deg);
  }
}

TEST(StochasticHeadMotion, QueryOrderIndependent) {
  StochasticHeadMotion forward({}, 7);
  StochasticHeadMotion backward({}, 7);
  std::vector<double> fwd, bwd;
  for (int i = 0; i <= 100; ++i) {
    fwd.push_back(forward.orientation_at(msec(250) * i).yaw_deg);
  }
  for (int i = 100; i >= 0; --i) {
    bwd.push_back(backward.orientation_at(msec(250) * i).yaw_deg);
  }
  for (int i = 0; i <= 100; ++i) {
    EXPECT_DOUBLE_EQ(fwd[static_cast<std::size_t>(i)],
                     bwd[static_cast<std::size_t>(100 - i)]);
  }
}

TEST(StochasticHeadMotion, StaysWithinValidRanges) {
  StochasticHeadMotion motion({}, 3);
  for (int i = 0; i < 3000; ++i) {
    const Orientation o = motion.orientation_at(msec(100) * i);
    EXPECT_GE(o.yaw_deg, -180.0);
    EXPECT_LT(o.yaw_deg, 180.0 + 1e-9);
    EXPECT_LE(std::fabs(o.pitch_deg), 90.0);
  }
}

TEST(StochasticHeadMotion, NegativeTimeClampsToStart) {
  StochasticHeadMotion motion({}, 3);
  const Orientation at0 = motion.orientation_at(0);
  const Orientation before = motion.orientation_at(-sec(5));
  EXPECT_DOUBLE_EQ(at0.yaw_deg, before.yaw_deg);
}

// Property: velocity between close samples never exceeds the configured
// peak velocity (with tolerance for the wrap and numerical slack).
class MotionVelocity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MotionVelocity, BoundedByPeakVelocity) {
  HeadMotionParams params;
  StochasticHeadMotion motion(params, GetParam());
  const SimDuration dt = msec(10);
  Orientation prev = motion.orientation_at(0);
  for (int i = 1; i < 6000; ++i) {
    const Orientation cur = motion.orientation_at(dt * i);
    const double deg = angular_distance(prev, cur);
    const double velocity = deg / to_seconds(dt);
    EXPECT_LE(velocity, params.peak_velocity_deg_s * 1.05)
        << "at t=" << to_seconds(dt * i) << "s";
    prev = cur;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MotionVelocity,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21));

// Property: the viewer actually moves — over a minute the yaw should cover
// a substantial range for any seed.
class MotionCoverage : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MotionCoverage, ExploresTheSphere) {
  StochasticHeadMotion motion({}, GetParam());
  double min_yaw = 1e9, max_yaw = -1e9;
  bool moved = false;
  Orientation prev = motion.orientation_at(0);
  for (int i = 0; i < 600; ++i) {
    const Orientation o = motion.orientation_at(msec(100) * i);
    min_yaw = std::min(min_yaw, o.yaw_deg);
    max_yaw = std::max(max_yaw, o.yaw_deg);
    if (angular_distance(prev, o) > 5.0) moved = true;
    prev = o;
  }
  EXPECT_TRUE(moved);
  EXPECT_GT(max_yaw - min_yaw, 30.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MotionCoverage,
                         ::testing::Values(11, 22, 33, 44, 55));

}  // namespace
}  // namespace poi360::roi
