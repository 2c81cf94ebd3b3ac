// SharedCell's on/off background process as the private contention model of
// one channel or admission controller: a cell with no registered UE read
// through `prospective_share`, plus the draw-identity contract that pins the
// process to its original per-user toggle loop.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "poi360/common/stats.h"
#include "poi360/lte/channel.h"
#include "poi360/lte/shared_cell.h"

namespace poi360::lte {
namespace {

/// The original single-foreground on/off cell, verbatim: every background
/// user advanced lazily to the query time in index order. SharedCell must
/// draw exactly this stream, which is what keeps the explicit-users channel,
/// the admission controller and every one-UE cell byte-identical.
class ReferenceOnOffCell {
 public:
  ReferenceOnOffCell(const SharedCell::Background& config, std::uint64_t seed)
      : config_(config), rng_(seed) {
    users_.resize(static_cast<std::size_t>(std::max(0, config.background_users)));
    const double duty =
        to_seconds(config_.mean_on) /
        (to_seconds(config_.mean_on) + to_seconds(config_.mean_off));
    for (User& user : users_) {
      user.active = rng_.bernoulli(duty);
      const SimDuration mean = user.active ? config_.mean_on : config_.mean_off;
      user.toggle_at = sec_f(rng_.exponential(to_seconds(mean)));
    }
  }

  double foreground_share(SimTime now) {
    int active = 0;
    for (User& user : users_) {
      while (user.toggle_at <= now) {
        user.active = !user.active;
        const SimDuration mean =
            user.active ? config_.mean_on : config_.mean_off;
        user.toggle_at += std::max<SimDuration>(
            msec(10), sec_f(rng_.exponential(to_seconds(mean))));
      }
      if (user.active) ++active;
    }
    return 1.0 / (1.0 + config_.background_weight * static_cast<double>(active));
  }

 private:
  struct User {
    bool active = false;
    SimTime toggle_at = 0;
  };
  SharedCell::Background config_;
  Rng rng_;
  std::vector<User> users_;
};

SharedCell background_only(int users, std::uint64_t seed) {
  SharedCell::Config config;
  config.background.background_users = users;
  return SharedCell(config, seed);
}

// Both ways a cell is read — the share of one registered unit-weight UE and
// the prospective share of an empty cell trimmed after every query — see,
// draw for draw and bit for bit, the reference cell's foreground share.
TEST(SharedCell, DegenerateShareMatchesReferenceOnOffDraws) {
  const std::uint64_t seed = 77;
  const SharedCell::Background bg;
  ReferenceOnOffCell reference(bg, seed);
  SharedCell registered(SharedCell::Config{bg}, seed);
  const int ue = registered.register_ue(1.0);
  registered.report_demand(ue, 1);
  registered.commit_demand();
  SharedCell empty(SharedCell::Config{bg}, seed);
  for (SimTime t = 0; t <= sec(5); t += msec(1)) {
    const double expected = reference.foreground_share(t);
    ASSERT_EQ(expected, registered.share(ue, t)) << "diverged at t=" << t;
    ASSERT_EQ(expected, empty.prospective_share(t)) << "diverged at t=" << t;
    empty.trim(t);
  }
}

TEST(SharedCell, NoCompetitorsMeansFullShare) {
  SharedCell cell = background_only(0, 1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_DOUBLE_EQ(cell.prospective_share(msec(i)), 1.0);
  }
}

TEST(SharedCell, ShareBoundedByUserCount) {
  SharedCell cell = background_only(5, 2);
  for (int i = 0; i < 60'000; ++i) {
    const double share = cell.prospective_share(msec(i));
    EXPECT_GT(share, 1.0 / 6.0 - 1e-12);
    EXPECT_LE(share, 1.0);
  }
}

TEST(SharedCell, DeterministicForSeed) {
  SharedCell a = background_only(4, 7), b = background_only(4, 7);
  for (int i = 0; i < 30'000; ++i) {
    EXPECT_DOUBLE_EQ(a.prospective_share(msec(i)),
                     b.prospective_share(msec(i)));
  }
}

TEST(SharedCell, DutyCycleMatchesOnOffRatio) {
  SharedCell::Config config;
  config.background.background_users = 1;
  config.background.mean_on = sec(1);
  config.background.mean_off = sec(3);
  SharedCell cell(config, 11);
  int active_samples = 0;
  constexpr int kSamples = 600'000;
  for (int i = 0; i < kSamples; ++i) {
    cell.prospective_share(msec(i));
    if (cell.active_background() == 1) ++active_samples;
  }
  EXPECT_NEAR(static_cast<double>(active_samples) / kSamples, 0.25, 0.06);
}

TEST(SharedCell, MoreUsersMeanSmallerAverageShare) {
  auto mean_share = [](int users) {
    SharedCell cell = background_only(users, 5);
    RunningStats s;
    for (int i = 0; i < 120'000; ++i) {
      s.add(cell.prospective_share(msec(i)));
    }
    return s.mean();
  };
  EXPECT_GT(mean_share(1), mean_share(4));
  EXPECT_GT(mean_share(4), mean_share(16));
}

TEST(SharedCell, BackgroundWeightScalesImpact) {
  auto mean_share = [](double weight) {
    SharedCell::Config config;
    config.background.background_users = 6;
    config.background.background_weight = weight;
    SharedCell cell(config, 5);
    RunningStats s;
    for (int i = 0; i < 60'000; ++i) {
      s.add(cell.prospective_share(msec(i)));
    }
    return s.mean();
  };
  EXPECT_GT(mean_share(0.5), mean_share(2.0));
}

TEST(Channel, ExplicitUsersReplaceLoadProcess) {
  ChannelConfig config;
  config.explicit_users = 4;
  config.fading_std = 0.0;
  config.outage_per_min = 0.0;
  UplinkChannel ch(config, 9);
  ASSERT_TRUE(ch.background_cell().has_value());
  EXPECT_EQ(ch.background_cell()->registered_ues(), 0);
  // Capacity must track base * share exactly (no fading, no outage).
  const Bitrate base = capacity_for_rss(config.rss_dbm);
  for (int i = 1; i <= 30'000; ++i) {
    const Bitrate cap = ch.advance(msec(i));
    EXPECT_LE(cap, base + 1.0);
    EXPECT_GE(cap, base / 5.0 - 1.0);
  }
}

TEST(Channel, AbstractModelHasNoCell) {
  ChannelConfig config;  // explicit_users = -1
  UplinkChannel ch(config, 9);
  EXPECT_FALSE(ch.background_cell().has_value());
}

}  // namespace
}  // namespace poi360::lte
