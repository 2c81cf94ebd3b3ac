#include <gtest/gtest.h>

#include <memory>

#include "poi360/lte/channel.h"
#include "poi360/lte/trace.h"

namespace poi360::lte {
namespace {

TEST(CapacityTrace, StepInterpolation) {
  CapacityTrace trace;
  trace.add(0, mbps(1));
  trace.add(msec(10), mbps(2));
  trace.add(msec(20), mbps(3));
  EXPECT_DOUBLE_EQ(trace.at(0), mbps(1));
  EXPECT_DOUBLE_EQ(trace.at(msec(5)), mbps(1));
  EXPECT_DOUBLE_EQ(trace.at(msec(10)), mbps(2));
  EXPECT_DOUBLE_EQ(trace.at(msec(19)), mbps(2));
  EXPECT_DOUBLE_EQ(trace.at(msec(25)), mbps(3));
}

TEST(CapacityTrace, ReplayWraps) {
  CapacityTrace trace;
  trace.add(0, mbps(1));
  trace.add(msec(10), mbps(2));
  // Duration = 20 ms (last time + step); t = 25 ms wraps to 5 ms.
  EXPECT_EQ(trace.duration(), msec(20));
  EXPECT_DOUBLE_EQ(trace.at(msec(25)), mbps(1));
  EXPECT_DOUBLE_EQ(trace.at(msec(35)), mbps(2));
}

TEST(CapacityTrace, ValidatesInput) {
  CapacityTrace trace;
  EXPECT_THROW(trace.add(msec(5), mbps(1)), std::invalid_argument);  // !=0
  trace.add(0, mbps(1));
  EXPECT_THROW(trace.add(0, mbps(1)), std::invalid_argument);  // not increasing
  EXPECT_THROW(trace.add(msec(1), -1.0), std::invalid_argument);
  CapacityTrace empty;
  EXPECT_THROW(empty.at(0), std::logic_error);
}

TEST(CapacityTrace, FromCsvRejectsGarbage) {
  EXPECT_THROW(CapacityTrace::from_csv("time_us,capacity_bps\nnonsense"),
               std::invalid_argument);
}

TEST(CapacityTrace, FromCsvRejectsTrailingJunkInField) {
  // std::from_chars must consume the whole field, not a numeric prefix.
  EXPECT_THROW(CapacityTrace::from_csv("0,1000\n12abc,2000"),
               std::invalid_argument);
  EXPECT_THROW(CapacityTrace::from_csv("0,1000bps"), std::invalid_argument);
}

TEST(CapacityTrace, FromCsvRejectsWrongFieldCount) {
  EXPECT_THROW(CapacityTrace::from_csv("0 1000"),  // missing comma
               std::invalid_argument);
  EXPECT_THROW(CapacityTrace::from_csv("0,1000,extra"),  // three fields
               std::invalid_argument);
  EXPECT_THROW(CapacityTrace::from_csv("0,"),  // empty capacity field
               std::invalid_argument);
}

TEST(CapacityTrace, FromCsvErrorNamesTheOffendingRow) {
  // Non-monotonic time on the third data row; the message must say so.
  try {
    CapacityTrace::from_csv("time_us,capacity_bps\n0,1000\n50,2000\n50,3000");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("row 4"), std::string::npos)
        << "message was: " << e.what();
  }
}

TEST(CapacityTrace, FromCsvRejectsNegativeAndNonFiniteCapacity) {
  EXPECT_THROW(CapacityTrace::from_csv("0,-5"), std::invalid_argument);
  EXPECT_THROW(CapacityTrace::from_csv("0,inf"), std::invalid_argument);
  EXPECT_THROW(CapacityTrace::from_csv("0,nan"), std::invalid_argument);
}

TEST(CapacityTrace, FromCsvAcceptsBlankLinesAndCrlf) {
  const CapacityTrace trace = CapacityTrace::from_csv(
      "time_us,capacity_bps\r\n\n0, 1000\r\n  1000 , 2000 \n\n");
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_DOUBLE_EQ(trace.at(0), 1000.0);
  EXPECT_DOUBLE_EQ(trace.at(msec(1)), 2000.0);
}

TEST(CapacityTrace, FromCsvRejectsEmptyInput) {
  EXPECT_THROW(CapacityTrace::from_csv(""), std::invalid_argument);
  EXPECT_THROW(CapacityTrace::from_csv("time_us,capacity_bps\n"),
               std::invalid_argument);
}

TEST(CapacityTrace, ReplayedChannelIsExactlyReproducible) {
  ChannelConfig source_config;
  UplinkChannel source(source_config, 77);
  auto trace = std::make_shared<CapacityTrace>();
  for (SimTime t = 0; t < sec(1); t += msec(1)) {
    trace->add(t, source.advance(t));
  }

  ChannelConfig replay_config;
  replay_config.capacity_trace = trace;
  // Different seeds — irrelevant under replay.
  UplinkChannel a(replay_config, 1), b(replay_config, 2);
  for (int i = 0; i < 3000; ++i) {
    const Bitrate ca = a.advance(msec(i));
    EXPECT_DOUBLE_EQ(ca, b.advance(msec(i)));
    EXPECT_DOUBLE_EQ(ca, trace->at(msec(i)));
  }
}

TEST(CapacityTrace, HandCraftedStepScenario) {
  // A classic controlled experiment: 4 Mbps, a hard drop to 1 Mbps for two
  // seconds, then recovery.
  auto trace = std::make_shared<CapacityTrace>();
  trace->add(0, mbps(4));
  trace->add(sec(4), mbps(1));
  trace->add(sec(6), mbps(4));
  trace->add(sec(10) - msec(1), mbps(4));

  ChannelConfig config;
  config.capacity_trace = trace;
  UplinkChannel channel(config, 9);
  EXPECT_DOUBLE_EQ(channel.advance(sec(1)), mbps(4));
  EXPECT_DOUBLE_EQ(channel.advance(sec(5)), mbps(1));
  EXPECT_DOUBLE_EQ(channel.advance(sec(7)), mbps(4));
}

}  // namespace
}  // namespace poi360::lte
