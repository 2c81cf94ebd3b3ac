#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <random>

#include "poi360/common/rng.h"
#include "poi360/common/stats.h"
#include "poi360/common/table.h"
#include "poi360/common/time.h"
#include "poi360/common/units.h"

namespace poi360 {
namespace {

TEST(Time, Conversions) {
  EXPECT_EQ(msec(1), 1000);
  EXPECT_EQ(sec(1), 1'000'000);
  EXPECT_EQ(sec_f(0.5), 500'000);
  EXPECT_DOUBLE_EQ(to_seconds(sec(3)), 3.0);
  EXPECT_DOUBLE_EQ(to_millis(msec(250)), 250.0);
  EXPECT_EQ(msec_f(1.5), 1500);
}

TEST(Units, RateByteConversions) {
  EXPECT_DOUBLE_EQ(mbps(3), 3e6);
  EXPECT_DOUBLE_EQ(to_mbps(kbps(2500)), 2.5);
  // 1 Mbps over 1 s = 125000 bytes.
  EXPECT_EQ(bytes_at_rate(mbps(1), sec(1)), 125000);
  EXPECT_DOUBLE_EQ(rate_of(125000, sec(1)), 1e6);
  EXPECT_EQ(transfer_time(125000, mbps(1)), sec(1));
}

TEST(Units, RoundTripSmallAmounts) {
  const SimDuration t = transfer_time(1200, mbps(3));
  EXPECT_NEAR(static_cast<double>(t), 3200.0, 1.0);  // 1200B @ 3Mbps = 3.2ms
}

TEST(Rng, DeterministicForSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0, 1), b.uniform(0, 1));
  }
}

TEST(Rng, ForkIndependentButDeterministic) {
  Rng a(7), b(7);
  Rng fa = a.fork(1), fb = b.fork(1);
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(fa.uniform(0, 1), fb.uniform(0, 1));
  }
  Rng c(7);
  Rng f1 = c.fork(1);
  Rng f2 = c.fork(2);
  bool differ = false;
  for (int i = 0; i < 10; ++i) {
    if (f1.uniform(0, 1) != f2.uniform(0, 1)) differ = true;
  }
  EXPECT_TRUE(differ);
}

TEST(Rng, UniformBounds) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.uniform(-2.0, 5.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, BernoulliEdgeCases) {
  Rng r(3);
  const Mt19937_64 before = r.engine();
  EXPECT_FALSE(r.bernoulli(0.0));
  EXPECT_TRUE(r.bernoulli(1.0));
  EXPECT_FALSE(r.bernoulli(-0.5));
  EXPECT_TRUE(r.bernoulli(1.5));
  EXPECT_EQ(r.engine(), before);  // the edges consume no draw
}

TEST(Rng, NormalMoments) {
  Rng r(11);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(r.normal(5.0, 2.0));
  EXPECT_NEAR(s.mean(), 5.0, 0.1);
  EXPECT_NEAR(s.stddev(), 2.0, 0.1);
}

TEST(Rng, ExponentialMean) {
  Rng r(13);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(r.exponential(3.0));
  EXPECT_NEAR(s.mean(), 3.0, 0.15);
  EXPECT_NEAR(s.variance(), 9.0, 0.9);
}

TEST(Rng, EngineIsTheStandardMt19937_64) {
  // The standard fixes mt19937_64's 10000th output for the default seed;
  // every stream below is a pure function of this engine.
  Rng r(std::mt19937_64::default_seed);
  r.engine().discard(9999);
  EXPECT_EQ(r.engine()(), 9981545732273789042ull);
}

// The owned engine is a reimplementation of the standard one: same draws for
// any seed, also after discard and through copies.
TEST(Rng, OwnedEngineMatchesStdMt19937_64) {
  EXPECT_EQ(Mt19937_64::default_seed, std::mt19937_64::default_seed);
  EXPECT_EQ(Mt19937_64::min(), std::mt19937_64::min());
  EXPECT_EQ(Mt19937_64::max(), std::mt19937_64::max());
  for (const std::uint64_t seed :
       {std::uint64_t{0}, std::uint64_t{1}, std::mt19937_64::default_seed,
        std::numeric_limits<std::uint64_t>::max()}) {
    Mt19937_64 owned(seed);
    std::mt19937_64 reference(seed);
    for (int i = 0; i < 1'000'000; ++i) {
      ASSERT_EQ(owned(), reference()) << "seed " << seed << " draw " << i;
    }
    // Discards inside a block, up to and across block boundaries.
    for (const unsigned long long z : {0ull, 1ull, 7ull, 311ull, 312ull,
                                       313ull, 1000ull, 100'003ull}) {
      owned.discard(z);
      reference.discard(z);
      ASSERT_EQ(owned(), reference()) << "seed " << seed << " discard " << z;
    }
    // A copy continues the same stream independently of its source.
    Mt19937_64 owned_copy = owned;
    std::mt19937_64 reference_copy = reference;
    EXPECT_EQ(owned_copy, owned);
    for (int i = 0; i < 1000; ++i) {
      ASSERT_EQ(owned(), reference());
    }
    EXPECT_NE(owned_copy, owned);
    for (int i = 0; i < 1000; ++i) {
      ASSERT_EQ(owned_copy(), reference_copy());
    }
    EXPECT_EQ(owned_copy, owned);
  }
}

// First draws of each distribution for seed 42. The algorithms are owned by
// Rng, so these hold on every standard library; uniform draws are exact,
// normal/exponential go through libm log and are compared to 4 ulps.
TEST(Rng, PortableGoldenDraws) {
  {
    Rng r(42);
    EXPECT_EQ(r.uniform(0.0, 1.0), 0x1.82a3befaddcbcp-1);
    EXPECT_EQ(r.uniform(0.0, 1.0), 0x1.472f1f73724ap-1);
    EXPECT_EQ(r.uniform(0.0, 1.0), 0x1.81192cfe1cbcfp-1);
  }
  {
    Rng r(42);
    EXPECT_EQ(r.uniform_int(1, 6), 1);
    EXPECT_EQ(r.uniform_int(1, 6), 3);
    EXPECT_EQ(r.uniform_int(1, 6), 5);
  }
  {
    Rng r(42);
    EXPECT_DOUBLE_EQ(r.normal(0.0, 1.0), 1.2938204232729367);
    EXPECT_DOUBLE_EQ(r.normal(0.0, 1.0), 0.70498826642085988);
    EXPECT_DOUBLE_EQ(r.normal(0.0, 1.0), 0.39797739618378869);
  }
  {
    Rng r(42);
    EXPECT_DOUBLE_EQ(r.exponential(1.0), 1.4071320984121438);
    EXPECT_DOUBLE_EQ(r.exponential(1.0), 1.0189642880172274);
    EXPECT_DOUBLE_EQ(r.exponential(1.0), 1.3949121911687365);
  }
  {
    Rng r(42);
    EXPECT_FALSE(r.bernoulli(0.7));
    EXPECT_TRUE(r.bernoulli(0.7));
    EXPECT_FALSE(r.bernoulli(0.7));
  }
}

TEST(Rng, UniformAndBernoulliMoments) {
  Rng r(5);
  RunningStats s;
  int hits = 0;
  for (int i = 0; i < 50000; ++i) {
    s.add(r.uniform(0.0, 1.0));
    if (r.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
  EXPECT_NEAR(s.variance(), 1.0 / 12.0, 0.003);
  EXPECT_NEAR(hits / 50000.0, 0.3, 0.01);
}

TEST(Rng, UniformIntCoversRangeUnbiased) {
  Rng r(17);
  int counts[6] = {};
  for (int i = 0; i < 60000; ++i) {
    const std::int64_t v = r.uniform_int(-2, 3);
    ASSERT_GE(v, -2);
    ASSERT_LE(v, 3);
    ++counts[v + 2];
  }
  for (int c : counts) EXPECT_NEAR(c, 10000, 400);
  EXPECT_EQ(r.uniform_int(4, 4), 4);
  // The full 64-bit span is one raw engine draw.
  Rng a(1), b(1);
  EXPECT_EQ(static_cast<std::uint64_t>(
                a.uniform_int(std::numeric_limits<std::int64_t>::min(),
                              std::numeric_limits<std::int64_t>::max())),
            b.engine()());
}

TEST(Rng, NormalKeepsItsSpareDeviate) {
  Rng r(9);
  r.normal(0.0, 1.0);
  const Mt19937_64 before = r.engine();
  r.normal(0.0, 1.0);  // the spare: no engine draw
  EXPECT_EQ(r.engine(), before);
  r.normal(0.0, 1.0);  // a fresh pair
  EXPECT_NE(r.engine(), before);

  // The spare is a standard deviate, scaled by the call that returns it.
  Rng x(9), y(9);
  x.normal(0.0, 1.0);
  y.normal(0.0, 1.0);
  EXPECT_DOUBLE_EQ(3.0 + 2.0 * x.normal(0.0, 1.0), y.normal(3.0, 2.0));
}

TEST(Rng, ForkIsUnaffectedByAPendingSpare) {
  Rng with_spare(9);
  with_spare.normal(0.0, 1.0);
  Rng reference(9);
  reference.normal(0.0, 1.0);
  const double spare = reference.normal(0.0, 1.0);
  Rng no_spare(0);
  no_spare.engine() = with_spare.engine();

  Rng fa = with_spare.fork(3);
  Rng fb = no_spare.fork(3);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(fa.normal(0.0, 1.0), fb.normal(0.0, 1.0));
  }
  // The parent still hands out its spare after forking.
  EXPECT_EQ(with_spare.normal(0.0, 1.0), spare);
}

TEST(RunningStats, Moments) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_EQ(s.count(), 8u);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(Ewma, ConvergesToConstant) {
  Ewma e(0.2);
  EXPECT_FALSE(e.initialized());
  for (int i = 0; i < 200; ++i) e.add(10.0);
  EXPECT_NEAR(e.value(), 10.0, 1e-9);
}

TEST(Ewma, FirstSampleInitializes) {
  Ewma e(0.01);
  e.add(42.0);
  EXPECT_DOUBLE_EQ(e.value(), 42.0);
}

TEST(SampleSet, PercentilesAndCdf) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(0.9), 90.1, 1e-9);
  EXPECT_DOUBLE_EQ(s.cdf_at(0.0), 0.0);
  EXPECT_DOUBLE_EQ(s.cdf_at(50.0), 0.5);
  EXPECT_DOUBLE_EQ(s.cdf_at(1000.0), 1.0);
  EXPECT_DOUBLE_EQ(s.fraction_above(90.0), 0.1);
}

TEST(SampleSet, CdfPointsSpanRange) {
  SampleSet s;
  s.add(0.0);
  s.add(10.0);
  const auto pts = s.cdf_points(10);
  ASSERT_EQ(pts.size(), 11u);
  EXPECT_DOUBLE_EQ(pts.front().first, 0.0);
  EXPECT_DOUBLE_EQ(pts.back().first, 10.0);
  EXPECT_DOUBLE_EQ(pts.back().second, 1.0);
}

TEST(SampleSet, MixedAddAndQueryKeepsSorted) {
  SampleSet s;
  s.add(5.0);
  EXPECT_DOUBLE_EQ(s.median(), 5.0);
  s.add(1.0);  // added after a sorted query
  s.add(9.0);
  EXPECT_DOUBLE_EQ(s.median(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
}

TEST(SlidingWindowStats, EvictsOldSamples) {
  SlidingWindowStats w(sec(2));
  w.add(sec(0), 100.0);
  w.add(sec(1), 100.0);
  EXPECT_DOUBLE_EQ(w.stddev(), 0.0);
  w.add(sec(3), 50.0);  // evicts the t=0 sample
  EXPECT_EQ(w.count(), 2u);
  EXPECT_DOUBLE_EQ(w.mean(), 75.0);
  w.add(sec(10), 50.0);
  EXPECT_EQ(w.count(), 1u);
  EXPECT_DOUBLE_EQ(w.stddev(), 0.0);
}

TEST(Table, RendersAlignedAndCsv) {
  Table t({"a", "long_header"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("long_header"), std::string::npos);
  EXPECT_NE(s.find("333"), std::string::npos);
  EXPECT_EQ(t.to_csv(), "a,long_header\n1,2\n333,4\n");
}

TEST(Table, FmtHelpers) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_pct(0.047, 1), "4.7%");
}

}  // namespace
}  // namespace poi360
