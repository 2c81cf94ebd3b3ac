// Observability suite: the TraceRecorder (ordering, drop-oldest overflow
// at the bound, argument clamping), the metrics registry, the
// Chrome-trace/CSV exporters (golden strings + file round-trip through
// obs::write_trace), the MetricsHttpServer scrapes, and the session/runner
// integration (frame-lifecycle chain, FBCC J events, per-run trace paths
// written by two BatchRunner workers). The tsan_gate runs this binary under
// -fsanitize=thread for the server's accept thread and the runner's
// workers.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "poi360/core/config.h"
#include "poi360/core/session.h"
#include "poi360/obs/metrics_http.h"
#include "poi360/obs/metrics_registry.h"
#include "poi360/obs/sampling.h"
#include "poi360/obs/slo.h"
#include "poi360/obs/trace.h"
#include "poi360/obs/trace_export.h"
#include "poi360/runner/batch_runner.h"
#include "poi360/runner/experiment_spec.h"

using namespace poi360;

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// gtest's TempDir() is shared (/tmp); the sanitizer gates run this binary
// concurrently with the outer suite, so every scratch path must be
// per-process unique or the two runs race on the same files.
std::string scratch_path(const std::string& leaf) {
  static const std::string dir = [] {
    std::string d = testing::TempDir() + "obs_scratch_" +
                    std::to_string(::getpid());
    std::filesystem::create_directories(d);
    return d + "/";
  }();
  return dir + leaf;
}

}  // namespace

// ------------------------------------------------------------ recorder --

TEST(TraceRecorder, SpanNestingAndOrdering) {
  obs::TraceRecorder rec;
  rec.span_begin(100, "frame", "encode", 1, {{"bytes", 5000.0}});
  rec.span_begin(110, "frame", "pace", 1, {{"fragments", 4.0}});
  rec.instant(115, "control", "fbcc.J", {{"J", 1.0}});
  rec.span_end(130, "frame", "pace", 1);
  rec.span_end(140, "frame", "encode", 1);

  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 5u);
  // Admission order is preserved, seq strictly increasing.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, i);
    if (i > 0) {
      EXPECT_GE(events[i].time, events[i - 1].time);
    }
  }
  EXPECT_EQ(events[0].phase, obs::Phase::kSpanBegin);
  EXPECT_STREQ(events[0].name, "encode");
  EXPECT_EQ(events[0].id, 1);
  ASSERT_EQ(events[0].n_args, 1);
  EXPECT_STREQ(events[0].args[0].key, "bytes");
  EXPECT_EQ(events[0].args[0].value, 5000.0);
  EXPECT_EQ(events[2].phase, obs::Phase::kInstant);
  EXPECT_EQ(events[2].id, -1);
  // The inner span closes before the outer one (nesting preserved).
  EXPECT_EQ(events[3].phase, obs::Phase::kSpanEnd);
  EXPECT_STREQ(events[3].name, "pace");
  EXPECT_EQ(events[4].phase, obs::Phase::kSpanEnd);
  EXPECT_STREQ(events[4].name, "encode");
}

// Past its bound the recorder drops the oldest events: it keeps the last
// `capacity` in order and counts the rest. Capacity 5 leaves spare FIFO
// slots past the bound; capacity 0 is clamped to 1.
TEST(TraceRecorder, OverflowDropsOldest) {
  constexpr int kEvents = 20;
  for (const std::size_t capacity : {0u, 1u, 5u, 8u}) {
    SCOPED_TRACE(capacity);
    const std::size_t kept = std::max<std::size_t>(capacity, 1);
    obs::TraceRecorder rec(capacity);
    for (int i = 0; i < kEvents; ++i) {
      rec.instant(i, "cat", "tick", {{"i", static_cast<double>(i)}});
    }
    EXPECT_EQ(rec.recorded(), static_cast<std::uint64_t>(kEvents));
    EXPECT_EQ(rec.dropped(), kEvents - kept);
    const auto events = rec.snapshot();
    ASSERT_EQ(events.size(), kept);
    // Oldest retained first: sequences kEvents - kept .. kEvents - 1.
    for (std::size_t i = 0; i < events.size(); ++i) {
      const std::size_t seq = kEvents - kept + i;
      EXPECT_EQ(events[i].seq, seq);
      EXPECT_EQ(events[i].time, static_cast<SimTime>(seq));
      ASSERT_EQ(events[i].n_args, 1);
      EXPECT_STREQ(events[i].args[0].key, "i");
      EXPECT_EQ(events[i].args[0].value, static_cast<double>(seq));
    }
  }
}

TEST(TraceRecorder, ArgsClampToMax) {
  obs::TraceRecorder rec;
  rec.instant(1, "cat", "x",
              {{"a", 1.0}, {"b", 2.0}, {"c", 3.0}, {"d", 4.0}, {"e", 5.0}});
  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].n_args, obs::TraceEvent::kMaxArgs);
  EXPECT_STREQ(events[0].args[3].key, "d");
}

// ------------------------------------------------------------ registry --

TEST(MetricsRegistry, CountersGaugesHistograms) {
  obs::MetricsRegistry reg;
  reg.counter("frames").inc();
  reg.counter("frames").inc(4);
  reg.gauge("rate_bps").set(3.5e6);
  reg.histogram("delay_ms").observe(10.0);
  reg.histogram("delay_ms").observe(30.0);

  EXPECT_EQ(reg.counter_value("frames"), 5);
  EXPECT_EQ(reg.gauge_value("rate_bps"), 3.5e6);
  const obs::Histogram* h = reg.find_histogram("delay_ms");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 2);
  EXPECT_EQ(h->min(), 10.0);
  EXPECT_EQ(h->max(), 30.0);
  EXPECT_EQ(h->mean(), 20.0);

  EXPECT_EQ(reg.find_counter("absent"), nullptr);
  EXPECT_EQ(reg.counter_value("absent"), 0);
  EXPECT_EQ(reg.gauge_value("absent"), 0.0);
}

TEST(MetricsRegistry, SnapshotSortedAndExpanded) {
  obs::MetricsRegistry reg;
  reg.counter("z.last").inc();
  reg.gauge("a.first").set(1.0);
  reg.histogram("m.mid").observe(2.0);
  const auto entries = reg.snapshot();
  ASSERT_EQ(entries.size(), 6u);  // 1 counter + 1 gauge + 4 histogram rows
  for (std::size_t i = 1; i < entries.size(); ++i) {
    EXPECT_LT(entries[i - 1].name, entries[i].name);
  }
  EXPECT_EQ(entries.front().name, "a.first");
  EXPECT_EQ(entries.back().name, "z.last");
}

// Registries fold only by idempotent publish (overwrite_from): there is no
// additive merge.
template <typename R>
concept HasMergeFrom = requires(R& a, const R& b) { a.merge_from(b); };
static_assert(!HasMergeFrom<obs::MetricsRegistry>);

// ----------------------------------------------------------- exporters --

namespace {

// Shared fixture events for the golden-string tests: one span pair, one
// instant, recorded through a real recorder so seq values are genuine.
std::vector<obs::TraceEvent> golden_events() {
  obs::TraceRecorder rec;
  rec.span_begin(1000, "frame", "pace", 7, {{"fragments", 3.0}});
  rec.instant(1500, "control", "fbcc.J", {{"J", 1.0}, {"B_bytes", 12000.5}});
  rec.span_end(2000, "frame", "pace", 7);
  return rec.snapshot();
}

}  // namespace

TEST(TraceExport, ChromeTraceGolden) {
  const std::string expected =
      "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_events\":2},"
      "\"traceEvents\":[\n"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
      "\"args\":{\"name\":\"test\"}},\n"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\","
      "\"args\":{\"name\":\"frame\"}},\n"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":2,\"name\":\"thread_name\","
      "\"args\":{\"name\":\"control\"}},\n"
      "{\"ph\":\"b\",\"pid\":1,\"tid\":1,\"ts\":1000,\"id\":\"7\","
      "\"cat\":\"frame\",\"name\":\"pace\",\"args\":{\"fragments\":3}},\n"
      "{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":2,\"ts\":1500,"
      "\"cat\":\"control\",\"name\":\"fbcc.J\","
      "\"args\":{\"J\":1,\"B_bytes\":12000.5}},\n"
      "{\"ph\":\"e\",\"pid\":1,\"tid\":1,\"ts\":2000,\"id\":\"7\","
      "\"cat\":\"frame\",\"name\":\"pace\",\"args\":{}}\n"
      "]}\n";
  EXPECT_EQ(obs::to_chrome_trace(golden_events(), "test", 2), expected);
}

TEST(TraceExport, CsvGolden) {
  const std::string expected =
      "seq,time_us,phase,category,name,id,args\n"
      "0,1000,B,frame,pace,7,fragments=3\n"
      "1,1500,I,control,fbcc.J,-1,J=1;B_bytes=12000.5\n"
      "2,2000,E,frame,pace,7,\n";
  EXPECT_EQ(obs::to_trace_csv(golden_events()), expected);
}

// obs::write_trace dispatches on the extension: ".csv" writes the event
// CSV, anything else the Chrome trace JSON with the recorder's drop count.
TEST(TraceExport, FileRoundTrip) {
  obs::TraceRecorder rec(2);
  rec.instant(5, "control", "dropped");
  rec.span_begin(10, "frame", "encode", 1, {{"bytes", 1234.0}});
  rec.span_end(20, "frame", "encode", 1);

  const std::string json_path = scratch_path("obs_roundtrip.json");
  const std::string csv_path = scratch_path("obs_roundtrip.csv");
  obs::write_trace(json_path, rec, "roundtrip");
  obs::write_trace(csv_path, rec, "roundtrip");

  EXPECT_EQ(read_file(json_path),
            obs::to_chrome_trace(rec.snapshot(), "roundtrip", 1));
  EXPECT_EQ(read_file(csv_path), obs::to_trace_csv(rec.snapshot()));
  EXPECT_NE(read_file(json_path).find("\"dropped_events\":1"),
            std::string::npos);
  EXPECT_EQ(read_file(csv_path).rfind("seq,time_us,", 0), 0u);
}

// ------------------------------------------------- session integration --

namespace {

// Stage key for the frame-lifecycle chain assertions below.
std::string stage_key(const obs::TraceEvent& e) {
  const char* phase = e.phase == obs::Phase::kSpanBegin ? "B"
                      : e.phase == obs::Phase::kSpanEnd ? "E"
                                                        : "I";
  return std::string(e.name) + ":" + phase;
}

}  // namespace

TEST(SessionTrace, FrameLifecycleChainAndFbccDecisions) {
  core::SessionConfig config = core::presets::cellular_static();
  config.compression = core::CompressionScheme::kPoi360;
  config.rate_control = core::RateControl::kFbcc;
  config.duration = sec(12);
  // Overdrive the start rate well past the ~5.5 Mbps grant saturation so
  // the firmware buffer inflates and the congestion detector flips J=1.
  config.initial_rate = mbps(12);
  config.seed = 3;
  config.trace.enabled = true;

  core::Session session(config);
  session.run();
  ASSERT_NE(session.trace(), nullptr);
  const auto events = session.trace()->snapshot();
  ASSERT_FALSE(events.empty());

  // At least one frame id must carry the complete lifecycle chain:
  // capture -> encode -> pace -> phy -> assemble -> display.
  const std::set<std::string> chain = {
      "capture:I", "encode:B", "encode:E", "pace:B",     "pace:E",
      "phy:B",     "phy:E",    "assemble:B", "assemble:E", "display:I"};
  std::map<std::int64_t, std::set<std::string>> stages;
  for (const obs::TraceEvent& e : events) {
    if (std::string_view(e.category) == "frame" && e.id >= 0) {
      stages[e.id].insert(stage_key(e));
    }
  }
  bool complete_chain = false;
  for (const auto& [id, got] : stages) {
    bool all = true;
    for (const std::string& want : chain) {
      if (!got.count(want)) {
        all = false;
        break;
      }
    }
    if (all) {
      complete_chain = true;
      break;
    }
  }
  EXPECT_TRUE(complete_chain)
      << "no frame id carries the full capture..display span chain";

  // The control track must record at least one congestion onset with the
  // decision inputs the paper's Eq. 3-5 consume.
  bool j_one_with_inputs = false;
  for (const obs::TraceEvent& e : events) {
    if (std::string_view(e.name) != "fbcc.J") continue;
    std::map<std::string, double> args;
    for (int i = 0; i < e.n_args; ++i) args[e.args[i].key] = e.args[i].value;
    if (args.count("J") && args["J"] == 1.0 && args.count("B_bytes") &&
        args.count("gamma_bytes") && args.count("rphy_bps")) {
      j_one_with_inputs = true;
      break;
    }
  }
  EXPECT_TRUE(j_one_with_inputs)
      << "no J=1 fbcc.J event with B/gamma/R_phy inputs recorded";
}

TEST(SessionTrace, DisabledByDefault) {
  core::SessionConfig config = core::presets::wireline();
  config.duration = sec(1);
  core::Session session(config);
  session.run();
  EXPECT_EQ(session.trace(), nullptr);
}

// --------------------------------------------------------------- runner --

TEST(RunnerTrace, FileNamesAreSanitizedAndUnique) {
  runner::RunSpec a;
  a.run_id = 0;
  a.experiment = "fig16 fbcc/gcc";
  a.params = {{"rc", "FBCC"}, {"net", "cellular: static"}};
  a.repeat = 0;
  a.seed = 1000;
  runner::RunSpec b = a;
  b.run_id = 1;
  b.repeat = 1;
  b.seed = 8919;

  const std::string na = runner::trace_file_name(a);
  const std::string nb = runner::trace_file_name(b);
  EXPECT_NE(na, nb);
  EXPECT_EQ(na.find('/'), std::string::npos);
  EXPECT_EQ(na.find(':'), std::string::npos);
  EXPECT_EQ(na.find(' '), std::string::npos);
  EXPECT_NE(na.find("rc-FBCC"), std::string::npos);
  EXPECT_NE(na.find("s1000"), std::string::npos);
  EXPECT_TRUE(na.size() > 11 &&
              na.substr(na.size() - 11) == ".trace.json");
}

TEST(RunnerTrace, MungedLabelsCannotCollideOrEscape) {
  runner::RunSpec base;
  base.run_id = 0;
  base.experiment = "exp";
  base.repeat = 0;
  base.seed = 1;

  // Labels that sanitize to the same replacement text must still produce
  // distinct filenames (the munged component carries a content hash).
  runner::RunSpec slash = base;
  slash.params = {{"axis", "a/b"}};
  runner::RunSpec space = base;
  space.params = {{"axis", "a b"}};
  runner::RunSpec dash = base;
  dash.params = {{"axis", "a-b"}};
  const std::string n_slash = runner::trace_file_name(slash);
  const std::string n_space = runner::trace_file_name(space);
  const std::string n_dash = runner::trace_file_name(dash);
  EXPECT_NE(n_slash, n_space);
  EXPECT_NE(n_slash, n_dash);
  EXPECT_NE(n_space, n_dash);

  // A hostile label cannot introduce path separators or shell metachars.
  runner::RunSpec evil = base;
  evil.params = {{"axis", "../../etc/passwd; rm -rf $(HOME) `x` &"}};
  const std::string n_evil = runner::trace_file_name(evil);
  for (char c : {'/', ';', '$', '`', '&', '(', ')', ' '}) {
    EXPECT_EQ(n_evil.find(c), std::string::npos) << "found '" << c << "'";
  }

  // Clean labels keep their historical byte-exact names (no hash suffix).
  runner::RunSpec clean = base;
  clean.params = {{"rc", "FBCC"}};
  EXPECT_EQ(runner::trace_file_name(clean),
            "exp__rc-FBCC__r0_s1_id0.trace.json");

  // Same label munged identically stays deterministic across calls.
  EXPECT_EQ(n_slash, runner::trace_file_name(slash));
}

TEST(RunnerTrace, ExpandDerivesUniquePaths) {
  core::SessionConfig base = core::presets::wireline();
  base.duration = sec(1);
  runner::ExperimentSpec spec(base);
  spec.name("obs_paths")
      .axis("x", {{"one", nullptr}, {"two", nullptr}})
      .repeats(2)
      .trace_dir("some/dir");
  const auto runs = spec.expand();
  ASSERT_EQ(runs.size(), 4u);
  std::set<std::string> paths;
  for (const auto& run : runs) {
    EXPECT_EQ(run.trace_path.rfind("some/dir/", 0), 0u);
    paths.insert(run.trace_path);
  }
  EXPECT_EQ(paths.size(), runs.size());  // no collisions, ever
}

TEST(RunnerTrace, BatchWritesPerRunTraces) {
  const std::string dir = scratch_path("obs_batch_traces");
  std::filesystem::create_directories(dir);

  core::SessionConfig base = core::presets::wireline();
  base.duration = sec(2);
  runner::ExperimentSpec spec(base);
  spec.name("obs_batch")
      .axis("x", {{"one", nullptr}, {"two", nullptr}})
      .repeats(1)
      .trace_dir(dir);

  runner::BatchRunner::Options options;
  options.jobs = 2;  // parallel writers must not collide on paths
  const runner::BatchResult batch = runner::BatchRunner(options).run(spec);
  ASSERT_EQ(batch.runs.size(), 2u);
  for (const runner::RunResult& run : batch.runs) {
    ASSERT_TRUE(run.ok) << run.error;
    ASSERT_FALSE(run.spec.trace_path.empty());
    const std::string body = read_file(run.spec.trace_path);
    EXPECT_NE(body.find("\"traceEvents\":["), std::string::npos)
        << run.spec.trace_path;
    EXPECT_NE(body.find("dropped_events"), std::string::npos);
    // The wireline session still produces the frame track.
    EXPECT_NE(body.find("\"name\":\"display\""), std::string::npos);
  }
}

// ---------------------------------------------------- labeled families --

TEST(LabeledMetrics, LabelOrderCanonicalizesToOneSeries) {
  obs::MetricsRegistry reg;
  obs::Counter& a =
      reg.counter("fleet.freeze", {{"cell", "3"}, {"rung", "fbcc"}});
  obs::Counter& b =
      reg.counter("fleet.freeze", {{"rung", "fbcc"}, {"cell", "3"}});
  EXPECT_EQ(&a, &b);  // same series regardless of registration order
  a.inc(5);
  EXPECT_EQ(
      reg.counter_value("fleet.freeze", {{"rung", "fbcc"}, {"cell", "3"}}), 5);
  // A different label set is a different series of the same family.
  reg.counter("fleet.freeze", {{"cell", "4"}, {"rung", "fbcc"}}).inc();
  EXPECT_EQ(
      reg.counter_value("fleet.freeze", {{"cell", "4"}, {"rung", "fbcc"}}), 1);
  // The flat series is independent of every labeled one.
  EXPECT_EQ(reg.counter_value("fleet.freeze"), 0);
  EXPECT_EQ(reg.find_counter("fleet.freeze", {{"cell", "9"}}), nullptr);
}

TEST(LabeledMetrics, ReferencesStayStableAcrossGrowth) {
  obs::MetricsRegistry reg;
  obs::Counter& first = reg.counter("m", {{"k", "0"}});
  obs::Gauge& g = reg.gauge("g", {{"k", "0"}});
  for (int i = 1; i < 200; ++i) {
    const std::string v = std::to_string(i);
    reg.counter("m", {{"k", v}}).inc();
    reg.gauge("g", {{"k", v}}).set(i);
    reg.counter("other." + v).inc();
  }
  first.inc(7);  // cached pointer from before 600 more registrations
  g.set(3.5);
  EXPECT_EQ(reg.counter_value("m", {{"k", "0"}}), 7);
  EXPECT_EQ(reg.gauge_value("g", {{"k", "0"}}), 3.5);
}

TEST(LabeledMetrics, OverwriteIsLabelAware) {
  obs::MetricsRegistry a;
  obs::MetricsRegistry b;
  obs::Counter& a_n0 = a.counter("n", {{"cell", "0"}});
  a_n0.set(3);
  b.counter("n", {{"cell", "0"}}).set(4);
  b.counter("n", {{"cell", "1"}}).set(10);
  b.gauge("g", {{"cell", "0"}}).set(2.0);
  // Moment and bucket histograms, each with a flat series beside the
  // labeled one of the same family.
  for (obs::MetricsRegistry* r : {&a, &b}) {
    r->histogram("h").observe(1.0);
    r->histogram("h", {{"cell", "0"}}).observe(r == &a ? 2.0 : 8.0);
    r->bucket_histogram("d", {1.0, 2.0}).observe(0.5);
    r->bucket_histogram("d", {1.0, 2.0}, {{"cell", "0"}})
        .observe(r == &a ? 1.5 : 9.0);
  }

  // overwrite_from is idempotent publish: every series of `b` replaces the
  // one of the same (name, labels) in place, and re-applying never
  // double-counts.
  a.overwrite_from(b);
  a.overwrite_from(b);
  EXPECT_EQ(a_n0.value(), 4);  // the cached reference sees the new value
  EXPECT_EQ(a.counter_value("n", {{"cell", "1"}}), 10);
  EXPECT_EQ(a.gauge_value("g", {{"cell", "0"}}), 2.0);
  EXPECT_EQ(a.find_histogram("h")->count(), 1);
  EXPECT_EQ(a.find_histogram("h", {{"cell", "0"}})->count(), 1);
  EXPECT_EQ(a.find_histogram("h", {{"cell", "0"}})->min(), 8.0);
  EXPECT_EQ(a.find_bucket_histogram("d")->bucket_counts(),
            (std::vector<std::int64_t>{1, 0, 0}));
  EXPECT_EQ(a.find_bucket_histogram("d", {{"cell", "0"}})->bucket_counts(),
            (std::vector<std::int64_t>{0, 0, 1}));
  EXPECT_EQ(a.prometheus_text(), b.prometheus_text());
}

TEST(LabeledMetrics, SnapshotRendersLabeledSeriesNames) {
  obs::MetricsRegistry reg;
  reg.counter("m", {{"cell", "1"}, {"rung", "gcc"}}).inc(2);
  const auto entries = reg.snapshot();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].name, "m{cell=\"1\",rung=\"gcc\"}");
  EXPECT_EQ(entries[0].kind, "counter");
  EXPECT_EQ(entries[0].value, 2.0);
}

// --------------------------------------------------- bucket histograms --

TEST(BucketHistogramTest, BoundaryAssignmentIsLe) {
  obs::BucketHistogram h({1.0, 2.0});
  h.observe(0.5);
  h.observe(1.0);  // exactly on a bound counts into that bucket (le)
  h.observe(1.5);
  h.observe(99.0);
  ASSERT_EQ(h.bucket_counts().size(), 3u);
  EXPECT_EQ(h.bucket_counts()[0], 2);  // 0.5, 1.0
  EXPECT_EQ(h.bucket_counts()[1], 1);  // 1.5
  EXPECT_EQ(h.bucket_counts()[2], 1);  // +Inf: 99.0
  EXPECT_EQ(h.cumulative(0), 2);
  EXPECT_EQ(h.cumulative(1), 3);
  EXPECT_EQ(h.count(), 4);
  EXPECT_EQ(h.sum(), 102.0);
}

TEST(BucketHistogramTest, RejectsUnsortedBounds) {
  EXPECT_THROW(obs::BucketHistogram({2.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(obs::BucketHistogram({1.0, 1.0}), std::invalid_argument);
}

TEST(BucketHistogramTest, RegistryBoundsApplyOnFirstRegistrationOnly) {
  obs::MetricsRegistry reg;
  obs::BucketHistogram& h =
      reg.bucket_histogram("d", obs::BucketHistogram::latency_ms_bounds());
  obs::BucketHistogram& again = reg.bucket_histogram("d", {1.0});
  EXPECT_EQ(&h, &again);
  EXPECT_EQ(again.bounds(), obs::BucketHistogram::latency_ms_bounds());
  // Labeled variant too.
  obs::BucketHistogram& lab =
      reg.bucket_histogram("d", {5.0}, {{"cell", "0"}});
  EXPECT_EQ(lab.bounds(), std::vector<double>{5.0});
  EXPECT_EQ(&lab, &reg.bucket_histogram("d", {9.0}, {{"cell", "0"}}));
}

TEST(BucketHistogramTest, RejectedBoundsRegisterNothing) {
  for (const obs::Labels& labels :
       {obs::Labels{}, obs::Labels{{"cell", "0"}}}) {
    obs::MetricsRegistry reg;
    EXPECT_THROW(reg.bucket_histogram("d", {2.0, 1.0}, labels),
                 std::invalid_argument);
    EXPECT_EQ(reg.find_bucket_histogram("d", labels), nullptr);
    EXPECT_TRUE(reg.snapshot().empty());
    EXPECT_EQ(reg.prometheus_text(), "");
    // A later valid registration gets its own bounds, not a leftover.
    EXPECT_EQ(reg.bucket_histogram("d", {1.0, 2.0}, labels).bounds(),
              (std::vector<double>{1.0, 2.0}));
  }
}

// ------------------------------------------- Prometheus exposition spec --

namespace {

// Minimal exposition-format checker: every sample parses as
// `name[{labels}] value`, every sample's family has exactly one preceding
// `# TYPE`, and histogram bucket series are cumulative with a terminal
// `+Inf` equal to `_count`.
void check_exposition_conformance(const std::string& text) {
  std::map<std::string, std::string> type_of;  // family -> type
  std::map<std::string, std::vector<double>> bucket_values;  // series -> le
  std::map<std::string, double> sample_values;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty()) << "blank line in exposition";
    if (line[0] == '#') {
      std::istringstream ls(line);
      std::string hash, kind, fam, rest;
      ls >> hash >> kind >> fam;
      ASSERT_TRUE(kind == "TYPE" || kind == "HELP") << line;
      if (kind == "TYPE") {
        ls >> rest;
        ASSERT_TRUE(rest == "counter" || rest == "gauge" ||
                    rest == "summary" || rest == "histogram")
            << line;
        ASSERT_EQ(type_of.count(fam), 0u) << "duplicate TYPE for " << fam;
        type_of[fam] = rest;
      }
      continue;
    }
    const auto space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string series = line.substr(0, space);
    char* end = nullptr;
    const double value = std::strtod(line.c_str() + space + 1, &end);
    ASSERT_EQ(*end, '\0') << "unparsable value in: " << line;
    sample_values[series] = value;

    std::string name = series.substr(0, series.find('{'));
    // Metric names must stay in the spec charset.
    for (char c : name) {
      ASSERT_TRUE((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '_' || c == ':')
          << "bad metric name char in " << name;
    }
    // Resolve the family: the name itself, or name minus a known suffix.
    std::string family;
    if (type_of.count(name)) {
      family = name;
    } else {
      for (const char* suffix : {"_bucket", "_count", "_sum"}) {
        const std::string s = suffix;
        if (name.size() > s.size() &&
            name.compare(name.size() - s.size(), s.size(), s) == 0) {
          const std::string base = name.substr(0, name.size() - s.size());
          if (type_of.count(base)) family = base;
        }
      }
    }
    ASSERT_FALSE(family.empty()) << "sample without TYPE: " << name;

    if (type_of[family] == "histogram" && name == family + "_bucket") {
      const auto le = series.find("le=\"");
      ASSERT_NE(le, std::string::npos) << series;
      const std::string le_val =
          series.substr(le + 4, series.find('"', le + 4) - le - 4);
      const std::string key =
          family;  // per-family check is enough for our single-series tests
      bucket_values[key].push_back(value);
      if (le_val == "+Inf") {
        // Terminal bucket equals _count for the same (flat) series.
        const auto count_it = sample_values.find(family + "_count");
        if (count_it != sample_values.end()) {
          EXPECT_EQ(value, count_it->second) << family;
        }
      }
    }
  }
  for (const auto& [family, values] : bucket_values) {
    for (std::size_t i = 1; i < values.size(); ++i) {
      EXPECT_LE(values[i - 1], values[i])
          << family << " bucket series not cumulative";
    }
  }
}

}  // namespace

TEST(PrometheusConformance, SanitizesNamesAndLabelNames) {
  obs::MetricsRegistry reg;
  reg.counter("serve arrivals!").inc(3);
  reg.gauge("m", {{"cell-id", "a"}, {"3gpp", "b"}}).set(1.0);
  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("# TYPE poi360_serve_arrivals_ counter\n"
                      "poi360_serve_arrivals_ 3\n"),
            std::string::npos)
      << text;
  // Label names sanitize to [a-zA-Z0-9_] with a '_' guard for digit starts.
  EXPECT_NE(text.find("poi360_m{_3gpp=\"b\",cell_id=\"a\"} 1\n"),
            std::string::npos)
      << text;
  check_exposition_conformance(text);
}

TEST(PrometheusConformance, HelpPrecedesTypeAndEscapes) {
  obs::MetricsRegistry reg;
  reg.set_help("x", "freeze line1\nline2 with \\slash");
  reg.counter("x").inc();
  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("# HELP poi360_x freeze line1\\nline2 with \\\\slash\n"
                      "# TYPE poi360_x counter\n"
                      "poi360_x 1\n"),
            std::string::npos)
      << text;
  // No HELP line for families without set_help.
  obs::MetricsRegistry bare;
  bare.counter("y").inc();
  EXPECT_EQ(bare.prometheus_text().find("# HELP"), std::string::npos);
}

TEST(PrometheusConformance, LabelValuesEscapeQuotesBackslashesNewlines) {
  obs::MetricsRegistry reg;
  reg.counter("m", {{"l", "a\"b\\c\nd"}}).inc();
  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("poi360_m{l=\"a\\\"b\\\\c\\nd\"} 1\n"),
            std::string::npos)
      << text;
}

TEST(PrometheusConformance, BucketHistogramExposition) {
  obs::MetricsRegistry reg;
  obs::BucketHistogram& h = reg.bucket_histogram("h", {1.0, 2.0});
  h.observe(0.5);
  h.observe(1.5);
  h.observe(1.5);
  h.observe(99.0);
  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("# TYPE poi360_h histogram\n"
                      "poi360_h_bucket{le=\"1\"} 1\n"
                      "poi360_h_bucket{le=\"2\"} 3\n"
                      "poi360_h_bucket{le=\"+Inf\"} 4\n"
                      "poi360_h_sum 102.5\n"
                      "poi360_h_count 4\n"),
            std::string::npos)
      << text;
  check_exposition_conformance(text);
}

TEST(PrometheusConformance, FullRegistryPassesMiniParser) {
  obs::MetricsRegistry reg;
  reg.set_help("serve.arrivals", "sessions admitted");
  reg.counter("serve.arrivals").inc(3);
  reg.counter("fleet.freeze", {{"cell", "0"}, {"rung", "FBCC/POI360"}}).inc();
  reg.counter("fleet.freeze", {{"cell", "1"}, {"rung", "GCC/POI360"}}).inc(2);
  reg.gauge("serve.live").set(4);
  reg.gauge("fleet.rate", {{"cell", "0"}}).set(2.5e6);
  reg.histogram("frame.delay_ms").observe(12.0);
  reg.histogram("frame.delay_ms").observe(200.0);
  reg.histogram("fleet.delay", {{"cell", "0"}}).observe(5.0);
  reg.bucket_histogram("serve.delay_hist",
                       obs::BucketHistogram::latency_ms_bounds())
      .observe(42.0);
  reg.bucket_histogram("fleet.delay_hist",
                       obs::BucketHistogram::ratio_bounds(), {{"cell", "0"}})
      .observe(0.3);
  const std::string text = reg.prometheus_text();
  check_exposition_conformance(text);
  // Flat and labeled series of one family share a single TYPE line.
  reg.counter("fleet.freeze").inc(9);
  const std::string mixed = reg.prometheus_text();
  check_exposition_conformance(mixed);
  EXPECT_NE(mixed.find("# TYPE poi360_fleet_freeze counter\n"
                       "poi360_fleet_freeze 9\n"
                       "poi360_fleet_freeze{cell=\"0\",rung=\"FBCC/POI360\"} "
                       "1\n"),
            std::string::npos)
      << mixed;
}

// --------------------------------------------------- /metrics endpoint --

namespace {

// Minimal blocking HTTP/1.1 GET against 127.0.0.1:<port>; returns the full
// response (headers + body).
std::string http_get(int port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  EXPECT_EQ(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string req =
      "GET " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
  EXPECT_EQ(::send(fd, req.data(), req.size(), 0),
            static_cast<ssize_t>(req.size()));
  std::string resp;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    resp.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return resp;
}

}  // namespace

TEST(MetricsHttpServerTest, ScrapeRoundTripOnEphemeralPort) {
  obs::MetricsRegistry reg;
  reg.counter("serve.arrivals").inc(3);
  reg.counter("fleet.freeze", {{"cell", "0"}, {"rung", "fbcc"}}).inc();
  reg.bucket_histogram("d", {10.0, 100.0}).observe(42.0);
  const std::string published = reg.prometheus_text();

  obs::MetricsHttpServer server(obs::MetricsHttpServer::Config{0, "127.0.0.1"});
  ASSERT_GT(server.port(), 0);
  server.publish(published);

  const std::string resp = http_get(server.port(), "/metrics");
  EXPECT_EQ(resp.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << resp;
  EXPECT_NE(resp.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos)
      << resp;
  const auto body_at = resp.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  const std::string body = resp.substr(body_at + 4);
  EXPECT_EQ(body, published);  // byte-exact round trip
  check_exposition_conformance(body);

  EXPECT_NE(http_get(server.port(), "/healthz").find("ok\n"),
            std::string::npos);
  EXPECT_EQ(http_get(server.port(), "/nope").rfind("HTTP/1.1 404", 0), 0u);
  EXPECT_EQ(server.requests_served(), 3u);

  // Re-publish swaps atomically; next scrape sees the new text.
  reg.counter("serve.arrivals").inc();
  server.publish(reg.prometheus_text());
  const std::string resp2 = http_get(server.port(), "/metrics");
  EXPECT_NE(resp2.find("poi360_serve_arrivals 4\n"), std::string::npos);
  server.stop();
  EXPECT_EQ(server.requests_served(), 4u);
}

TEST(MetricsHttpServerTest, EmptyUntilFirstPublishAndStopIsIdempotent) {
  obs::MetricsHttpServer server(obs::MetricsHttpServer::Config{0, "127.0.0.1"});
  const std::string resp = http_get(server.port(), "/metrics");
  EXPECT_EQ(resp.rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
  EXPECT_NE(resp.find("Content-Length: 0\r\n"), std::string::npos) << resp;
  server.stop();
  server.stop();  // safe to call twice; dtor will call it again
}

TEST(MetricsHttpServerTest, StopReturnsWithIdleClientConnected) {
  obs::MetricsHttpServer server(obs::MetricsHttpServer::Config{0, "127.0.0.1"});
  // Connects and never sends a request.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(server.port()));
  ASSERT_EQ(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  // Let the accept thread take the connection before stop() closes the
  // listen socket.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  std::promise<void> stopped;
  std::future<void> done = stopped.get_future();
  std::thread stopper([&] {
    server.stop();
    stopped.set_value();
  });
  const bool returned =
      done.wait_for(std::chrono::seconds(5)) == std::future_status::ready;
  ::close(fd);  // releases a stop() that is still blocked, so join returns
  stopper.join();
  EXPECT_TRUE(returned) << "stop() blocked on an idle client";
  EXPECT_EQ(server.requests_served(), 0);
}

// ------------------------------------------------------ trace sampling --

TEST(TraceSamplerTest, DecisionsAreDeterministicAndUnbiased) {
  obs::TraceSampleConfig config;
  config.keep_fraction = 0.25;
  config.max_concurrent = 0;  // unlimited
  obs::TraceSampler a(config);
  obs::TraceSampler b(config);
  int kept = 0;
  for (std::uint64_t s = 0; s < 4000; ++s) {
    ASSERT_EQ(a.keeps(s), b.keeps(s));  // pure function of the seed
    if (a.keeps(s)) ++kept;
  }
  // SplitMix64-mixed uniform: expect ~1000 keeps out of 4000.
  EXPECT_GT(kept, 800);
  EXPECT_LT(kept, 1200);
  // Edge fractions are exact, not probabilistic.
  obs::TraceSampler all(obs::TraceSampleConfig{1.0, 0, 1});
  obs::TraceSampler none(obs::TraceSampleConfig{0.0, 0, 1});
  EXPECT_TRUE(all.keeps(123));
  EXPECT_FALSE(none.keeps(123));
}

TEST(TraceSamplerTest, BudgetBoundsLiveRecordersAndCountsExactly) {
  obs::TraceSampleConfig config;
  config.keep_fraction = 1.0;
  config.max_concurrent = 2;
  obs::TraceSampler s(config);
  EXPECT_TRUE(s.admit(1));
  EXPECT_TRUE(s.admit(2));
  EXPECT_FALSE(s.admit(3));  // over budget, not sampled out
  EXPECT_EQ(s.budget_rejected(), 1);
  EXPECT_EQ(s.kept(), 2);
  EXPECT_EQ(s.live(), 2);
  s.release();
  EXPECT_TRUE(s.admit(4));
  EXPECT_EQ(s.decisions(), 4);
  EXPECT_EQ(s.kept() + s.sampled_out() + s.budget_rejected(), s.decisions());
}

// ---------------------------------------------------------- SLO engine --

namespace {

obs::SloConfig fast_slo() {
  obs::SloConfig config;
  config.freeze_budget = 0.05;
  config.fast_window = sec(60);
  config.slow_window = sec(300);
  config.fast_burn_threshold = 6.0;
  config.slow_burn_threshold = 1.0;
  return config;
}

bool breached_any(const obs::SloStatus& status) {
  for (const bool b : status.breached) {
    if (b) return true;
  }
  return false;
}

}  // namespace

TEST(SloTrackerTest, BreachesOnBurnAndRecoversWithHysteresis) {
  obs::SloTracker slo(fast_slo());
  obs::TraceRecorder trace;

  // First observation only anchors the windows.
  auto t0 = slo.observe(sec(0), {0, 0, 0, 0}, &trace, 7);
  EXPECT_EQ(t0.breaches, 0);

  // 50% frozen over a minute: burn 10x on both windows -> breach.
  auto t1 = slo.observe(sec(60), {1000, 500, 0, 0}, &trace, 7);
  EXPECT_EQ(t1.breaches, 1);
  EXPECT_TRUE(t1.breached_now[0]);
  EXPECT_TRUE(slo.status().breached[0]);
  EXPECT_GE(slo.status().burn_fast[0], 6.0);

  // Clean frames for long enough that both windows drop below threshold.
  auto t2 = slo.observe(sec(400), {10000, 500, 0, 0}, &trace, 7);
  EXPECT_EQ(t2.recoveries, 1);
  EXPECT_TRUE(t2.recovered_now[0]);
  EXPECT_FALSE(breached_any(slo.status()));

  // Both transitions landed in the trace with burn rates attached.
  int breach_events = 0;
  int recover_events = 0;
  for (const obs::TraceEvent& e : trace.snapshot()) {
    if (std::string_view(e.name) == "slo.breach") ++breach_events;
    if (std::string_view(e.name) == "slo.recovered") ++recover_events;
    if (std::string_view(e.name) == "slo.breach") {
      ASSERT_GE(e.n_args, 2);
      EXPECT_STREQ(e.args[0].key, "objective");
      EXPECT_EQ(e.id, 7);
    }
  }
  EXPECT_EQ(breach_events, 1);
  EXPECT_EQ(recover_events, 1);
}

TEST(SloTrackerTest, SlowWindowFiltersShortBlips) {
  obs::SloConfig config = fast_slo();
  // A short spike must clear the slow threshold too before breaching.
  config.fast_window = sec(10);
  config.slow_burn_threshold = 3.0;
  obs::SloTracker slo(config);
  slo.observe(sec(0), {0, 0, 0, 0});
  // Long clean history...
  slo.observe(sec(240), {24000, 0, 0, 0});
  // ...then a sharp 10-second spike: fast burn is huge, but the slow window
  // still averages over the clean 4 minutes.
  auto t = slo.observe(sec(250), {24100, 90, 0, 0});
  EXPECT_GE(slo.status().burn_fast[0], 6.0);
  EXPECT_LT(slo.status().burn_slow[0], 3.0);
  EXPECT_EQ(t.breaches, 0);
  EXPECT_FALSE(breached_any(slo.status()));
}

TEST(SloTrackerTest, ResetForgetsHistoryForSlotReuse) {
  obs::SloTracker slo(fast_slo());
  slo.observe(sec(0), {0, 0, 0, 0});
  slo.observe(sec(60), {1000, 500, 0, 0});
  EXPECT_TRUE(slo.status().breached[0]);
  slo.reset();
  EXPECT_FALSE(breached_any(slo.status()));
  // Post-reset, the first observation anchors again instead of rating.
  auto t = slo.observe(sec(120), {5000, 5000, 0, 0});
  EXPECT_EQ(t.breaches, 0);
}
