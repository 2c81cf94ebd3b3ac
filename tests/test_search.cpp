// Search suite: the minimal JSON layer, the ChaosSpec serialization
// contract (lossless round trips for every fault/traffic/motion/recovery
// knob), coverage bucketing, the cliff corpus format, and the SearchGate.*
// subset — deterministic mini-campaigns whose reports must be byte-identical
// across worker counts — plus the replay of the committed corpus under
// POI360_CORPUS_DIR.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "poi360/common/json.h"
#include "poi360/lte/diag_fault_json.h"
#include "poi360/net/chaos_json.h"
#include "poi360/search/bisection.h"
#include "poi360/search/campaign.h"
#include "poi360/search/chaos_spec.h"
#include "poi360/search/corpus.h"
#include "poi360/search/evaluator.h"
#include "poi360/search/knobs.h"
#include "poi360/search/outcome.h"

namespace poi360::search {
namespace {

// ---------------------------------------------------------------- JSON core

TEST(SearchJson, DumpParseRoundTripPreservesStructure) {
  common::Json j = common::Json::object();
  j.set("name", "cliff");
  j.set("count", std::int64_t{42});
  j.set("ratio", 0.015);
  j.set("armed", true);
  j.set("noted", false);
  common::Json arr = common::Json::array();
  arr.push_back(std::int64_t{1});
  arr.push_back(2.5);
  arr.push_back("three");
  j.set("items", std::move(arr));
  common::Json inner = common::Json::object();
  inner.set("lo", -1.0);
  inner.set("hi", 1.0);
  j.set("band", std::move(inner));

  const std::string text = j.dump(2);
  const common::Json back = common::Json::parse(text);
  EXPECT_EQ(back.dump(2), text);
  EXPECT_EQ(back.get_string("name", ""), "cliff");
  EXPECT_EQ(back.get_i64("count", 0), 42);
  EXPECT_DOUBLE_EQ(back.get_double("ratio", 0.0), 0.015);
  EXPECT_TRUE(back.get_bool("armed", false));
  EXPECT_FALSE(back.get_bool("noted", true));
  EXPECT_EQ(back.at("items").size(), 3u);
  EXPECT_EQ(back.at("items").at(2).as_string(), "three");
}

TEST(SearchJson, IntegersAndDoublesKeepTheirStorageClass) {
  common::Json j = common::Json::object();
  j.set("i", std::int64_t{9007199254740993});  // not representable as double
  j.set("d", 600.0);                           // integral-looking double
  const common::Json back = common::Json::parse(j.dump());
  EXPECT_EQ(back.at("i").type(), common::Json::Type::kInt);
  EXPECT_EQ(back.at("i").as_i64(), 9007199254740993);
  EXPECT_EQ(back.at("d").type(), common::Json::Type::kDouble);
  EXPECT_DOUBLE_EQ(back.at("d").as_double(), 600.0);
}

TEST(SearchJson, StringEscapesRoundTrip) {
  common::Json j = common::Json::object();
  j.set("s", std::string("a\"b\\c\nd\te"));
  const common::Json back = common::Json::parse(j.dump());
  EXPECT_EQ(back.at("s").as_string(), "a\"b\\c\nd\te");
  // \uXXXX escapes decode to UTF-8.
  const common::Json u = common::Json::parse(R"({"s": "Aé"})");
  EXPECT_EQ(u.at("s").as_string(), "A\xc3\xa9");
}

TEST(SearchJson, MalformedInputThrows) {
  EXPECT_THROW(common::Json::parse("{"), common::JsonError);
  EXPECT_THROW(common::Json::parse("[1,"), common::JsonError);
  EXPECT_THROW(common::Json::parse("tru"), common::JsonError);
  EXPECT_THROW(common::Json::parse("{\"a\": 1} x"), common::JsonError);
  EXPECT_THROW(common::Json::parse(""), common::JsonError);
}

// ------------------------------------------------- fault-config round trips

net::ChaosConfig exercised_chaos_config() {
  net::ChaosConfig c;
  c.ge_p_good_bad = 0.021;
  c.ge_p_bad_good = 0.31;
  c.ge_loss_bad = 0.87;
  c.ge_loss_good = 0.003;
  c.reorder_prob = 0.041;
  c.reorder_extra = msec(7);
  c.duplicate_prob = 0.013;
  c.duplicate_skew = msec(3);
  c.blackout_per_min = 5.5;
  c.blackout_mean_duration = msec(950);
  c.blackout_min_duration = msec(410);
  c.spike_per_min = 2.5;
  c.spike_mean_extra = msec(90);
  c.spike_duration = msec(260);
  return c;
}

TEST(SearchSpecJson, ChaosConfigRoundTripsEveryField) {
  const net::ChaosConfig c = exercised_chaos_config();
  const net::ChaosConfig back = net::chaos_config_from_json(net::to_json(c));
  EXPECT_DOUBLE_EQ(back.ge_p_good_bad, c.ge_p_good_bad);
  EXPECT_DOUBLE_EQ(back.ge_p_bad_good, c.ge_p_bad_good);
  EXPECT_DOUBLE_EQ(back.ge_loss_bad, c.ge_loss_bad);
  EXPECT_DOUBLE_EQ(back.ge_loss_good, c.ge_loss_good);
  EXPECT_DOUBLE_EQ(back.reorder_prob, c.reorder_prob);
  EXPECT_EQ(back.reorder_extra, c.reorder_extra);
  EXPECT_DOUBLE_EQ(back.duplicate_prob, c.duplicate_prob);
  EXPECT_EQ(back.duplicate_skew, c.duplicate_skew);
  EXPECT_DOUBLE_EQ(back.blackout_per_min, c.blackout_per_min);
  EXPECT_EQ(back.blackout_mean_duration, c.blackout_mean_duration);
  EXPECT_EQ(back.blackout_min_duration, c.blackout_min_duration);
  EXPECT_DOUBLE_EQ(back.spike_per_min, c.spike_per_min);
  EXPECT_EQ(back.spike_mean_extra, c.spike_mean_extra);
  EXPECT_EQ(back.spike_duration, c.spike_duration);
}

TEST(SearchSpecJson, DiagFaultConfigRoundTripsEveryField) {
  lte::DiagFaultConfig d;
  d.enabled = true;
  d.loss_prob = 0.07;
  d.stall_per_min = 3.5;
  d.stall_mean_duration = msec(650);
  d.stall_min_duration = msec(120);
  d.delivery_jitter = msec(9);
  d.duplicate_prob = 0.017;
  d.garbage_prob = 0.023;
  d.handover_per_min = 1.5;
  d.handover_detach_mean = msec(340);
  d.handover_detach_min = msec(60);
  d.handover_gain_min = 0.55;
  d.handover_gain_max = 1.45;
  d.handover_gain_duration = msec(2100);

  const lte::DiagFaultConfig back =
      lte::diag_fault_config_from_json(lte::to_json(d));
  EXPECT_EQ(back.enabled, d.enabled);
  EXPECT_DOUBLE_EQ(back.loss_prob, d.loss_prob);
  EXPECT_DOUBLE_EQ(back.stall_per_min, d.stall_per_min);
  EXPECT_EQ(back.stall_mean_duration, d.stall_mean_duration);
  EXPECT_EQ(back.stall_min_duration, d.stall_min_duration);
  EXPECT_EQ(back.delivery_jitter, d.delivery_jitter);
  EXPECT_DOUBLE_EQ(back.duplicate_prob, d.duplicate_prob);
  EXPECT_DOUBLE_EQ(back.garbage_prob, d.garbage_prob);
  EXPECT_DOUBLE_EQ(back.handover_per_min, d.handover_per_min);
  EXPECT_EQ(back.handover_detach_mean, d.handover_detach_mean);
  EXPECT_EQ(back.handover_detach_min, d.handover_detach_min);
  EXPECT_DOUBLE_EQ(back.handover_gain_min, d.handover_gain_min);
  EXPECT_DOUBLE_EQ(back.handover_gain_max, d.handover_gain_max);
  EXPECT_EQ(back.handover_gain_duration, d.handover_gain_duration);
}

TEST(SearchSpecJson, EmptyObjectYieldsDefaults) {
  const net::ChaosConfig c =
      net::chaos_config_from_json(common::Json::object());
  const net::ChaosConfig def;
  EXPECT_DOUBLE_EQ(c.ge_p_good_bad, def.ge_p_good_bad);
  EXPECT_EQ(c.blackout_mean_duration, def.blackout_mean_duration);
  const lte::DiagFaultConfig d =
      lte::diag_fault_config_from_json(common::Json::object());
  const lte::DiagFaultConfig ddef;
  EXPECT_EQ(d.enabled, ddef.enabled);
  EXPECT_EQ(d.handover_gain_duration, ddef.handover_gain_duration);
}

ChaosSpec exercised_spec() {
  ChaosSpec spec;
  spec.seed = 31337;
  spec.duration_s = 17.5;
  spec.diag.enabled = true;
  spec.diag.loss_prob = 0.05;
  spec.diag.stall_per_min = 2.0;
  spec.media = exercised_chaos_config();
  spec.feedback.blackout_per_min = 7.0;
  spec.feedback.blackout_min_duration = msec(700);
  spec.traffic.rss_dbm = -95.0;
  spec.traffic.mean_cell_load = 0.42;
  spec.traffic.load_std = 0.11;
  spec.traffic.speed_mph = 27.0;
  spec.motion.mean_fixation_s = 0.45;
  spec.motion.peak_velocity_deg_s = 180.0;
  spec.motion.large_shift_prob = 0.3;
  spec.motion.pursuit_prob = 0.6;
  spec.recovery.nack_retry_budget = 6;
  spec.recovery.nack_backoff = false;
  spec.recovery.frame_deadline_ms = 450.0;
  spec.recovery.max_assemblies = 128;
  spec.recovery.max_outstanding_nacks = 1024;
  return spec;
}

TEST(SearchSpecJson, ChaosSpecRoundTripIsLossless) {
  const ChaosSpec spec = exercised_spec();
  const ChaosSpec back = ChaosSpec::from_json(spec.to_json());
  // Lossless == the serialized forms are byte-identical.
  EXPECT_EQ(back.to_json().dump(2), spec.to_json().dump(2));
  EXPECT_EQ(back.seed, spec.seed);
  EXPECT_DOUBLE_EQ(back.duration_s, spec.duration_s);
  EXPECT_DOUBLE_EQ(back.traffic.rss_dbm, -95.0);
  EXPECT_DOUBLE_EQ(back.motion.large_shift_prob, 0.3);
  EXPECT_EQ(back.recovery.nack_retry_budget, 6);
  EXPECT_FALSE(back.recovery.nack_backoff);
}

TEST(SearchSpecJson, ApplyStampsTheSessionConfig) {
  const ChaosSpec spec = exercised_spec();
  core::SessionConfig config = core::presets::cellular_static();
  spec.apply(config);
  EXPECT_EQ(config.seed, spec.seed);
  EXPECT_EQ(config.duration, sec_f(17.5));
  EXPECT_DOUBLE_EQ(config.channel.rss_dbm, -95.0);
  EXPECT_DOUBLE_EQ(config.channel.mean_cell_load, 0.42);
  EXPECT_DOUBLE_EQ(config.channel.speed_mph, 27.0);
  EXPECT_DOUBLE_EQ(config.head_motion.mean_fixation_s, 0.45);
  EXPECT_TRUE(config.diag_faults.enabled);
  EXPECT_DOUBLE_EQ(config.media_chaos.ge_loss_bad, 0.87);
  EXPECT_DOUBLE_EQ(config.feedback_chaos.blackout_per_min, 7.0);
  EXPECT_EQ(config.receiver.nack_retry_budget, 6);
  EXPECT_FALSE(config.receiver.nack_backoff);
  EXPECT_EQ(config.receiver.frame_deadline, sec_f(0.45));
  EXPECT_EQ(config.receiver.max_assemblies, 128u);

  core::SessionConfig gcc = spec.session(core::RateControl::kGcc);
  EXPECT_EQ(gcc.rate_control, core::RateControl::kGcc);
  EXPECT_EQ(gcc.seed, spec.seed);
}

// ------------------------------------------------------- knobs and coverage

TEST(SearchKnobs, TableAccessorsRoundTripAndStayInRange) {
  ChaosSpec spec;
  for (const Knob& knob : knob_table()) {
    ASSERT_LT(knob.lo, knob.hi) << knob.name;
    const double mid = 0.5 * (knob.lo + knob.hi);
    knob.set(spec, mid);
    // Durations snap to whole microseconds; everything else is exact.
    EXPECT_NEAR(knob.get(spec), mid, 1e-3) << knob.name;
  }
}

TEST(SearchKnobs, NormalizeTracksDiagEnabledBit) {
  ChaosSpec spec;
  normalize_spec(spec);
  EXPECT_FALSE(spec.diag.enabled);
  spec.diag.stall_per_min = 2.0;
  normalize_spec(spec);
  EXPECT_TRUE(spec.diag.enabled);
}

TEST(SearchCoverage, FreezeBandsDiscretizeAsDocumented) {
  QoeOutcome o;
  EXPECT_EQ(coverage_bucket(o), "fz0.dg0.fb0.ab0.gu0.pli0.sk0");
  o.freeze_ratio = 0.03;
  EXPECT_TRUE(coverage_bucket(o).starts_with("fz1."));
  o.freeze_ratio = 0.12;
  EXPECT_TRUE(coverage_bucket(o).starts_with("fz2."));
  o.freeze_ratio = 0.4;
  EXPECT_TRUE(coverage_bucket(o).starts_with("fz3."));
  o.freeze_ratio = 0.9;
  EXPECT_TRUE(coverage_bucket(o).starts_with("fz4."));
}

TEST(SearchCoverage, RobustnessFlagsShowUpInTheBucket) {
  QoeOutcome o;
  o.fallback_episodes = 1;
  o.feedback_stale_episodes = 3;
  o.frames_abandoned = 2;
  o.nack_give_ups = 5;
  o.keyframe_requests = 2;
  o.skipped_frames = 10;
  EXPECT_EQ(coverage_bucket(o), "fz0.dg1.fb2.ab1.gu1.pli1.sk1");
}

TEST(SearchCoverage, CoverageMapCountsDistinctBuckets) {
  CoverageMap map;
  EXPECT_TRUE(map.insert("fz0.dg0.fb0.ab0.gu0.pli0.sk0"));
  EXPECT_FALSE(map.insert("fz0.dg0.fb0.ab0.gu0.pli0.sk0"));
  EXPECT_TRUE(map.insert("fz1.dg0.fb0.ab0.gu0.pli0.sk0"));
  EXPECT_EQ(map.size(), 2u);
  EXPECT_TRUE(map.contains("fz1.dg0.fb0.ab0.gu0.pli0.sk0"));
  EXPECT_FALSE(map.contains("fz2.dg0.fb0.ab0.gu0.pli0.sk0"));
}

TEST(SearchCoverage, OutcomeJsonRoundTrips) {
  QoeOutcome o;
  o.freeze_ratio = 0.25;
  o.mean_roi_psnr = 31.5;
  o.p95_delay_ms = 210.0;
  o.degraded_fraction = 0.4;
  o.fallback_episodes = 2;
  o.feedback_stale_episodes = 1;
  o.frames_abandoned = 7;
  o.assembly_evictions = 1;
  o.nack_give_ups = 3;
  o.keyframe_requests = 8;
  o.sender_frames_dropped = 6;
  o.skipped_frames = 40;
  o.displayed_frames = 500;
  const QoeOutcome back = QoeOutcome::from_json(o.to_json());
  EXPECT_EQ(back.to_json().dump(), o.to_json().dump());
  EXPECT_EQ(back.displayed_frames, 500);
  EXPECT_EQ(coverage_bucket(back), coverage_bucket(o));
}

// ------------------------------------------------------------------- corpus

Cliff sample_cliff() {
  Cliff cliff;
  cliff.name = "bisect_burst_dwell";
  cliff.kind = "bisection";
  cliff.note = "minimal burst_dwell = 19 pkts";
  cliff.spec = exercised_spec();
  cliff.outcome.freeze_ratio = 0.125;
  cliff.outcome.mean_roi_psnr = 30.0;
  cliff.outcome.p95_delay_ms = 180.0;
  cliff.outcome.frames_abandoned = 4;
  cliff.outcome.keyframe_requests = 4;
  return cliff;
}

TEST(SearchCorpus, MakeEntryEnvelopesTheDiscoveryMetrics) {
  const CorpusEntry entry = make_entry(sample_cliff());
  EXPECT_EQ(entry.schema, kCorpusSchema);
  bool saw_freeze = false;
  for (const EnvelopeBound& b : entry.envelope) {
    EXPECT_LT(b.lo, b.hi) << b.metric;
    if (b.metric == "freeze_ratio") {
      saw_freeze = true;
      EXPECT_LE(b.lo, 0.125);
      EXPECT_GE(b.hi, 0.125);
    }
  }
  EXPECT_TRUE(saw_freeze);
}

TEST(SearchCorpus, PairedEntriesEnvelopeTheControllerGap) {
  Cliff cliff = sample_cliff();
  cliff.name = "anneal_fbcc_gcc_gap";
  cliff.kind = "annealing";
  cliff.paired = true;
  cliff.baseline = cliff.outcome;
  cliff.baseline.freeze_ratio = 0.6;
  const CorpusEntry entry = make_entry(cliff);
  bool saw_gap = false;
  for (const EnvelopeBound& b : entry.envelope) {
    if (b.metric == "gap_freeze_ratio") {
      saw_gap = true;
      EXPECT_LE(b.lo, 0.475);
      EXPECT_GE(b.hi, 0.475);
    }
  }
  EXPECT_TRUE(saw_gap);
}

TEST(SearchCorpus, EntryJsonRoundTripIsByteStable) {
  const CorpusEntry entry = make_entry(sample_cliff());
  const std::string text = to_json(entry).dump(2);
  const CorpusEntry back = entry_from_json(common::Json::parse(text));
  EXPECT_EQ(to_json(back).dump(2), text);
}

TEST(SearchCorpus, WrongSchemaIsRejected) {
  common::Json j = to_json(make_entry(sample_cliff()));
  j.set("schema", "poi360.cliff.v999");
  EXPECT_THROW(entry_from_json(j), std::runtime_error);
}

TEST(SearchCorpus, WriteLoadRoundTripsThroughDisk) {
  const std::string dir = ::testing::TempDir() + "poi360_corpus_rt";
  CorpusEntry a = make_entry(sample_cliff());
  Cliff second = sample_cliff();
  second.name = "another_cliff";
  CorpusEntry b = make_entry(second);
  write_corpus(dir, {a, b});
  const std::vector<CorpusEntry> loaded = load_corpus(dir);
  ASSERT_EQ(loaded.size(), 2u);
  // Filename order: "another_cliff" sorts before "bisect_burst_dwell".
  EXPECT_EQ(loaded[0].name, "another_cliff");
  EXPECT_EQ(loaded[1].name, "bisect_burst_dwell");
  EXPECT_EQ(to_json(loaded[1]).dump(2), to_json(a).dump(2));
}

// ----------------------------------------------------- SearchGate (asan'd)

TEST(SearchGate, PairedEvaluationSharesTheFaultSchedule) {
  ChaosSpec spec;
  spec.seed = 1000;
  spec.duration_s = 8.0;
  spec.media.ge_p_good_bad = 0.01;
  spec.media.ge_p_bad_good = 0.2;
  spec.media.ge_loss_bad = 0.9;
  Evaluator evaluator;
  const auto paired = evaluator.evaluate_paired({spec});
  ASSERT_EQ(paired.size(), 1u);
  EXPECT_GT(paired[0].fbcc.displayed_frames, 0);
  EXPECT_GT(paired[0].gcc.displayed_frames, 0);
  EXPECT_EQ(evaluator.sessions_run(), 2);
}

TEST(SearchGate, BisectionFindsAMinimalBurstDwell) {
  BisectionAxis axis = burst_dwell_axis(1000, 12.0, 0.10);
  Evaluator evaluator;
  std::string log;
  BisectionSearch search(axis);
  const std::vector<Cliff> cliffs = search.run(evaluator, 10, log);
  ASSERT_EQ(cliffs.size(), 1u) << log;
  EXPECT_TRUE(cliffs[0].note.starts_with("minimal ")) << cliffs[0].note;
  EXPECT_TRUE(axis.trips(cliffs[0].outcome));

  // Minimality is checkable: the dwell is recoverable from the spec, and
  // one step below it must not trip the same predicate.
  const std::int64_t dwell =
      std::llround(1.0 / cliffs[0].spec.media.ge_p_bad_good);
  ASSERT_GE(dwell, axis.lo);
  if (dwell > axis.lo) {
    Evaluator check;
    const QoeOutcome below =
        check.evaluate({axis.spec_at(dwell - 1)}, axis.rate_control)[0];
    EXPECT_FALSE(axis.trips(below)) << "dwell " << dwell << " not minimal";
  }
}

CampaignConfig mini_config() {
  CampaignConfig config;
  config.seed = 1000;
  config.budget = 24;
  config.duration_s = 10.0;
  return config;
}

TEST(SearchGate, MiniCampaignIsByteIdenticalAcrossWorkerCounts) {
  CampaignConfig serial = mini_config();
  serial.jobs = 1;
  CampaignConfig wide = mini_config();
  wide.jobs = 4;
  const CampaignResult a = run_campaign(serial);
  const CampaignResult b = run_campaign(wide);
  EXPECT_EQ(a.report, b.report);
  EXPECT_EQ(a.cliffs.size(), b.cliffs.size());
  EXPECT_LE(a.sessions, serial.budget);
  EXPECT_GE(a.coverage.size(), 2u);
  EXPECT_FALSE(a.cliffs.empty());
  // Every cliff ships in committed form.
  EXPECT_EQ(a.entries.size(), a.cliffs.size());
}

TEST(SearchGate, FreshCampaignCorpusReplaysWithinItsOwnEnvelopes) {
  CampaignConfig config = mini_config();
  config.corpus_dir = ::testing::TempDir() + "poi360_corpus_gate";
  // Start empty: entries left by an earlier build would be replayed too.
  std::filesystem::remove_all(config.corpus_dir);
  const CampaignResult result = run_campaign(config);
  ASSERT_FALSE(result.entries.empty());
  const std::vector<ReplayResult> replays =
      replay_corpus(config.corpus_dir, /*jobs=*/2);
  ASSERT_EQ(replays.size(), result.entries.size());
  for (const ReplayResult& r : replays) {
    EXPECT_TRUE(r.ok) << r.name << "\n" << r.detail;
  }
}

// ------------------------------------------- committed-corpus replay (CI)

TEST(CorpusReplay, CommittedCorpusStaysWithinEnvelopes) {
  const std::string dir = POI360_CORPUS_DIR;
  const std::vector<CorpusEntry> entries = load_corpus(dir);
  // The committed corpus must hold the acceptance set: >= 3 distinct cliffs
  // including a bisection-minimal one and a paired FBCC-vs-GCC gap.
  ASSERT_GE(entries.size(), 3u) << "corpus missing under " << dir;
  bool saw_bisection = false;
  bool saw_paired = false;
  for (const CorpusEntry& e : entries) {
    if (e.kind == "bisection") saw_bisection = true;
    if (e.paired) saw_paired = true;
  }
  EXPECT_TRUE(saw_bisection);
  EXPECT_TRUE(saw_paired);

  for (const ReplayResult& r : replay_corpus(dir, /*jobs=*/0)) {
    EXPECT_TRUE(r.ok) << r.name << "\n" << r.detail;
  }
}

// ------------------------------------------------- near-edge margin report

// margin = 0 (the CI default) must leave the replay detail byte-identical
// to the pre-margin format: the committed-corpus gate diffs this text.
TEST(CorpusReplay, ZeroMarginKeepsDetailBytesAndPopulatesMargins) {
  const std::string dir = POI360_CORPUS_DIR;
  const std::vector<ReplayResult> plain = replay_corpus(dir, /*jobs=*/0);
  const std::vector<ReplayResult> zero =
      replay_corpus(dir, /*jobs=*/0, /*near_edge_margin=*/0.0);
  ASSERT_EQ(plain.size(), zero.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i].detail, zero[i].detail);
    EXPECT_FALSE(zero[i].near_edge);
    // Margins are computed regardless so callers can rank tightness.
    EXPECT_FALSE(zero[i].margins.empty());
    for (const MetricMargin& m : zero[i].margins) {
      EXPECT_FALSE(m.near_edge);
      if (m.in_band) {
        EXPECT_GE(m.edge_fraction, 0.0);
        EXPECT_LE(m.edge_fraction, 0.5);
      }
    }
  }
}

// An absurdly wide margin flags every in-band metric as near-edge and the
// detail text carries the edge= annotation; replay still PASSes (exit-code
// semantics live in the bench, not here).
TEST(CorpusReplay, WideMarginFlagsNearEdgeMetrics) {
  const std::string dir = POI360_CORPUS_DIR;
  const std::vector<ReplayResult> wide =
      replay_corpus(dir, /*jobs=*/0, /*near_edge_margin=*/0.51);
  ASSERT_FALSE(wide.empty());
  for (const ReplayResult& r : wide) {
    EXPECT_TRUE(r.ok) << r.name << "\n" << r.detail;
    EXPECT_TRUE(r.near_edge) << r.name;
    EXPECT_NE(r.detail.find(" edge="), std::string::npos);
    EXPECT_NE(r.detail.find(" NEAR-EDGE"), std::string::npos);
    bool any_flagged = false;
    for (const MetricMargin& m : r.margins) {
      if (m.in_band) {
        EXPECT_TRUE(m.near_edge) << r.name << " " << m.metric;
        any_flagged = true;
      }
    }
    EXPECT_TRUE(any_flagged) << r.name;
  }
}

// Edge fractions are exact: distance to the nearer bound over the band
// width, clamped to [0, 0.5], and the flag respects strict inequality.
TEST(CorpusReplay, EdgeFractionMatchesHandComputation) {
  const std::string dir = POI360_CORPUS_DIR;
  const std::vector<CorpusEntry> entries = load_corpus(dir);
  ASSERT_FALSE(entries.empty());
  const ReplayResult r =
      replay_entry(entries.front(), /*jobs=*/0, /*near_edge_margin=*/0.25);
  for (const MetricMargin& m : r.margins) {
    if (!m.in_band) continue;
    const double width = m.hi - m.lo;
    ASSERT_GT(width, 0.0) << m.metric;
    const double expect =
        std::min(m.value - m.lo, m.hi - m.value) / width;
    EXPECT_NEAR(m.edge_fraction, std::min(0.5, std::max(0.0, expect)), 1e-12)
        << m.metric;
    EXPECT_EQ(m.near_edge, m.edge_fraction < 0.25) << m.metric;
  }
}

}  // namespace
}  // namespace poi360::search
