// Serving-harness suite: ManagedSession lifecycle + watchdog, admission
// policies, and SoakDriver churn runs (determinism, bounded memory, clean
// shutdown). The SoakGate.* tests are the subset the soak sanitizer gates
// re-run under asan/tsan.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <filesystem>
#include <map>
#include <string>

#include "poi360/common/json.h"
#include "poi360/core/config.h"
#include "poi360/core/session.h"
#include "poi360/obs/metrics_registry.h"
#include "poi360/runner/experiment_spec.h"
#include "poi360/serve/admission.h"
#include "poi360/serve/managed_session.h"
#include "poi360/serve/soak_driver.h"

namespace poi360::serve {
namespace {

core::SessionConfig short_session_template() {
  core::SessionConfig config;
  config.duration = sec(20);  // overridden per arrival by the call draw
  return config;
}

// ---------------------------------------------------------------------------
// ManagedSession lifecycle.

TEST(ManagedSession, WalksLifecycleStates) {
  ManagedSession ms;
  EXPECT_EQ(ms.state(), SessionState::kIdle);
  EXPECT_FALSE(ms.live());

  ManagedSession::Config mc;
  mc.id = 7;
  mc.session = short_session_template();
  mc.session.duration = sec(10);
  mc.planned_duration = sec(10);

  ms.admit(mc, sec(100));
  EXPECT_EQ(ms.state(), SessionState::kAdmitted);
  EXPECT_TRUE(ms.live());
  EXPECT_EQ(ms.id(), 7);

  ms.activate(sec(100));
  ASSERT_EQ(ms.state(), SessionState::kActive);
  EXPECT_TRUE(ms.live());

  // Master time 100s..105s maps to inner time 0..5s.
  ms.advance_until(sec(105));
  ASSERT_EQ(ms.state(), SessionState::kActive);
  EXPECT_EQ(ms.session()->now(), sec(5));
  EXPECT_GT(ms.progress_marker(), 0);

  ms.drain();
  EXPECT_EQ(ms.state(), SessionState::kClosed);
  EXPECT_FALSE(ms.live());
  EXPECT_FALSE(ms.force_drained());
  EXPECT_GT(ms.session()->metrics().displayed_frames(), 0);

  ms.release();
  EXPECT_EQ(ms.state(), SessionState::kIdle);
  EXPECT_EQ(ms.session(), nullptr);

  // The slot is reusable after release.
  ms.admit(mc, sec(200));
  EXPECT_EQ(ms.state(), SessionState::kAdmitted);
}

TEST(ManagedSession, AdmitOnOccupiedSlotThrows) {
  ManagedSession ms;
  ManagedSession::Config mc;
  mc.session = short_session_template();
  ms.admit(mc, 0);
  EXPECT_THROW(ms.admit(mc, 0), std::logic_error);
}

TEST(ManagedSession, HealthySessionIsNeverStuck) {
  ManagedSession ms;
  ManagedSession::Config mc;
  mc.session = short_session_template();
  mc.planned_duration = mc.session.duration = sec(20);
  mc.watchdog_deadline = sec(3);
  ms.admit(mc, 0);
  ms.activate(0);
  for (SimTime t = sec(1); t <= sec(15); t += sec(1)) {
    ms.advance_until(t);
    EXPECT_FALSE(ms.observe_stuck(t)) << "at t=" << t;
  }
}

TEST(ManagedSession, WatchdogDetectsDeadMediaPath) {
  ManagedSession ms;
  ManagedSession::Config mc;
  mc.session = short_session_template();
  // Media path born dead past the radio: nothing ever displays, is skipped,
  // or is abandoned, so the progress marker freezes at its initial value.
  mc.session.core_loss = 1.0;
  mc.planned_duration = mc.session.duration = sec(60);
  mc.watchdog_deadline = sec(5);
  ms.admit(mc, 0);
  ms.activate(0);

  bool stuck = false;
  SimTime detected_at = 0;
  for (SimTime t = sec(1); t <= sec(30); t += sec(1)) {
    ms.advance_until(t);
    if (ms.observe_stuck(t)) {
      stuck = true;
      detected_at = t;
      break;
    }
  }
  ASSERT_TRUE(stuck);
  EXPECT_GT(detected_at, sec(5));  // not before the deadline elapsed

  ms.force_drain();
  EXPECT_EQ(ms.state(), SessionState::kClosed);
  EXPECT_TRUE(ms.force_drained());
}

// ---------------------------------------------------------------------------
// Admission controller.

using Decision = AdmissionController::Decision;

/// Counts the decisions decide() returns, passing each one through.
struct DecisionTally {
  std::map<Decision, int> count;
  Decision operator()(Decision d) {
    ++count[d];
    return d;
  }
};

TEST(Admission, RejectPolicyRefusesBeyondHeadroom) {
  AdmissionController::Config config;
  config.policy = AdmissionController::Policy::kReject;
  config.cell_capacity = mbps(4);
  config.headroom_fraction = 1.0;
  config.cell.background_users = 0;  // share pinned at 1.0: deterministic
  AdmissionController admission(config, 1);
  DecisionTally tally;

  EXPECT_EQ(tally(admission.decide(0, mbps(1.5))), Decision::kAccept);
  admission.on_admitted(mbps(1.5));
  EXPECT_EQ(tally(admission.decide(0, mbps(1.5))), Decision::kAccept);
  admission.on_admitted(mbps(1.5));
  // 3.0 of 4.0 reserved; a third 1.5 does not fit.
  EXPECT_EQ(tally(admission.decide(0, mbps(1.5))), Decision::kReject);
  EXPECT_EQ(tally.count[Decision::kReject], 1);

  admission.on_released(mbps(1.5));
  EXPECT_EQ(tally(admission.decide(0, mbps(1.5))), Decision::kAccept);
  EXPECT_EQ(tally.count[Decision::kAccept], 3);
}

TEST(Admission, DegradePolicyAdmitsBeyondHeadroom) {
  AdmissionController::Config config;
  config.policy = AdmissionController::Policy::kDegrade;
  config.cell_capacity = mbps(2);
  config.headroom_fraction = 1.0;
  config.cell.background_users = 0;
  AdmissionController admission(config, 1);
  DecisionTally tally;

  EXPECT_EQ(tally(admission.decide(0, mbps(1.5))), Decision::kAccept);
  admission.on_admitted(mbps(1.5));
  EXPECT_EQ(tally(admission.decide(0, mbps(1.5))), Decision::kDegradeAccept);
  EXPECT_EQ(tally.count[Decision::kDegradeAccept], 1);
  EXPECT_EQ(tally.count[Decision::kReject], 0);
}

// ---------------------------------------------------------------------------
// SoakDriver.

SoakConfig small_soak(std::uint64_t seed) {
  SoakConfig config;
  config.duration = sec(420);
  config.seed = seed;
  config.mean_interarrival = sec(12);
  config.min_call = sec(5);
  config.call_tick = sec(5);
  config.mean_call = sec(30);
  config.slots = 8;
  config.warmup = sec(180);
  config.snapshot_period = sec(30);
  config.snapshot_window = 8;
  config.session = short_session_template();
  return config;
}

TEST(SoakDriver, DeterministicSummary) {
  SoakConfig config = small_soak(11);
  config.stuck_arrivals = {3};
  SoakDriver a(config);
  SoakDriver b(config);
  const SoakSummary sa = a.run();
  const SoakSummary sb = b.run();
  EXPECT_EQ(to_text(sa), to_text(sb));
  EXPECT_EQ(to_json(sa), to_json(sb));
  EXPECT_EQ(a.registry().prometheus_text(), b.registry().prometheus_text());
}

TEST(SoakDriver, SeedChangesOutcome) {
  SoakDriver a(small_soak(11));
  SoakDriver b(small_soak(12));
  EXPECT_NE(to_text(a.run()), to_text(b.run()));
}

TEST(SoakDriver, RunTwiceThrows) {
  SoakDriver driver(small_soak(1));
  driver.run();
  EXPECT_THROW(driver.run(), std::logic_error);
}

// The acceptance soak: two hours of simulated serving, a couple hundred
// arrivals, one injected stuck session. Ends with zero live sessions and a
// flat pool/registry high-water after warmup.
TEST(SoakDriver, TwoHourChurnIsBoundedAndDrainsClean) {
  SoakConfig config;
  config.duration = sec(7200);
  config.seed = 1;
  config.mean_interarrival = sec(30);
  config.slots = 16;
  config.warmup = sec(3600);
  config.session = short_session_template();
  config.stuck_arrivals = {5};

  SoakDriver driver(config);
  const SoakSummary s = driver.run();

  EXPECT_GE(s.arrivals, 200);
  EXPECT_EQ(s.live_at_end, 0);
  EXPECT_EQ(driver.live_sessions(), 0);
  EXPECT_EQ(s.failed, 0);
  EXPECT_EQ(s.rejected_pool_full, 0);

  // The injected stuck session was detected and force-drained.
  EXPECT_GE(s.force_drained, 1);

  // Bounded memory: concurrency never exceeds the preallocated pool, the
  // high-water is flat across the back half of the run, and the registry
  // holds exactly its preallocated entries from warmup to the end.
  EXPECT_LE(s.peak_concurrent, s.slots);
  EXPECT_EQ(s.pool_high_water_warmup, s.pool_high_water_end);
  EXPECT_EQ(s.registry_entries_warmup, s.registry_entries_end);

  // Conservation: every arrival was admitted+closed, rejected, or refused.
  EXPECT_EQ(s.arrivals, s.completed + s.force_drained + s.failed +
                            s.rejected_admission + s.rejected_pool_full);
  EXPECT_GT(s.frames_displayed, 0);
}

TEST(SoakDriver, RejectPolicyTurnsArrivalsAway) {
  SoakConfig config = small_soak(5);
  config.admission.policy = AdmissionController::Policy::kReject;
  config.admission.cell_capacity = mbps(4);  // ~2 concurrent sessions
  config.admission.headroom_fraction = 1.0;
  config.admission.cell.background_users = 0;
  config.mean_interarrival = sec(6);
  config.mean_call = sec(60);

  const SoakSummary s = SoakDriver(config).run();
  EXPECT_GT(s.rejected_admission, 0);
  EXPECT_EQ(s.degrade_admissions, 0);
  EXPECT_EQ(s.degrade_nudges, 0);
  EXPECT_EQ(s.live_at_end, 0);
}

TEST(SoakDriver, DegradePolicyNudgesInsteadOfRejecting) {
  SoakConfig config = small_soak(5);
  config.admission.policy = AdmissionController::Policy::kDegrade;
  config.admission.cell_capacity = mbps(4);
  config.admission.headroom_fraction = 1.0;
  config.admission.cell.background_users = 0;
  config.mean_interarrival = sec(6);
  config.mean_call = sec(60);

  const SoakSummary s = SoakDriver(config).run();
  EXPECT_EQ(s.rejected_admission, 0);
  EXPECT_GT(s.degrade_admissions, 0);
  EXPECT_GT(s.degrade_nudges, 0);
  EXPECT_EQ(s.live_at_end, 0);
}

TEST(SoakDriver, SnapshotWindowRollsDropOldest) {
  SoakConfig config = small_soak(2);
  config.snapshot_period = sec(20);
  config.snapshot_window = 4;
  SoakDriver driver(config);
  const SoakSummary s = driver.run();

  // 420s at one snapshot per 20s: far more taken than the window retains.
  EXPECT_EQ(s.snapshots_taken, 21u);
  EXPECT_EQ(s.snapshots_retained, 4u);
  const Fifo<Snapshot>& window = driver.snapshots();
  ASSERT_EQ(window.size(), 4u);
  // Drop-oldest: the retained snapshots are the last four, in order.
  EXPECT_EQ(window[0].at, sec(360));
  EXPECT_EQ(window[3].at, sec(420));
  EXPECT_NE(window[3].text.find("poi360_serve_arrivals"), std::string::npos);
}

// One 20 s call whose receiver keeps at most two frames in assembly while
// bursts drop packets, so incomplete frames get evicted by the cap.
SoakConfig evicting_soak(std::uint64_t seed) {
  SoakConfig config;
  config.duration = sec(60);
  config.seed = seed;
  config.mean_interarrival = sec(20);
  config.min_call = sec(20);
  config.mean_call = sec(20);  // every call lasts exactly min_call
  config.slots = 1;
  config.session = short_session_template();
  config.session.receiver.max_assemblies = 2;
  config.session.media_chaos.ge_p_good_bad = 0.02;
  config.session.media_chaos.ge_p_bad_good = 0.2;
  config.session.media_chaos.ge_loss_bad = 0.95;
  return config;
}

// Receiver cap evictions are lost frames, like sender skips and deadline
// abandons: SessionMetrics::freeze_ratio counts them frozen, and so must the
// soak summary. Seed 1 admits exactly one call, which runs to its natural
// end, so the summary must equal a standalone run of that call.
TEST(SoakDriver, AssemblyEvictionsReachTheFrozenCount) {
  const SoakConfig config = evicting_soak(1);
  const SoakSummary s = SoakDriver(config).run();
  ASSERT_EQ(s.arrivals, 1);
  ASSERT_EQ(s.completed, 1);
  ASSERT_EQ(s.shutdown_drained, 0);

  core::SessionConfig c = config.session;
  c.seed = runner::derive_seed(config.seed, 0);
  c.duration = config.min_call;
  core::Session session(c);
  session.run();
  const auto& rec = session.observers().receiver->recovery_stats();
  ASSERT_GT(rec.assembly_evictions, 0);
  EXPECT_EQ(session.lost_frames(), session.metrics().skipped_frames() +
                                       rec.frames_abandoned +
                                       rec.assembly_evictions);

  std::int64_t late = 0;
  for (const auto& f : session.metrics().frames()) {
    if (f.delay > c.freeze_threshold) ++late;
  }
  EXPECT_EQ(s.frames_displayed, session.metrics().displayed_frames());
  EXPECT_EQ(s.frames_skipped, session.metrics().skipped_frames());
  EXPECT_EQ(s.frames_abandoned,
            rec.frames_abandoned + rec.assembly_evictions);
  EXPECT_EQ(s.frames_frozen, late + session.lost_frames());
  EXPECT_DOUBLE_EQ(s.freeze_ratio,
                   session.metrics().freeze_ratio(c.freeze_threshold));
}

// ---------------------------------------------------------------------------
// Exposition formats.

TEST(PrometheusText, EscapesNamesAndCoversAllKinds) {
  obs::MetricsRegistry registry;
  registry.counter("serve.arrivals").inc(3);
  registry.gauge("pool.free").set(2.5);
  registry.histogram("frame.delay_ms").observe(10.0);
  registry.histogram("frame.delay_ms").observe(30.0);

  const std::string text = registry.prometheus_text();
  EXPECT_NE(text.find("# TYPE poi360_serve_arrivals counter\n"
                      "poi360_serve_arrivals 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE poi360_pool_free gauge\n"
                      "poi360_pool_free 2.5\n"),
            std::string::npos);
  EXPECT_NE(text.find("poi360_frame_delay_ms_count 2\n"), std::string::npos);
  EXPECT_NE(text.find("poi360_frame_delay_ms_sum 40\n"), std::string::npos);
  EXPECT_NE(text.find("poi360_frame_delay_ms_min 10\n"), std::string::npos);
  EXPECT_NE(text.find("poi360_frame_delay_ms_max 30\n"), std::string::npos);
  // No un-sanitized dots anywhere in metric names.
  EXPECT_EQ(text.find("serve.arrivals"), std::string::npos);
}

TEST(SoakSummaryJson, CarriesTheFullSchema) {
  SoakConfig config = small_soak(4);
  config.stuck_arrivals = {2};
  const SoakSummary s = SoakDriver(config).run();
  const std::string json = to_json(s);

  EXPECT_EQ(json.find("{"), 0u);
  EXPECT_NE(json.find("\"schema\": \"poi360.soak.v1\""), std::string::npos);
  for (const char* key :
       {"seed", "duration_s", "policy", "arrivals", "accepted",
        "degrade_admissions", "rejected_admission", "rejected_pool_full",
        "degrade_nudges", "completed", "shutdown_drained", "force_drained",
        "failed", "live_at_end", "slots", "peak_concurrent",
        "pool_high_water_warmup", "pool_high_water_end",
        "registry_entries_warmup", "registry_entries_end",
        "frames_displayed", "frames_skipped", "frames_abandoned",
        "frames_frozen", "freeze_ratio", "mean_frame_delay_ms",
        "snapshots_taken", "snapshots_retained"}) {
    std::string quoted = "\"";
    quoted += key;
    quoted += "\": ";
    EXPECT_NE(json.find(quoted), std::string::npos) << "missing key " << key;
  }
}

// The summary JSON is built as a common::Json: parsing it back yields
// exactly the v1 keys, in order, and every number unchanged.
TEST(SoakSummaryJson, ParsesBackToTheV1KeysAndExactNumbers) {
  SoakConfig config = small_soak(4);
  config.stuck_arrivals = {2};
  const SoakSummary s = SoakDriver(config).run();
  const common::Json j = common::Json::parse(to_json(s));

  std::vector<std::string> keys;
  for (const auto& [key, value] : j.items()) keys.push_back(key);
  const std::vector<std::string> v1 = {
      "schema", "seed", "duration_s", "policy", "arrivals", "accepted",
      "degrade_admissions", "rejected_admission", "rejected_pool_full",
      "degrade_nudges", "completed", "shutdown_drained", "force_drained",
      "failed", "live_at_end", "slots", "peak_concurrent",
      "pool_high_water_warmup", "pool_high_water_end",
      "registry_entries_warmup", "registry_entries_end", "frames_displayed",
      "frames_skipped", "frames_abandoned", "frames_frozen", "freeze_ratio",
      "mean_frame_delay_ms", "snapshots_taken", "snapshots_retained"};
  EXPECT_EQ(keys, v1);

  EXPECT_EQ(j.at("schema").as_string(), "poi360.soak.v1");
  EXPECT_EQ(j.get_u64("seed", 0), s.seed);
  EXPECT_EQ(j.at("duration_s").as_double(), to_seconds(s.duration));
  EXPECT_EQ(j.at("policy").as_string(), s.policy);
  EXPECT_EQ(j.at("arrivals").as_i64(), s.arrivals);
  EXPECT_EQ(j.at("accepted").as_i64(), s.accepted);
  EXPECT_EQ(j.at("degrade_admissions").as_i64(), s.degrade_admissions);
  EXPECT_EQ(j.at("rejected_admission").as_i64(), s.rejected_admission);
  EXPECT_EQ(j.at("rejected_pool_full").as_i64(), s.rejected_pool_full);
  EXPECT_EQ(j.at("degrade_nudges").as_i64(), s.degrade_nudges);
  EXPECT_EQ(j.at("completed").as_i64(), s.completed);
  EXPECT_EQ(j.at("shutdown_drained").as_i64(), s.shutdown_drained);
  EXPECT_EQ(j.at("force_drained").as_i64(), s.force_drained);
  EXPECT_EQ(j.at("failed").as_i64(), s.failed);
  EXPECT_EQ(j.at("live_at_end").as_i64(), s.live_at_end);
  EXPECT_EQ(j.at("slots").as_i64(), s.slots);
  EXPECT_EQ(j.at("peak_concurrent").as_i64(), s.peak_concurrent);
  EXPECT_EQ(j.at("pool_high_water_warmup").as_i64(), s.pool_high_water_warmup);
  EXPECT_EQ(j.at("pool_high_water_end").as_i64(), s.pool_high_water_end);
  EXPECT_EQ(j.get_u64("registry_entries_warmup", 0), s.registry_entries_warmup);
  EXPECT_EQ(j.get_u64("registry_entries_end", 0), s.registry_entries_end);
  EXPECT_EQ(j.at("frames_displayed").as_i64(), s.frames_displayed);
  EXPECT_EQ(j.at("frames_skipped").as_i64(), s.frames_skipped);
  EXPECT_EQ(j.at("frames_abandoned").as_i64(), s.frames_abandoned);
  EXPECT_EQ(j.at("frames_frozen").as_i64(), s.frames_frozen);
  EXPECT_EQ(j.at("freeze_ratio").as_double(), s.freeze_ratio);
  EXPECT_EQ(j.at("mean_frame_delay_ms").as_double(), s.mean_frame_delay_ms);
  EXPECT_EQ(j.get_u64("snapshots_taken", 0), s.snapshots_taken);
  EXPECT_EQ(j.get_u64("snapshots_retained", 0), s.snapshots_retained);
}

// ---------------------------------------------------------------------------
// Telemetry plane: labeled SLO families, trace sampling, live /metrics.

std::string telemetry_scratch(const std::string& name) {
  const std::string dir = std::string(::testing::TempDir()) + "poi360_" +
                          name + "_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// --trace-dir alone must not perturb the run: no registry growth (the
// summary prints entry counts), no RNG draws, byte-identical stdout.
TEST(SoakTelemetry, TraceDirAloneKeepsSummaryByteIdentical) {
  const SoakConfig plain = small_soak(21);
  SoakConfig traced = plain;
  traced.telemetry.trace_dir = telemetry_scratch("soak_trace_identity");
  traced.telemetry.trace_sampling.keep_fraction = 0.5;
  traced.telemetry.trace_sampling.max_concurrent = 4;

  SoakDriver a(plain);
  SoakDriver b(traced);
  const std::string sa = to_text(a.run());
  const std::string sb = to_text(b.run());
  EXPECT_EQ(sa, sb);

  // Every admitted arrival got exactly one decision; every kept session
  // wrote exactly one trace file.
  const obs::TraceSampler& sampler = b.trace_sampler();
  EXPECT_GT(sampler.decisions(), 0);
  EXPECT_EQ(sampler.decisions(),
            sampler.kept() + sampler.sampled_out() + sampler.budget_rejected());
  EXPECT_GT(sampler.kept(), 0);
  EXPECT_GT(sampler.sampled_out(), 0);
  std::size_t files = 0;
  for (const auto& de :
       std::filesystem::directory_iterator(traced.telemetry.trace_dir)) {
    (void)de;
    ++files;
  }
  EXPECT_EQ(files, static_cast<std::size_t>(sampler.kept()));
  std::filesystem::remove_all(traced.telemetry.trace_dir);
}

TEST(SoakTelemetry, SamplingDecisionsAreJobsAndOrderIndependent) {
  SoakConfig config = small_soak(21);
  config.telemetry.trace_dir = telemetry_scratch("soak_trace_det");
  config.telemetry.trace_sampling.keep_fraction = 0.4;
  SoakDriver a(config);
  a.run();
  SoakDriver b(config);
  b.run();
  EXPECT_EQ(a.trace_sampler().kept(), b.trace_sampler().kept());
  EXPECT_EQ(a.trace_sampler().sampled_out(), b.trace_sampler().sampled_out());
  std::filesystem::remove_all(config.telemetry.trace_dir);
}

// With telemetry on and an aggressive delay objective, the SLO engine must
// breach and the labeled counters must land in the exposition.
TEST(SoakTelemetry, SloBreachCountersFireUnderTightObjective) {
  SoakConfig config = small_soak(7);
  config.telemetry.enabled = true;
  // Every displayed frame counts as over-delay: burn = 1/budget >> both
  // thresholds at the first post-anchor evaluation.
  config.telemetry.slo.delay_target = 0;
  config.telemetry.slo.over_delay_budget = 0.01;

  SoakDriver driver(config);
  driver.run();

  const obs::MetricsRegistry& reg = driver.registry();
  EXPECT_GT(reg.counter_value("slo.evaluations"), 0);
  EXPECT_GT(
      reg.counter_value("slo.breach", {{"objective", "over_delay"}}), 0);
  // Close accounting: every departure kind is labeled.
  EXPECT_GT(
      reg.counter_value("serve.sessions.closed", {{"kind", "departure"}}), 0);
  // The bucketed delay histogram ingested the displayed frames.
  const obs::BucketHistogram* h =
      reg.find_bucket_histogram("serve.frame.delay_hist");
  ASSERT_NE(h, nullptr);
  EXPECT_GT(h->count(), 0);

  // All of it shows up in spec-valid exposition with labels intact.
  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("poi360_slo_breach{objective=\"over_delay\"}"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE poi360_serve_frame_delay_hist histogram"),
            std::string::npos);
  EXPECT_NE(text.find("poi360_serve_frame_delay_hist_bucket{le=\"+Inf\"}"),
            std::string::npos);
}

TEST(SoakTelemetry, TelemetryRunIsDeterministic) {
  SoakConfig config = small_soak(13);
  config.telemetry.enabled = true;
  config.telemetry.slo.delay_target = 0;
  SoakDriver a(config);
  SoakDriver b(config);
  const std::string ta = to_text(a.run());
  const std::string tb = to_text(b.run());
  EXPECT_EQ(ta, tb);
  EXPECT_EQ(a.registry().prometheus_text(), b.registry().prometheus_text());
}

namespace {

// Minimal blocking GET against the driver's live endpoint.
std::string soak_http_get(int port, const std::string& path) {
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

// The acceptance path: --metrics-port 0 starts a real socket, and a scrape
// after the run sees the final published state — labeled families, bucket
// histograms, nonzero slo_* counters under the injected objective.
TEST(SoakTelemetry, LiveScrapeSeesFinalPublishedState) {
  SoakConfig config = small_soak(7);
  config.telemetry.metrics_port = 0;  // ephemeral
  config.telemetry.slo.delay_target = 0;
  config.telemetry.slo.over_delay_budget = 0.01;

  SoakDriver driver(config);
  ASSERT_GT(driver.metrics_port(), 0);
  driver.run();

  const std::string resp =
      soak_http_get(driver.metrics_port(), "/metrics");
  EXPECT_EQ(resp.rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
  EXPECT_NE(resp.find("poi360_slo_breach{objective=\"over_delay\"} "),
            std::string::npos);
  EXPECT_NE(resp.find("poi360_serve_frame_delay_hist_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(resp.find("poi360_serve_arrivals "), std::string::npos);
  EXPECT_NE(
      soak_http_get(driver.metrics_port(), "/healthz").find("ok\n"),
      std::string::npos);
  EXPECT_GE(driver.telemetry_plane()->scrapes_served(), 2);
  // The soak publishes through the plane like a fleet cell: the plane's
  // master is the driver's registry, and the served body is its rendering.
  const std::string text = driver.registry().prometheus_text();
  EXPECT_EQ(driver.telemetry_plane()->registry().prometheus_text(), text);
  EXPECT_EQ(resp.substr(resp.find("\r\n\r\n") + 4), text);
}

// ---------------------------------------------------------------------------
// SoakGate.*: the short churn the asan/tsan soak gates re-run. Minutes of
// simulated serving with slot recycling, one stuck-session kill, and the
// bounded-memory asserts — small enough to stay cheap under tsan.

TEST(SoakGate, ChurnRecyclesSlotsCleanUnderSanitizers) {
  SoakConfig config;
  config.duration = sec(300);
  config.seed = 9;
  config.mean_interarrival = sec(10);
  config.min_call = sec(5);
  config.call_tick = sec(5);
  config.mean_call = sec(25);
  config.slots = 6;
  config.warmup = sec(150);
  config.snapshot_period = sec(30);
  config.snapshot_window = 4;
  config.session = short_session_template();
  config.stuck_arrivals = {3};

  SoakDriver driver(config);
  const SoakSummary s = driver.run();

  EXPECT_GT(s.arrivals, 10);
  EXPECT_EQ(s.live_at_end, 0);
  EXPECT_EQ(s.failed, 0);
  EXPECT_GE(s.force_drained, 1);
  EXPECT_LE(s.peak_concurrent, s.slots);
  EXPECT_EQ(s.registry_entries_warmup, s.registry_entries_end);
  EXPECT_EQ(s.arrivals, s.completed + s.force_drained + s.failed +
                            s.rejected_admission + s.rejected_pool_full);
}

}  // namespace
}  // namespace poi360::serve
