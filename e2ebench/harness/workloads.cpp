#include "workloads.h"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <queue>
#include <random>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "ledger.h"
#include "poi360/common/rng.h"
#include "poi360/common/stats.h"
#include "poi360/core/config.h"
#include "poi360/core/session.h"
#include "poi360/lte/shared_cell.h"
#include "poi360/runner/batch_runner.h"
#include "poi360/runner/experiment_spec.h"
#include "poi360/serve/fleet_driver.h"
#include "poi360/serve/managed_session.h"
#include "poi360/serve/soak_driver.h"
#include "replay.h"

namespace e2ebench {

using namespace poi360;
using Clock = std::chrono::steady_clock;

namespace {

constexpr int kWorkers = 2;
/// QoE slices: fixed, seed-determined numbers of units, so QoE does not
/// depend on host speed. Sized so the seed-to-seed spread of every QoE
/// metric stays well inside its bound.
constexpr int kCellularQoeSessions = 640;
constexpr int kFleetQoeUnits = 8;
constexpr int kSoakQoeUnits = 3;
constexpr int kSoakCompanions = 96;
/// Sessions per timed unit of `session_cellular` (even: FBCC/GCC balanced).
constexpr int kCellularGroup = 8;
/// Units are spaced this many derived seeds apart so the sessions of
/// different units never share a seed.
constexpr int kUnitSeedStride = 4096;
constexpr int kFleetCells = 4;
constexpr int kFleetSessionsPerCell = 16;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::int64_t monotonic_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;
}

std::string fmt(const char* f, double a, double b = 0.0, double c = 0.0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), f, a, b, c);
  return buf;
}

/// Receives the calibration kernel's results so its work is not optimized
/// away. Atomic: fleet tasks run the kernel on two threads at once.
std::atomic<double> calibration_sink{0.0};

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Host-speed calibration kernel: a fixed mix of the simulator's hot
/// operations (normal draws from a Mersenne Twister, a binary heap, a hash
/// map) in harness code that no library change touches. Returns kernels
/// per CPU second of the calling thread, so a sampler that shares its CPU
/// with the timed work measures the CPU's speed, not its share of it. On a
/// shared VM the per-cycle speed of one vCPU drifts by up to ~1.8x over
/// seconds; this kernel's rate on the same vCPU tracks that drift
/// (measured: 1 s windows of a fixed session spread 0.086 raw, 0.031 after
/// normalization).
double calibration_rate() {
  const double t0 = thread_cpu_seconds();
  std::mt19937_64 engine(42);
  std::priority_queue<std::pair<std::uint64_t, int>,
                      std::vector<std::pair<std::uint64_t, int>>, std::greater<>>
      heap;
  std::unordered_map<std::uint64_t, std::uint64_t> map;
  double acc = 0.0;
  for (int i = 0; i < 40000; ++i) {
    acc += std::normal_distribution<double>(0.0, 1.0)(engine);
    heap.emplace(engine() % 100000, i);
    if (heap.size() > 256) heap.pop();
    map[engine() % 4096] += static_cast<std::uint64_t>(i);
  }
  calibration_sink.store(acc + static_cast<double>(map.size() + heap.size()),
                         std::memory_order_relaxed);
  return 1.0 / std::max(thread_cpu_seconds() - t0, 1e-9);
}

/// About the calibration kernel's median rate (kernels per CPU second) on
/// the host the bounds were set on (4-vCPU x86-64 VM, g++ 12.2 -O3): the
/// speed sim_s_per_wall_s is normalized to.
constexpr double kReferenceCalibrationRate = 175.0;

// -- workload configurations -------------------------------------------------

core::SessionConfig cellular_config(std::uint64_t seed, int i) {
  core::SessionConfig c = core::presets::cellular_static();
  c.compression = core::CompressionScheme::kPoi360;
  c.rate_control = i % 2 == 0 ? core::RateControl::kFbcc : core::RateControl::kGcc;
  c.duration = sec(60);
  c.seed = runner::derive_seed(seed, i);
  return c;
}

serve::FleetConfig fleet_config(std::uint64_t seed, int unit) {
  serve::FleetConfig fc;
  fc.cells = kFleetCells;
  fc.sessions_per_cell = kFleetSessionsPerCell;
  fc.duration = sec(30);
  fc.seed = runner::derive_seed(seed, unit * kUnitSeedStride);
  fc.advance_quantum = msec(100);
  fc.jobs = kWorkers;
  fc.session = core::presets::cellular_static();
  return fc;
}

serve::SoakConfig soak_config(std::uint64_t seed, int unit, SimDuration duration) {
  serve::SoakConfig sc;
  sc.duration = duration;
  sc.seed = runner::derive_seed(seed, unit * kUnitSeedStride);
  sc.slots = 16;
  sc.admission.policy = serve::AdmissionController::Policy::kDegrade;
  return sc;
}

/// The soak's own per-arrival session config (seed and config as SoakDriver
/// derives them), run for the mean call length.
core::SessionConfig soak_session_config(const serve::SoakConfig& sc, int arrival) {
  core::SessionConfig c = sc.session;
  c.seed = runner::derive_seed(sc.seed, arrival);
  c.duration = sc.mean_call;
  return c;
}

SimDuration frame_interval(const core::SessionConfig& c) {
  return sec(1) / std::max(1, c.encoder.fps);
}

// -- fleet mirror ---------------------------------------------------------------

/// Rebuilds one `serve::FleetCell` from public parts (SharedCell + Session
/// with a cell handle, same seeds, same cross traffic, same quantum
/// protocol) so the harness can read each session's metrics and trace. The
/// untraced run checks that it reproduces FleetCell::results() exactly.
class MirrorCell {
 public:
  MirrorCell(const serve::FleetConfig& config, int cell_index)
      : config_(config),
        cell_(config.cell, Rng(config.seed)
                               .fork(0xF1EE7u + static_cast<std::uint64_t>(cell_index))
                               .engine()()),
        cross_rng_(Rng(config.seed).fork(0xCB05u).fork(
            static_cast<std::uint64_t>(cell_index))) {
    const int n = std::max(1, config.sessions_per_cell);
    for (int i = 0; i < n; ++i) {
      const serve::FleetRung& rung =
          config.ladder[static_cast<std::size_t>(i) % config.ladder.size()];
      core::SessionConfig sc = config.session;
      sc.network = core::NetworkType::kCellular;
      sc.rate_control = rung.rate_control;
      sc.compression = rung.compression;
      sc.duration = config.duration;
      sc.seed = runner::derive_seed(config.seed, cell_index * n + i);
      sc.channel.explicit_users = -1;
      sc.channel.mean_cell_load = 0.0;
      sc.channel.load_std = 0.0;
      sc.cell_handle = lte::CellHandle(&cell_, cell_.register_ue(1.0));
      sessions_.push_back(std::make_unique<core::Session>(sc));
    }
    add_cross(config.voice);
    add_cross(config.ftp);
  }

  void start() {
    for (auto& s : sessions_) s->start();
    cell_.commit_demand();
  }
  void advance_to(SimTime t) {
    for (Cross& c : cross_) {
      while (c.toggle_at <= now_) {
        c.active = !c.active;
        c.toggle_at += std::max<SimDuration>(
            msec(10), sec_f(cross_rng_.exponential(
                          to_seconds(c.active ? c.mean_on : c.mean_off))));
      }
      cell_.report_demand(c.ue, c.active ? 1 : 0);
    }
    cell_.commit_demand();
    cell_.trim(now_);
    for (auto& s : sessions_) s->advance_until(t);
    now_ = t;
  }
  void run() {
    start();
    const SimDuration q = std::max<SimDuration>(msec(1), config_.advance_quantum);
    for (SimTime t = 0; t < config_.duration;) {
      t = std::min<SimTime>(t + q, config_.duration);
      advance_to(t);
    }
    for (auto& s : sessions_) s->finish();
  }
  std::vector<std::unique_ptr<core::Session>>& sessions() { return sessions_; }

 private:
  struct Cross {
    int ue = 0;
    bool active = false;
    SimTime toggle_at = 0;
    SimDuration mean_on = 0;
    SimDuration mean_off = 0;
  };
  void add_cross(const serve::CrossTrafficSpec& spec) {
    for (int i = 0; i < spec.count; ++i) {
      Cross c;
      c.ue = cell_.register_ue(std::max(1e-3, spec.weight));
      c.mean_on = std::max<SimDuration>(msec(10), spec.mean_on);
      c.mean_off = std::max<SimDuration>(msec(10), spec.mean_off);
      const double duty = to_seconds(c.mean_on) /
                          (to_seconds(c.mean_on) + to_seconds(c.mean_off));
      c.active = cross_rng_.bernoulli(duty);
      c.toggle_at = sec_f(cross_rng_.exponential(
          to_seconds(c.active ? c.mean_on : c.mean_off)));
      cell_.report_demand(c.ue, c.active ? 1 : 0);
      cross_.push_back(c);
    }
  }

  serve::FleetConfig config_;
  lte::SharedCell cell_;
  Rng cross_rng_;
  std::vector<std::unique_ptr<core::Session>> sessions_;
  std::vector<Cross> cross_;
  SimTime now_ = 0;
};

/// FleetCell::results() fields computed from a session's public metrics.
std::uint64_t result_digest(std::uint64_t h, bool ok, std::int64_t displayed,
                            const double (&reals)[6]) {
  h = fnv1a(h, &ok, sizeof(ok));
  h = fnv1a(h, &displayed, sizeof(displayed));
  return fnv1a(h, reals, sizeof(reals));
}

std::uint64_t digest_of(const std::vector<serve::FleetSessionResult>& rows) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& r : rows) {
    const double reals[6] = {r.mean_throughput_mbps, r.freeze_ratio, r.mismatch_ratio,
                             r.mean_delay_ms, r.p95_delay_ms, r.mean_roi_psnr_db};
    h = result_digest(h, r.ok, r.displayed_frames, reals);
  }
  return h;
}

std::uint64_t digest_of(MirrorCell& cell, SimDuration freeze_threshold) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& s : cell.sessions()) {
    const metrics::SessionMetrics& m = s->metrics();
    std::int64_t mismatched = 0;
    for (const auto& f : m.frames()) mismatched += f.roi_mismatch ? 1 : 0;
    const SampleSet delays = m.frame_delays_ms();
    const double reals[6] = {
        m.mean_throughput() / 1e6,
        m.freeze_ratio(freeze_threshold),
        m.frames().empty() ? 0.0
                           : static_cast<double>(mismatched) /
                                 static_cast<double>(m.frames().size()),
        delays.empty() ? 0.0 : delays.mean(),
        delays.empty() ? 0.0 : delays.percentile(0.95),
        m.mean_roi_psnr()};
    h = result_digest(h, true, m.displayed_frames(), reals);
  }
  return h;
}

/// Runs one FleetDriver-equivalent unit: every cell through FleetCell's
/// start/advance_to/finish, cells sharded over the worker pool. Optionally
/// records host time per advance_to, per cell, and the calibration rate
/// each task measures on its own thread before its cell.
std::vector<std::vector<serve::FleetSessionResult>> run_fleet_unit(
    const serve::FleetConfig& fc, int jobs, std::vector<double>* quantum_ms = nullptr,
    std::vector<double>* cell_ms = nullptr, std::vector<double>* calibration = nullptr) {
  std::vector<std::vector<serve::FleetSessionResult>> out(
      static_cast<std::size_t>(fc.cells));
  std::vector<std::vector<double>> quanta(static_cast<std::size_t>(fc.cells));
  std::vector<double> cell_time(static_cast<std::size_t>(fc.cells), 0.0);
  if (calibration) calibration->assign(static_cast<std::size_t>(fc.cells), 0.0);
  runner::BatchRunner::parallel_for(
      jobs, static_cast<std::size_t>(fc.cells), [&](std::size_t c) {
        if (calibration) (*calibration)[c] = calibration_rate();
        const auto t0 = Clock::now();
        serve::FleetCell cell(fc, static_cast<int>(c));
        cell.start();
        for (SimTime t = 0; t < fc.duration;) {
          t = std::min<SimTime>(t + fc.advance_quantum, fc.duration);
          const auto q0 = Clock::now();
          cell.advance_to(t);
          if (quantum_ms) quanta[c].push_back(seconds_since(q0) * 1e3);
        }
        cell.finish();
        out[c] = cell.results();
        cell_time[c] = seconds_since(t0) * 1e3;
      });
  if (quantum_ms) {
    for (const auto& q : quanta) quantum_ms->insert(quantum_ms->end(), q.begin(), q.end());
  }
  if (cell_ms) *cell_ms = cell_time;
  return out;
}

// -- QoE ---------------------------------------------------------------------------

struct Qoe {
  std::vector<double> freeze;   // per session
  std::vector<double> delay_ms; // per displayed frame
  std::vector<double> goodput;  // per session, Mbps
  double psnr_sum = 0.0;
  std::int64_t psnr_n = 0;

  void add(const metrics::SessionMetrics& m, SimDuration freeze_threshold) {
    freeze.push_back(m.freeze_ratio(freeze_threshold));
    goodput.push_back(m.mean_throughput() / 1e6);
    for (const auto& f : m.frames()) {
      delay_ms.push_back(to_millis(f.delay));
      psnr_sum += f.roi_psnr_db;
      ++psnr_n;
    }
  }
  void merge(const Qoe& o) {
    freeze.insert(freeze.end(), o.freeze.begin(), o.freeze.end());
    delay_ms.insert(delay_ms.end(), o.delay_ms.begin(), o.delay_ms.end());
    goodput.insert(goodput.end(), o.goodput.begin(), o.goodput.end());
    psnr_sum += o.psnr_sum;
    psnr_n += o.psnr_n;
  }
};

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

void report_pct(RunResult& r, const std::string& name, Pct p, const std::string& unit) {
  r.add(name, p.value, unit);
  r.note(name + " = " + fmt("%.3f", p.value) + " " + unit + " (n=" +
         std::to_string(p.n) + (p.tail_ok ? ")" : ", TAIL UNRESOLVED: <10 samples beyond)"));
}

void report_qoe(RunResult& r, Qoe& q) {
  r.add("freeze_ratio", mean(q.freeze), "ratio");
  report_pct(r, "frame_delay_p50_ms", percentile(q.delay_ms, 0.50), "ms");
  report_pct(r, "frame_delay_p99_ms", percentile(q.delay_ms, 0.99), "ms");
  r.add("roi_psnr_db", q.psnr_n ? q.psnr_sum / static_cast<double>(q.psnr_n) : 0.0, "dB");
  r.add("goodput_mbps", mean(q.goodput), "Mbps");
  r.note("QoE over " + std::to_string(q.freeze.size()) + " sessions, " +
         std::to_string(q.psnr_n) + " displayed frames");
}

void check_session(RunResult& r, const metrics::SessionMetrics& m,
                   const core::SessionConfig& c, const std::string& what) {
  std::string why;
  if (!conserves(frame_counts(m, c.duration, frame_interval(c)), &why)) {
    r.fail(what + ": frame conservation: " + why);
  }
}

/// Samples the calibration kernel every kCalibrationPeriod on a thread
/// pinned to the CPU the constructing thread runs on, and pins that thread
/// there too, so the samples measure the vCPU the timed work runs on (a
/// sampler left free on another vCPU does not track it). The sampler takes
/// ~3% of that CPU. The affinity is restored on destruction.
class PinnedCalibrator {
 public:
  static constexpr auto kCalibrationPeriod = std::chrono::milliseconds(250);

  PinnedCalibrator() {
    sched_getaffinity(0, sizeof(saved_), &saved_);
    const int cpu = sched_getcpu();
    cpu_set_t one;
    CPU_ZERO(&one);
    if (cpu >= 0) CPU_SET(cpu, &one);
    pinned_ = cpu >= 0 && sched_setaffinity(0, sizeof(one), &one) == 0;
    sampler_ = std::thread([this, one] {
      if (pinned_) sched_setaffinity(0, sizeof(one), &one);
      std::unique_lock<std::mutex> lock(mu_);
      while (!cv_.wait_for(lock, kCalibrationPeriod, [this] { return stop_; })) {
        lock.unlock();
        const double rate = calibration_rate();
        const Clock::time_point at = Clock::now();
        lock.lock();
        samples_.emplace_back(at, rate);
      }
    });
  }
  ~PinnedCalibrator() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    sampler_.join();
    if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  PinnedCalibrator(const PinnedCalibrator&) = delete;
  PinnedCalibrator& operator=(const PinnedCalibrator&) = delete;

  /// Mean rate of the samples taken in [from - period, to]; a direct run on
  /// the calling thread when there is none yet.
  double mean_rate(Clock::time_point from, Clock::time_point to) {
    double sum = 0.0;
    int n = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& [at, rate] : samples_) {
        if (at >= from - kCalibrationPeriod && at <= to) {
          sum += rate;
          ++n;
        }
      }
    }
    return n > 0 ? sum / n : calibration_rate();
  }

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;  // guarded by mu_
  std::vector<std::pair<Clock::time_point, double>> samples_;  // guarded by mu_
  std::thread sampler_;  // last: uses the members above
};

/// Timed units of work with the host speed measured beside each. Reports
/// sim_s_per_wall_s: the median over units of (session-seconds ÷ wall
/// seconds) × kReferenceCalibrationRate ÷ (the unit's calibration rate).
/// The raw rates are printed too.
class UnitTimer {
 public:
  void add(double session_seconds, double wall_seconds, double calibration) {
    units_.push_back({session_seconds, wall_seconds, calibration});
  }
  void report(RunResult& r) const {
    std::vector<double> raw, normalized, cal;
    double session_seconds = 0.0, wall = 0.0;
    for (const Unit& u : units_) {
      const double rate = u.sim_s / std::max(u.wall_s, 1e-9);
      raw.push_back(rate);
      cal.push_back(u.cal);
      normalized.push_back(rate * kReferenceCalibrationRate / u.cal);
      session_seconds += u.sim_s;
      wall += u.wall_s;
    }
    const Pct p = percentile(normalized, 0.5);
    r.add("sim_s_per_wall_s", p.value, "sim_s/s");
    r.note(fmt("timed phase: %.1f session-s in %.3f s wall (raw aggregate %.1f sim_s/s); ",
               session_seconds, wall, session_seconds / std::max(wall, 1e-9)) +
           fmt("raw unit median %.1f sim_s/s, calibration median %.1f/s (reference %.0f/s); ",
               median(raw), median(cal), kReferenceCalibrationRate) +
           "reported: normalized median over n=" + std::to_string(p.n) + " units");
  }

 private:
  struct Unit {
    double sim_s;
    double wall_s;
    double cal;
  };
  std::vector<Unit> units_;
};

/// `rss_mb` is sampled when the timed phase ends, before the QoE passes
/// (mirror cells, companions) add harness memory of their own.
void finish_end_to_end(RunResult& r, double rss_mb) {
  r.add("peak_rss_mb", rss_mb, "MB");
  r.add("session_ok_ratio",
        r.attempted > 0
            ? static_cast<double>(r.attempted - std::min(r.attempted, r.failed)) /
                  static_cast<double>(r.attempted)
            : 0.0,
        "ratio");
}

// -- untraced workloads --------------------------------------------------------------

RunResult cellular_untraced(const RunOptions& o) {
  RunResult r;
  Qoe qoe;
  UnitTimer timer;
  std::uint64_t digest0 = 0;
  double group_seconds = 0.0;
  // Threads inherit the pinned affinity: released right after the loop.
  auto calibrator = std::make_unique<PinnedCalibrator>();
  const auto t0 = Clock::now();
  auto g0 = t0;
  for (int i = 0; i < kCellularQoeSessions || seconds_since(t0) < o.seconds; ++i) {
    const core::SessionConfig c = cellular_config(o.seed, i);
    ++r.attempted;
    try {
      core::Session s(c);
      s.run();
      group_seconds += to_seconds(c.duration);
      check_session(r, s.metrics(), c, "session " + std::to_string(i));
      if (i == 0) {
        // Same config and seed as `example_poi360_cli --seed <seed>`; the
        // line uses the CLI's summary format so the two can be compared.
        const metrics::SessionMetrics& m = s.metrics();
        const SampleSet d = m.frame_delays_ms();
        digest0 = frame_digest(m.frames());
        r.note("session 0 (seed " + std::to_string(c.seed) + ", FBCC): frames=" +
               std::to_string(m.displayed_frames()) +
               fmt(" psnr=%.1fdB freeze=%.1f%% thpt=%.2fMbps", m.mean_roi_psnr(),
                   m.freeze_ratio() * 100.0, m.mean_throughput() / 1e6) +
               fmt(" delay_p50=%.0fms p99=%.0fms", d.median(), d.percentile(0.99)));
      }
      if (i < kCellularQoeSessions) qoe.add(s.metrics(), c.freeze_threshold);
    } catch (const std::exception& e) {
      r.fail("session " + std::to_string(i) + " threw: " + e.what());
    }
    if ((i + 1) % kCellularGroup == 0) {  // a unit: FBCC/GCC-balanced group
      const auto g1 = Clock::now();
      timer.add(group_seconds, std::chrono::duration<double>(g1 - g0).count(),
                calibrator->mean_rate(g0, g1));
      group_seconds = 0.0;
      g0 = Clock::now();
    }
  }
  calibrator.reset();
  timer.report(r);
  const double rss_mb = peak_rss_mb();

  // Determinism: session 0 again, in-process, same seed.
  core::Session again(cellular_config(o.seed, 0));
  again.run();
  if (frame_digest(again.metrics().frames()) != digest0) {
    r.fail("session 0 re-run gave a different frame-record digest");
  }
  report_qoe(r, qoe);
  finish_end_to_end(r, rss_mb);
  return r;
}

RunResult fleet_untraced(const RunOptions& o) {
  RunResult r;
  UnitTimer timer;
  std::vector<std::vector<std::vector<serve::FleetSessionResult>>> qoe_units;
  const auto t0 = Clock::now();
  for (int u = 0; u < kFleetQoeUnits || seconds_since(t0) < o.seconds; ++u) {
    const serve::FleetConfig fc = fleet_config(o.seed, u);
    std::vector<double> calibration;
    const auto u0 = Clock::now();
    auto cells = run_fleet_unit(fc, kWorkers, nullptr, nullptr, &calibration);
    timer.add(to_seconds(fc.duration) * fc.cells * fc.sessions_per_cell, seconds_since(u0),
              mean(calibration));
    const std::int64_t captured =
        captured_frames(fc.duration, frame_interval(fc.session));
    for (const auto& rows : cells) {
      for (const auto& s : rows) {
        ++r.attempted;
        if (!s.ok) {
          r.fail("fleet session failed: " + s.error);
        } else if (s.displayed_frames <= 0 || s.displayed_frames > captured) {
          r.fail("fleet session displayed " + std::to_string(s.displayed_frames) +
                 " of " + std::to_string(captured) + " captured frames");
        }
      }
    }
    if (u < kFleetQoeUnits) qoe_units.push_back(std::move(cells));
  }
  timer.report(r);
  const double rss_mb = peak_rss_mb();

  // QoE of units 0..kFleetQoeUnits-1 from mirror cells, which must reproduce
  // FleetCell's per-session results exactly (also the same-seed re-run
  // check). Each mirror is folded and freed inside its task, so at most two
  // are alive at once.
  struct Job {
    std::uint64_t digest = 0;
    Qoe qoe;
    std::vector<std::string> failures;
  };
  std::vector<Job> jobs(static_cast<std::size_t>(kFleetQoeUnits * kFleetCells));
  const SimDuration threshold = fleet_config(o.seed, 0).session.freeze_threshold;
  runner::BatchRunner::parallel_for(kWorkers, jobs.size(), [&](std::size_t k) {
    MirrorCell mirror(fleet_config(o.seed, static_cast<int>(k) / kFleetCells),
                      static_cast<int>(k) % kFleetCells);
    mirror.run();
    jobs[k].digest = digest_of(mirror, threshold);
    for (const auto& s : mirror.sessions()) {
      std::string why;
      const core::SessionConfig& c = s->config();
      if (!conserves(frame_counts(s->metrics(), c.duration, frame_interval(c)), &why)) {
        jobs[k].failures.push_back("fleet mirror session: frame conservation: " + why);
      }
      jobs[k].qoe.add(s->metrics(), threshold);
    }
  });
  Qoe qoe;
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    const std::size_t unit = k / kFleetCells, cell = k % kFleetCells;
    if (jobs[k].digest != digest_of(qoe_units[unit][cell])) {
      r.fail("mirror of unit " + std::to_string(unit) + " cell " + std::to_string(cell) +
             " differs from FleetCell results");
    }
    for (const std::string& f : jobs[k].failures) r.fail(f);
    qoe.merge(jobs[k].qoe);
  }
  report_qoe(r, qoe);
  finish_end_to_end(r, rss_mb);
  return r;
}

RunResult soak_untraced(const RunOptions& o) {
  RunResult r;
  r.note("soak arrivals are open-loop Poisson in simulated time: generator lateness does not apply");
  UnitTimer timer;
  std::int64_t frozen = 0, frames = 0, psnr_n = 0;
  double psnr_sum = 0.0;
  // Threads inherit the pinned affinity: released before the companions.
  auto calibrator = std::make_unique<PinnedCalibrator>();
  const auto t0 = Clock::now();
  for (int u = 0; u < kSoakQoeUnits || seconds_since(t0) < o.seconds; ++u) {
    const serve::SoakConfig sc = soak_config(o.seed, u, sec(7200));
    const auto u0 = Clock::now();
    serve::SoakDriver driver(sc);
    const serve::SoakSummary s = driver.run();
    const auto u1 = Clock::now();
    const obs::Histogram* calls = driver.registry().find_histogram("serve.session.call_s");
    const double call_s = calls ? calls->sum() : 0.0;
    timer.add(call_s, std::chrono::duration<double>(u1 - u0).count(),
              calibrator->mean_rate(u0, u1));
    r.attempted += s.arrivals;
    const std::int64_t bad = s.failed + s.force_drained + s.rejected_admission +
                             s.rejected_pool_full;
    for (std::int64_t k = 0; k < bad; ++k) r.fail("soak arrival failed, drained or rejected");
    // Conservation against an upper bound of captured frames: every harvested
    // session's planned call length (plus its first frame).
    const auto captured = static_cast<std::int64_t>(
        call_s * sc.session.encoder.fps) + s.completed + s.failed + s.force_drained;
    std::string why;
    if (!conserves({captured, s.frames_displayed, s.frames_skipped, s.frames_abandoned},
                   &why)) {
      r.fail("soak frame conservation: " + why);
    }
    if (u < kSoakQoeUnits) {
      frozen += s.frames_frozen;
      frames += s.frames_displayed + s.frames_skipped + s.frames_abandoned;
      if (const obs::Histogram* p = driver.registry().find_histogram("serve.frame.roi_psnr_db")) {
        psnr_sum += p->sum();
        psnr_n += p->count();
      }
      r.note(fmt("soak unit %.0f: %.0f arrivals, peak %.0f concurrent, ", u, s.arrivals,
                 s.peak_concurrent) +
             fmt("mean delay %.1f ms, freeze %.4f", s.mean_frame_delay_ms, s.freeze_ratio));
    }
  }
  calibrator.reset();
  timer.report(r);
  const double rss_mb = peak_rss_mb();

  // QoE: freeze ratio and ROI PSNR are what the soaks' own summaries and
  // registries carry, pooled over units 0..kSoakQoeUnits-1. SoakSummary
  // carries neither frame-delay percentiles nor goodput: those come from
  // companion sessions built with soak unit 0's own per-arrival configs at
  // the mean call length. Companion 0 is also the same-seed re-run check.
  r.add("freeze_ratio", frames ? static_cast<double>(frozen) / static_cast<double>(frames) : 0.0,
        "ratio");
  r.add("roi_psnr_db", psnr_n ? psnr_sum / static_cast<double>(psnr_n) : 0.0, "dB");
  const serve::SoakConfig sc = soak_config(o.seed, 0, sec(7200));
  std::vector<Qoe> parts(kSoakCompanions);
  std::vector<char> conserved(kSoakCompanions, 1);
  std::uint64_t digest0 = 0;
  runner::BatchRunner::parallel_for(kWorkers, parts.size(), [&](std::size_t a) {
    const core::SessionConfig c = soak_session_config(sc, static_cast<int>(a));
    core::Session s(c);
    s.run();
    conserved[a] = conserves(frame_counts(s.metrics(), c.duration, frame_interval(c)));
    parts[a].add(s.metrics(), c.freeze_threshold);
    if (a == 0) digest0 = frame_digest(s.metrics().frames());
  });
  Qoe qoe;
  for (std::size_t a = 0; a < parts.size(); ++a) {
    if (!conserved[a]) r.fail("soak companion " + std::to_string(a) + ": frame conservation");
    qoe.merge(parts[a]);
  }
  core::Session again(soak_session_config(sc, 0));
  again.run();
  if (frame_digest(again.metrics().frames()) != digest0) {
    r.fail("soak companion 0 re-run gave a different frame-record digest");
  }
  report_pct(r, "frame_delay_p50_ms", percentile(qoe.delay_ms, 0.50), "ms");
  report_pct(r, "frame_delay_p99_ms", percentile(qoe.delay_ms, 0.99), "ms");
  r.add("goodput_mbps", mean(qoe.goodput), "Mbps");
  finish_end_to_end(r, rss_mb);
  return r;
}

// -- traced run (per-layer metrics) ------------------------------------------------------

/// The sessions one traced pass runs, as plain configs or one mirror cell.
struct Slice {
  std::vector<core::SessionConfig> configs;
  bool fleet = false;
  serve::FleetConfig fleet_config;
};

Slice make_slice(const RunOptions& o) {
  Slice s;
  if (o.workload == "session_cellular") {
    s.configs = {cellular_config(o.seed, 0), cellular_config(o.seed, 1)};
  } else if (o.workload == "fleet_cell") {
    s.fleet = true;
    s.fleet_config = fleet_config(o.seed, 0);
  } else {
    const serve::SoakConfig sc = soak_config(o.seed, 0, sec(7200));
    s.configs = {soak_session_config(sc, 0), soak_session_config(sc, 1)};
  }
  return s;
}

struct TracedSession {
  core::SessionConfig config;
  std::vector<obs::TraceEvent> events;
  std::uint64_t recorded = 0;
  std::uint64_t dropped = 0;
  std::vector<metrics::RateSample> rates;
  metrics::SessionMetrics metrics;
};

/// Runs the slice once; with `traced` every session records its trace and
/// rate samples. Returns host seconds.
double run_slice(const Slice& slice, bool traced, std::vector<TracedSession>* out) {
  // Default ring (65536 events) holds a 60 s session (~22k events); the
  // traced run reports obs.trace_dropped so an overflow cannot go unseen.
  constexpr std::size_t kCapacity = obs::TraceConfig{}.capacity;
  const auto t0 = Clock::now();
  auto harvest = [&](core::Session& s, std::vector<metrics::RateSample>& rates) {
    if (!out) return;
    TracedSession t;
    t.config = s.config();
    if (const obs::TraceRecorder* tr = s.trace()) {
      t.events = tr->snapshot();
      t.recorded = tr->recorded();
      t.dropped = tr->dropped();
    }
    t.rates = std::move(rates);
    t.metrics = s.metrics();
    out->push_back(std::move(t));
  };
  if (slice.fleet) {
    serve::FleetConfig fc = slice.fleet_config;
    fc.session.trace.enabled = traced;
    fc.session.trace.capacity = kCapacity;
    MirrorCell cell(fc, 0);
    std::vector<std::vector<metrics::RateSample>> rates(cell.sessions().size());
    if (traced) {
      for (std::size_t i = 0; i < rates.size(); ++i) {
        cell.sessions()[i]->set_trace_hook(
            [&rates, i](const metrics::RateSample& s) { rates[i].push_back(s); });
      }
    }
    cell.run();
    const double host = seconds_since(t0);
    for (std::size_t i = 0; i < rates.size(); ++i) harvest(*cell.sessions()[i], rates[i]);
    return host;
  }
  double host = 0.0;
  for (core::SessionConfig c : slice.configs) {
    c.trace.enabled = traced;
    c.trace.capacity = kCapacity;
    std::vector<metrics::RateSample> rates;
    const auto s0 = Clock::now();
    core::Session s(c);
    if (traced) s.set_trace_hook([&rates](const metrics::RateSample& x) { rates.push_back(x); });
    s.run();
    host += seconds_since(s0);
    harvest(s, rates);
  }
  return host;
}

/// Host ms per 100 ms serving quantum: FleetCell::advance_to on fleet_cell,
/// Session::advance_until of one slice session elsewhere.
std::vector<double> quantum_times(const Slice& slice) {
  std::vector<double> q;
  if (slice.fleet) {
    serve::FleetConfig fc = slice.fleet_config;
    fc.cells = 1;
    run_fleet_unit(fc, 1, &q);
    return q;
  }
  core::Session s(slice.configs.front());
  s.start();
  for (SimTime t = 0; t < slice.configs.front().duration;) {
    t = std::min<SimTime>(t + msec(100), slice.configs.front().duration);
    const auto q0 = Clock::now();
    s.advance_until(t);
    q.push_back(seconds_since(q0) * 1e3);
  }
  s.finish();
  return q;
}

/// Host ms to build and start the workload's serving unit.
double unit_setup_ms(const RunOptions& o, const Slice& slice) {
  const auto t0 = Clock::now();
  if (slice.fleet) {
    serve::FleetCell cell(slice.fleet_config, 0);
    cell.start();
  } else if (o.workload == "soak_churn") {
    serve::SoakDriver driver(soak_config(o.seed, 0, sec(7200)));
  } else {
    core::Session s(slice.configs.front());
    s.start();
  }
  return seconds_since(t0) * 1e3;
}

/// Σ serial per-unit host time ÷ wall time of the same units on 2 workers.
double shard_speedup(const RunOptions& o, const Slice& slice) {
  std::function<void(std::size_t)> unit;
  const std::size_t count = 2;
  if (slice.fleet) {
    serve::FleetConfig fc = slice.fleet_config;
    fc.cells = 2;
    std::vector<double> cell_ms;
    run_fleet_unit(fc, 1, nullptr, &cell_ms);
    const double serial = cell_ms[0] + cell_ms[1];
    const auto t0 = Clock::now();
    run_fleet_unit(fc, kWorkers);
    return serial / (seconds_since(t0) * 1e3);
  }
  if (o.workload == "soak_churn") {
    unit = [&](std::size_t k) {
      serve::SoakDriver d(soak_config(o.seed, static_cast<int>(k), sec(600)));
      d.run();
    };
  } else {
    unit = [&](std::size_t k) {
      core::Session s(slice.configs[k % slice.configs.size()]);
      s.run();
    };
  }
  double serial = 0.0;
  for (std::size_t k = 0; k < count; ++k) {
    const auto t0 = Clock::now();
    unit(k);
    serial += seconds_since(t0);
  }
  const auto t0 = Clock::now();
  runner::BatchRunner::parallel_for(kWorkers, count, unit);
  return serial / seconds_since(t0);
}

struct LayerTimes {
  double sim = 0, lte = 0, share = 0, pacer = 0, receiver = 0, gcc = 0, fbcc = 0,
         encode = 0, psnr = 0;
  double total() const {
    return sim + lte + share + pacer + receiver + gcc + fbcc + encode + psnr;
  }
};

RunResult traced(const RunOptions& o) {
  RunResult r;
  const Slice slice = make_slice(o);

  // Pass 0: the traced slice gives the ledger and the replay inputs.
  std::vector<TracedSession> sessions;
  run_slice(slice, true, &sessions);
  Ledger ledger;
  std::vector<ReplayInputs> inputs;
  std::uint64_t recorded = 0, dropped = 0;
  double sim_seconds = 0.0;
  std::vector<double> fw_kb;
  std::int64_t rate_samples = 0, fbcc_samples = 0, congested = 0, degraded = 0;
  std::int64_t displayed = 0, mismatched = 0;
  double mode_sum = 0.0;
  for (TracedSession& s : sessions) {
    ++r.attempted;
    check_session(r, s.metrics, s.config, "traced slice session");
    Ledger one;
    const std::vector<FrameStamps> frames = fold_frames(s.events, one);
    build_ledger(frames, one);
    merge_into(ledger, one);
    inputs.push_back(record_replay_inputs(frames, s.rates, s.config.duration));
    recorded += s.recorded;
    dropped += s.dropped;
    sim_seconds += to_seconds(s.config.duration);
    const bool fbcc = s.config.rate_control == core::RateControl::kFbcc;
    for (const auto& x : s.rates) {
      fw_kb.push_back(static_cast<double>(x.fw_buffer_bytes) / 1e3);
      ++rate_samples;
      if (fbcc) {
        ++fbcc_samples;
        congested += x.congested ? 1 : 0;
        degraded += x.fbcc_degraded ? 1 : 0;
      }
    }
    for (const auto& f : s.metrics.frames()) {
      ++displayed;
      mismatched += f.roi_mismatch ? 1 : 0;
      mode_sum += f.mode_id;
    }
  }
  if (dropped > 0) {
    r.note("DELAY LEDGER INCOMPLETE: the trace ring dropped " + std::to_string(dropped) +
           " events");
  }
  if (ledger.sum_mismatch > 0) {
    r.fail(std::to_string(ledger.sum_mismatch) +
           " frames whose ledger segments do not sum to capture->display");
  }
  if (ledger.ledgered == 0) r.fail("no frame could be ledgered");

  // Timed passes: replays, slice timings, serve/runner probes. Medians over
  // as many passes as fit in the run.
  std::vector<double> v_sim_ms, v_sim_ns, v_lte_ms, v_share_ns, v_pacer_ns, v_rx_ns,
      v_gcc_ns, v_fbcc_ns, v_enc_ns, v_psnr_ns, v_overhead, v_unattr, v_setup_ms,
      v_cell_ms, v_speedup, quanta;
  std::vector<double> layer_share[9];
  const std::vector<const ReplayInputs*> input_ptrs = [&] {
    std::vector<const ReplayInputs*> p;
    for (const auto& in : inputs) p.push_back(&in);
    return p;
  }();
  const int ues = slice.fleet ? slice.fleet_config.sessions_per_cell : 1;
  const int extra = slice.fleet ? slice.fleet_config.voice.count + slice.fleet_config.ftp.count : 0;
  const auto t0 = Clock::now();
  int passes = 0;
  for (; passes < 1 || seconds_since(t0) < o.seconds; ++passes) {
    const double traced_host = run_slice(slice, true, nullptr);
    const double untraced_host = run_slice(slice, false, nullptr);
    v_overhead.push_back(traced_host / untraced_host);

    LayerTimes lt;
    ReplayCost sim_all, lte_all, pacer_all, rx_all, gcc_all, fbcc_all, enc_all, psnr_all;
    for (std::size_t k = 0; k < sessions.size(); ++k) {
      const core::SessionConfig& c = sessions[k].config;
      const ReplayInputs& in = inputs[k];
      auto acc = [](ReplayCost& a, const ReplayCost& b) {
        a.host_ns += b.host_ns;
        a.work += b.work;
        a.events += b.events;
      };
      acc(sim_all, replay_sim(c, in));
      acc(lte_all, replay_lte(c, in));
      acc(pacer_all, replay_pacer(c, in));
      acc(rx_all, replay_receiver(c, in));
      // Feedback rides the frame clock; diag reports the diag period.
      const std::int64_t feedbacks = in.duration / frame_interval(c);
      const std::int64_t diags = in.duration / c.uplink.diag_interval;
      const ReplayCost g = replay_gcc(c, in, feedbacks);
      gcc_all.host_ns += g.host_ns / static_cast<double>(g.work) * static_cast<double>(feedbacks);
      gcc_all.work += feedbacks;
      if (c.rate_control == core::RateControl::kFbcc) {
        const ReplayCost f = replay_fbcc(c, in, diags);
        fbcc_all.host_ns += f.host_ns / static_cast<double>(f.work) * static_cast<double>(diags);
        fbcc_all.work += diags;
      }
      const VideoCost v = replay_video(c, in);
      acc(enc_all, v.encode);
      acc(psnr_all, v.psnr);
    }
    const ReplayCost share = replay_share(input_ptrs, ues, extra);
    const double per_event = sim_all.host_ns / static_cast<double>(std::max<std::int64_t>(1, sim_all.events));
    v_sim_ms.push_back(sim_all.host_ns / 1e6 / sim_seconds);
    v_sim_ns.push_back(per_event);
    v_lte_ms.push_back(lte_all.host_ns / 1e6 / sim_seconds);
    v_share_ns.push_back(share.host_ns / static_cast<double>(std::max<std::int64_t>(1, share.work)));
    v_pacer_ns.push_back(pacer_all.host_ns / static_cast<double>(std::max<std::int64_t>(1, pacer_all.work)));
    v_rx_ns.push_back(rx_all.host_ns / static_cast<double>(std::max<std::int64_t>(1, rx_all.work)));
    v_gcc_ns.push_back(gcc_all.host_ns / static_cast<double>(std::max<std::int64_t>(1, gcc_all.work)));
    v_fbcc_ns.push_back(fbcc_all.work ? fbcc_all.host_ns / static_cast<double>(fbcc_all.work) : 0.0);
    v_enc_ns.push_back(enc_all.host_ns / static_cast<double>(std::max<std::int64_t>(1, enc_all.work)));
    v_psnr_ns.push_back(psnr_all.host_ns / static_cast<double>(std::max<std::int64_t>(1, psnr_all.work)));

    // Layer self time: each replay minus the simulator dispatch it contains
    // (the sim replay accounts for dispatch once).
    auto self = [&](const ReplayCost& c) {
      return std::max(0.0, c.host_ns - static_cast<double>(c.events) * per_event);
    };
    lt.sim = sim_all.host_ns;
    lt.lte = self(lte_all);
    lt.share = slice.fleet ? share.host_ns : 0.0;
    lt.pacer = self(pacer_all);
    lt.receiver = rx_all.host_ns;
    lt.gcc = gcc_all.host_ns;
    lt.fbcc = fbcc_all.host_ns;
    lt.encode = enc_all.host_ns;
    lt.psnr = psnr_all.host_ns;
    const double measured = untraced_host * 1e9;
    v_unattr.push_back(1.0 - lt.total() / measured);
    const double parts[9] = {lt.sim, lt.lte, lt.share, lt.pacer, lt.receiver,
                             lt.gcc, lt.fbcc, lt.encode, lt.psnr};
    for (int i = 0; i < 9; ++i) layer_share[i].push_back(parts[i] / measured);

    for (int k = 0; k < 5; ++k) {
      const auto s0 = Clock::now();
      core::Session s(slice.fleet ? core::presets::cellular_static() : slice.configs.front());
      s.start();
      v_setup_ms.push_back(seconds_since(s0) * 1e3);
    }
    v_cell_ms.push_back(unit_setup_ms(o, slice));
    const std::vector<double> q = quantum_times(slice);
    quanta.insert(quanta.end(), q.begin(), q.end());
    v_speedup.push_back(shard_speedup(o, slice));
  }
  r.note("traced passes: " + std::to_string(passes));

  r.add("sim.host_ms_per_sim_s", median(v_sim_ms), "ms/sim_s");
  r.add("sim.ns_per_event", median(v_sim_ns), "ns");
  r.add("lte.host_ms_per_sim_s", median(v_lte_ms), "ms/sim_s");
  std::int64_t subframes = 0;
  for (std::size_t k = 0; k < sessions.size(); ++k) {
    subframes += inputs[k].duration / sessions[k].config.uplink.subframe;
  }
  r.add("lte.subframes_per_sim_s", static_cast<double>(subframes) / sim_seconds, "1/sim_s");
  r.add("lte.share_ns", median(v_share_ns), "ns");
  report_pct(r, "lte.fw_buffer_kb.p50", percentile(fw_kb, 0.50), "kB");
  report_pct(r, "lte.fw_buffer_kb.p99", percentile(fw_kb, 0.99), "kB");

  for (int s = 0; s < kSegmentCount; ++s) {
    const std::string name = std::string("frame.") + kSegments[s] + "_ms";
    report_pct(r, name + ".p50", percentile(ledger.segment_ms[s], 0.50), "ms");
    if (s == 0) continue;  // the encode segment is a fixed pipeline latency
    report_pct(r, name + ".p99", percentile(ledger.segment_ms[s], 0.99), "ms");
  }
  r.add("frame.ledger_frames", static_cast<double>(ledger.ledgered), "count");
  r.add("frame.ledger_incomplete", static_cast<double>(ledger.incomplete), "count");
  r.add("frame.retransmitted", static_cast<double>(ledger.retransmitted), "count");
  r.add("frame.abandoned", static_cast<double>(ledger.abandoned), "count");

  r.add("rtp.receiver_ns_per_packet", median(v_rx_ns), "ns");
  r.add("rtp.pacer_ns_per_tick", median(v_pacer_ns), "ns");
  r.add("rtp.packets_per_sim_s",
        static_cast<double>(ledger.packets + ledger.nacked_seqs) / sim_seconds, "1/sim_s");
  r.add("rtp.nacks_per_sim_s", static_cast<double>(ledger.nacked_seqs) / sim_seconds, "1/sim_s");
  r.add("rtp.abandoned_ratio",
        ledger.captured ? static_cast<double>(ledger.abandoned) / static_cast<double>(ledger.captured) : 0.0,
        "ratio");

  r.add("gcc.ns_per_feedback", median(v_gcc_ns), "ns");
  r.add("core.fbcc_ns_per_diag", median(v_fbcc_ns), "ns");
  r.add("core.congested_fraction",
        fbcc_samples ? static_cast<double>(congested) / static_cast<double>(fbcc_samples) : 0.0, "ratio");
  r.add("core.degraded_fraction",
        fbcc_samples ? static_cast<double>(degraded) / static_cast<double>(fbcc_samples) : 0.0, "ratio");
  r.add("core.mode_mean", displayed ? mode_sum / static_cast<double>(displayed) : 0.0, "mode");
  r.add("core.session_setup_ms", median(v_setup_ms), "ms");
  r.add("core.unattributed_share", median(v_unattr), "ratio");

  std::int64_t encoded = 0;
  for (const auto& in : inputs) encoded += static_cast<std::int64_t>(in.frames.size());
  r.add("video.encode_ns", median(v_enc_ns), "ns");
  r.add("video.roi_psnr_ns", median(v_psnr_ns), "ns");
  r.add("video.frames_encoded_per_sim_s", static_cast<double>(encoded) / sim_seconds, "1/sim_s");
  r.add("video.roi_mismatch_ratio",
        displayed ? static_cast<double>(mismatched) / static_cast<double>(displayed) : 0.0, "ratio");

  report_pct(r, "serve.quantum_host_ms.p50", percentile(quanta, 0.50), "ms");
  report_pct(r, "serve.quantum_host_ms.p99", percentile(quanta, 0.99), "ms");
  r.add("serve.cell_setup_ms", median(v_cell_ms), "ms");
  double peak = 1, nudges = 0, entries = 0;
  if (slice.fleet) {
    peak = slice.fleet_config.cells * slice.fleet_config.sessions_per_cell;
  } else if (o.workload == "soak_churn") {
    serve::SoakDriver d(soak_config(o.seed, 0, sec(7200)));
    const serve::SoakSummary s = d.run();
    peak = s.peak_concurrent;
    nudges = static_cast<double>(s.degrade_nudges);
    entries = static_cast<double>(s.registry_entries_end);
  }
  r.add("serve.peak_concurrent", peak, "count");
  r.add("serve.degrade_nudges", nudges, "count");
  r.add("serve.registry_entries_end", entries, "count");
  r.add("runner.shard_speedup", median(v_speedup), "x");

  r.add("obs.trace_overhead_ratio", median(v_overhead), "x");
  r.add("obs.trace_events_per_sim_s", static_cast<double>(recorded) / sim_seconds, "1/sim_s");
  r.add("obs.trace_dropped", static_cast<double>(dropped), "count");

  static const char* kLayer[9] = {"sim", "lte", "lte.share", "rtp.pacer", "rtp.receiver",
                                  "gcc", "core.fbcc", "video.encode", "video.psnr"};
  std::string shares = "replayed share of untraced slice host time:";
  for (int i = 0; i < 9; ++i) {
    shares += std::string(" ") + kLayer[i] + "=" + fmt("%.3f", median(layer_share[i]));
  }
  r.note(shares);
  r.note("ledger: " + std::to_string(ledger.displayed) + " displayed, " +
         std::to_string(ledger.ledgered) + " ledgered, " + std::to_string(ledger.retransmitted) +
         " retransmitted, " + std::to_string(ledger.abandoned) + " abandoned, " +
         std::to_string(ledger.pacer_dropped) + " purged by the sender, " +
         std::to_string(ledger.skipped) + " skipped");
  return r;
}

}  // namespace

bool known_workload(const std::string& name) {
  return name == "session_cellular" || name == "fleet_cell" || name == "soak_churn";
}

RunResult run_workload(const RunOptions& o) {
  if (o.trace) return traced(o);
  if (o.workload == "session_cellular") return cellular_untraced(o);
  if (o.workload == "fleet_cell") return fleet_untraced(o);
  return soak_untraced(o);
}

std::int64_t setup_probe(const std::string& workload, std::uint64_t seed) {
  if (workload == "session_cellular") {
    core::Session s(cellular_config(seed, 0));
    s.start();
    s.advance_until(msec(1));
    return monotonic_ns();
  }
  if (workload == "fleet_cell") {
    serve::FleetCell cell(fleet_config(seed, 0), 0);
    cell.start();
    cell.advance_to(msec(1));
    return monotonic_ns();
  }
  const serve::SoakConfig sc = soak_config(seed, 0, sec(7200));
  serve::SoakDriver driver(sc);
  serve::ManagedSession ms;
  serve::ManagedSession::Config mc;
  mc.id = 0;
  mc.session = soak_session_config(sc, 0);
  mc.planned_duration = mc.session.duration;
  ms.admit(mc, 0);
  ms.activate(0);
  ms.advance_until(msec(1));
  return monotonic_ns();
}

}  // namespace e2ebench
