#include "poi360/search/bisection.h"

#include <utility>

#include "poi360/common/table.h"

namespace poi360::search {

QoeOutcome BisectionSearch::probe(Evaluator& evaluator, std::int64_t x) {
  return evaluator.evaluate({axis_.spec_at(x)}, axis_.rate_control)[0];
}

std::vector<Cliff> BisectionSearch::run(Evaluator& evaluator, int budget,
                                        std::string& log) {
  std::int64_t lo = axis_.lo;
  std::int64_t hi = axis_.hi;
  int spent = 0;
  const auto note_probe = [&](std::int64_t x, bool tripped) {
    log += name() + ": probe " + std::to_string(x) + " " + axis_.unit +
           (tripped ? " TRIP" : " ok") + "\n";
  };

  if (budget < 2) {
    log += name() + ": budget too small, skipped\n";
    return {};
  }

  QoeOutcome hi_outcome = probe(evaluator, hi);
  ++spent;
  if (!axis_.trips(hi_outcome)) {
    note_probe(hi, false);
    log += name() + ": no cliff within [" + std::to_string(lo) + ", " +
           std::to_string(hi) + "] " + axis_.unit + "\n";
    return {};
  }
  note_probe(hi, true);

  QoeOutcome lo_outcome = probe(evaluator, lo);
  ++spent;
  if (axis_.trips(lo_outcome)) {
    note_probe(lo, true);
    hi = lo;
    hi_outcome = lo_outcome;
  } else {
    note_probe(lo, false);
    // Invariant: !trips(lo), trips(hi). Shrink until adjacent.
    while (hi - lo > 1 && spent < budget) {
      const std::int64_t mid = lo + (hi - lo) / 2;
      const QoeOutcome mid_outcome = probe(evaluator, mid);
      ++spent;
      if (axis_.trips(mid_outcome)) {
        note_probe(mid, true);
        hi = mid;
        hi_outcome = mid_outcome;
      } else {
        note_probe(mid, false);
        lo = mid;
      }
    }
  }

  const bool exact = (hi == axis_.lo) || (hi - lo == 1);
  Cliff cliff;
  cliff.name = "bisect_" + axis_.name;
  cliff.kind = "bisection";
  cliff.spec = axis_.spec_at(hi);
  cliff.rate_control = axis_.rate_control;
  cliff.outcome = hi_outcome;
  cliff.note = (exact ? "minimal " : "budget-bracketed ") + axis_.name +
               " = " + std::to_string(hi) + " " + axis_.unit + ": " +
               axis_.describe(hi_outcome);
  log += name() + ": " + cliff.note + "\n";
  return {cliff};
}

BisectionAxis burst_dwell_axis(std::uint64_t seed, double duration_s,
                               double freeze_threshold) {
  BisectionAxis axis;
  axis.name = "burst_dwell";
  axis.unit = "pkts";
  axis.lo = 1;
  axis.hi = 64;
  axis.rate_control = core::RateControl::kFbcc;
  axis.spec_at = [seed, duration_s](std::int64_t dwell) {
    ChaosSpec spec;
    spec.seed = seed;
    spec.duration_s = duration_s;
    // Fade arrivals fixed (~1.5% of packets start a fade), 90% loss while
    // faded; the knob is the mean fade length in packets.
    spec.media.ge_p_good_bad = 0.015;
    spec.media.ge_p_bad_good = 1.0 / static_cast<double>(dwell);
    spec.media.ge_loss_bad = 0.9;
    return spec;
  };
  axis.trips = [freeze_threshold](const QoeOutcome& o) {
    return o.freeze_ratio >= freeze_threshold;
  };
  axis.describe = [freeze_threshold](const QoeOutcome& o) {
    return "freeze_ratio " + fmt(o.freeze_ratio, 4) + " >= " +
           fmt(freeze_threshold, 2);
  };
  return axis;
}

BisectionAxis feedback_blackout_axis(std::uint64_t seed, double duration_s) {
  BisectionAxis axis;
  axis.name = "feedback_blackout";
  axis.unit = "ms";
  axis.lo = 100;
  axis.hi = 2000;
  axis.rate_control = core::RateControl::kFbcc;
  axis.spec_at = [seed, duration_s](std::int64_t span_ms) {
    ChaosSpec spec;
    spec.seed = seed;
    spec.duration_s = duration_s;
    // The min-duration floor pins the span: max(span, exp(mean 1 ms)) is
    // the knob value except with vanishing probability, so the axis
    // bisects a deterministic blackout length, not an exponential tail.
    // 12 windows/min keeps several windows inside even a 10–20 s probe.
    spec.feedback.blackout_per_min = 12.0;
    spec.feedback.blackout_min_duration = msec(span_ms);
    spec.feedback.blackout_mean_duration = msec(1);
    return spec;
  };
  axis.trips = [](const QoeOutcome& o) {
    return o.feedback_stale_episodes >= 1;
  };
  axis.describe = [](const QoeOutcome& o) {
    return "feedback watchdog fired " +
           std::to_string(o.feedback_stale_episodes) + "x";
  };
  return axis;
}

}  // namespace poi360::search
