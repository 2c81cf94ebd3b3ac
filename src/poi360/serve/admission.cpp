#include "poi360/serve/admission.h"

namespace poi360::serve {

AdmissionController::AdmissionController(Config config, std::uint64_t seed)
    : config_(config), cell_(config.cell, seed) {}

Bitrate AdmissionController::headroom(SimTime now) {
  if (shared_cell_) {
    // The live registration already accounts for every admitted session's
    // demand (their uplinks report backlog each grant), so the marginal
    // share prices the arrival directly — no static reservation to subtract.
    return config_.cell_capacity * shared_cell_->prospective_share(now) *
           config_.headroom_fraction;
  }
  const double share = cell_.foreground_share(now);
  return config_.cell_capacity * share * config_.headroom_fraction -
         admitted_demand_;
}

AdmissionController::Decision AdmissionController::decide(SimTime now,
                                                          Bitrate demand) {
  if (demand <= headroom(now)) {
    ++accepted_;
    return Decision::kAccept;
  }
  if (config_.policy == Policy::kDegrade) {
    ++degrade_admissions_;
    return Decision::kDegradeAccept;
  }
  ++rejected_;
  return Decision::kReject;
}

const char* to_string(AdmissionController::Policy policy) {
  switch (policy) {
    case AdmissionController::Policy::kReject:
      return "reject";
    case AdmissionController::Policy::kDegrade:
      return "degrade";
  }
  return "?";
}

const char* to_string(AdmissionController::Decision decision) {
  switch (decision) {
    case AdmissionController::Decision::kAccept:
      return "accept";
    case AdmissionController::Decision::kDegradeAccept:
      return "degrade-accept";
    case AdmissionController::Decision::kReject:
      return "reject";
  }
  return "?";
}

}  // namespace poi360::serve
