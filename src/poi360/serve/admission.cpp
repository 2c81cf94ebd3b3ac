#include "poi360/serve/admission.h"

namespace poi360::serve {

AdmissionController::AdmissionController(Config config, std::uint64_t seed)
    : config_(config), cell_(lte::SharedCell::Config{config.cell}, seed) {}

Bitrate AdmissionController::headroom(SimTime now) {
  const double share = cell_.prospective_share(now);
  cell_.trim(now);
  return config_.cell_capacity * share * config_.headroom_fraction -
         admitted_demand_;
}

AdmissionController::Decision AdmissionController::decide(SimTime now,
                                                          Bitrate demand) {
  if (demand <= headroom(now)) return Decision::kAccept;
  if (config_.policy == Policy::kDegrade) return Decision::kDegradeAccept;
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

}  // namespace poi360::serve
