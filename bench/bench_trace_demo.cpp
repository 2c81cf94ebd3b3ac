// Observability demo: records one FBCC and one GCC session under
// Gilbert–Elliott burst loss on the media path and writes each run's
// frame-lifecycle + control-decision trace as Chrome trace_event JSON.
//
// Open the emitted files in https://ui.perfetto.dev (or chrome://tracing):
// the "frame" track shows the capture -> encode -> pace -> phy -> assemble
// -> display chain per frame id; "control" carries the FBCC J flips (with
// their B / Gamma / R_phy inputs) and mode-index changes; "recovery" the
// NACK/PLI actions; "chaos.media" the injected burst-state flips.
//
// Files land in --trace-dir when given, else ./trace_demo.

#include <cstdio>
#include <filesystem>
#include <string>
#include <string_view>

#include "poi360/core/session.h"
#include "poi360/obs/trace_export.h"
#include "util/experiment.h"

using namespace poi360;

int main(int argc, char** argv) {
  bench::init(argc, argv);
  const std::string dir =
      bench::trace_dir().empty() ? std::string("trace_demo")
                                 : bench::trace_dir();
  std::filesystem::create_directories(dir);

  std::printf("=== Trace demo: FBCC vs GCC under burst loss ===\n");
  for (auto rc : {core::RateControl::kFbcc, core::RateControl::kGcc}) {
    core::SessionConfig config = bench::transport_config(rc, sec(30));
    config.seed = 7;
    // Radio fades: ~2% of packets open a bad state that drops half the
    // packets inside it and lasts ~4 packets — enough NACK/PLI traffic to
    // populate the recovery track without starving the session.
    config.media_chaos.ge_p_good_bad = 0.02;
    config.media_chaos.ge_p_bad_good = 0.25;
    config.media_chaos.ge_loss_bad = 0.5;
    config.trace.enabled = true;

    core::Session session(config);
    session.run();

    const obs::TraceRecorder& trace = *session.trace();
    const std::string label = core::to_string(rc);
    const std::string path = dir + "/demo_" + label + ".trace.json";
    obs::write_trace(path, trace, "trace_demo " + label);

    std::int64_t j_flips = 0, mode_changes = 0, bursts = 0, displays = 0,
                 nacks = 0;
    for (const obs::TraceEvent& e : trace.snapshot()) {
      const std::string_view name = e.name;
      if (name == "fbcc.J") ++j_flips;
      if (name == "mode") ++mode_changes;
      if (name == "burst") ++bursts;
      if (name == "display") ++displays;
      if (name == "rtp.nack") ++nacks;
    }
    std::printf(
        "%-5s events=%llu dropped=%llu | displays=%lld J_flips=%lld "
        "mode_changes=%lld burst_flips=%lld nack_batches=%lld\n",
        label.c_str(), static_cast<unsigned long long>(trace.recorded()),
        static_cast<unsigned long long>(trace.dropped()),
        static_cast<long long>(displays), static_cast<long long>(j_flips),
        static_cast<long long>(mode_changes), static_cast<long long>(bursts),
        static_cast<long long>(nacks));
    std::printf("      wrote %s\n", path.c_str());
  }
  return 0;
}
