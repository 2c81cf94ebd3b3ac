# Helper for the perf_gate ctest target: run bench_micro_perf with JSON
# output, then compare against the committed baseline with check_perf.py.
# Variables: BENCH_BIN, CHECK_PY, BASELINE, PYTHON, OUT_JSON.

execute_process(
  COMMAND ${BENCH_BIN} --benchmark_min_time=0.5 --out-json ${OUT_JSON}
  RESULT_VARIABLE bench_rc)
if(NOT bench_rc EQUAL 0)
  message(FATAL_ERROR "bench_micro_perf failed (rc=${bench_rc})")
endif()

# Absolute ceilings (ns) for the tracing hot path: the disabled state is a
# null-pointer test and must stay branch-cheap; the enabled state must stay
# allocation-free once the recorder holds its bound. Generous bounds — they
# catch a reintroduced allocation or lock, not scheduler jitter. Same idea
# for the fleet hot paths: SharedCell::share is the per-subframe scheduling
# query every fleet-attached session pays (a snapshot read plus a timeline
# lookup, no allocation), and BM_FleetSessionStep bounds the steady-state
# cost of advancing one 4-session cell a 100 ms quantum.
# Encoder-path ceilings guard the structure-of-arrays rewrite: ROI-PSNR
# runs on the frozen MSE-factor sidecar (~45 ns vs ~420 ns for the
# pre-kernel per-tile pow loop, so 4x slack still fails the old path), and
# the cold ROI-PSNR bounds the one-off sidecar freeze per (matrix, model).
# Telemetry-plane ceilings: the labeled-counter lookup is the uncached
# registry probe (canonical key build + map find) and must stay well under
# a microsecond at fleet cardinality; the trace-sample decision is one
# SplitMix64 mix on the admission path and must stay branch-cheap.
# The RNG normal is a polar draw that keeps its spare deviate (~30 ns), and
# one simulated second of a saturated uplink runs 250 grants (~45 us).
# The raw engine draw is a tempering step plus an amortized branch-free
# block refill (~4 ns; the standard engine's conditional refill is ~10).
# RTP bookkeeping stays allocation-free: a sent-packet insert overwrites
# one ring slot (~5 ns), and an 8-fragment frame reuses a pooled assembly
# (~215 ns); a per-packet allocation or a scan of the finished-frame
# history would break these ceilings.
# A FIFO lane hands 1000 queued 72-byte payloads to its consumer in ~50 us
# on a 4-vCPU host where the same deliveries as heap one-shots take
# ~105 us; a callback built or a heap sift per item would break its
# ceiling.
execute_process(
  COMMAND ${PYTHON} ${CHECK_PY} --baseline ${BASELINE} --current ${OUT_JSON}
          --max-ns BM_TraceSpanDisabled=25
          --max-ns BM_TraceSpanEnabled=600
          --max-ns BM_SharedCellShare=300
          --max-ns BM_FleetSessionStep=500000
          --max-ns BM_RoiRegionPsnr=180
          --max-ns BM_RoiRegionPsnrWarm=180
          --max-ns BM_RoiRegionPsnrCold=16000
          --max-ns BM_LabeledCounterLookup=1200
          --max-ns BM_TraceSampleDecision=25
          --max-ns BM_RngNormal=55
          --max-ns BM_LteUplinkSecond=150000
          --max-ns BM_RngEngineDraw=7
          --max-ns BM_SentPacketCacheInsert=30
          --max-ns BM_ReceiverFrame=450
          --max-ns BM_SimulatorLaneEvents=75000
  RESULT_VARIABLE gate_rc)
if(NOT gate_rc EQUAL 0)
  message(FATAL_ERROR "perf gate failed (rc=${gate_rc})")
endif()
