# Helper for the sanitizer-gate ctest targets (asan_gate, tsan_gate): build
# the given test binaries under the given sanitizer in a nested build
# directory and run them. The directory persists between invocations, so
# after the first configure each gate is an incremental rebuild.
# Variables: SRC_DIR, GATE_DIR, SANITIZE (address|thread, default address),
# BINS (space-separated binary names, default rtp + chaos), RUN_ARGS
# (optional space-separated arguments appended to every binary invocation,
# e.g. a --gtest_filter that keeps a soak suite short under the sanitizer).

if(NOT SANITIZE)
  set(SANITIZE address)
endif()
if(NOT BINS)
  set(BINS "poi360_rtp_tests poi360_chaos_tests")
endif()
separate_arguments(bins_list UNIX_COMMAND "${BINS}")
separate_arguments(run_args_list UNIX_COMMAND "${RUN_ARGS}")

if(NOT EXISTS ${GATE_DIR}/CMakeCache.txt)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -S ${SRC_DIR} -B ${GATE_DIR}
      -DPOI360_SANITIZE=${SANITIZE} -DCMAKE_BUILD_TYPE=RelWithDebInfo
    RESULT_VARIABLE config_rc)
  if(NOT config_rc EQUAL 0)
    message(FATAL_ERROR
            "${SANITIZE} gate configure failed (rc=${config_rc})")
  endif()
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} --build ${GATE_DIR} -j 2 --target ${bins_list}
  RESULT_VARIABLE build_rc)
if(NOT build_rc EQUAL 0)
  message(FATAL_ERROR "${SANITIZE} gate build failed (rc=${build_rc})")
endif()

foreach(bin ${bins_list})
  execute_process(
    COMMAND ${GATE_DIR}/tests/${bin} ${run_args_list}
    RESULT_VARIABLE run_rc)
  if(NOT run_rc EQUAL 0)
    message(FATAL_ERROR
            "${bin} failed under ${SANITIZE} sanitizer (rc=${run_rc})")
  endif()
endforeach()
