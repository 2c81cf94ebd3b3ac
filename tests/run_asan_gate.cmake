# Helper for the sanitizer-gate ctest targets. A nested build of the source
# tree under one sanitizer lives in GATE_DIR; the directory persists between
# invocations, so after the first configure a build is incremental.
# Variables: SRC_DIR, GATE_DIR, SANITIZE (address|thread, default address),
# BUILD (optional space-separated targets: configure GATE_DIR and build
# them all in one parallel build), RUNS (optional space-separated
# entries `binary` or `binary:gtest_filter`, run from GATE_DIR/tests; the
# filter is everything after the first colon, so it may hold more colons).

if(NOT SANITIZE)
  set(SANITIZE address)
endif()
separate_arguments(build_list UNIX_COMMAND "${BUILD}")
separate_arguments(runs_list UNIX_COMMAND "${RUNS}")

if(build_list)
  # Configure on every build, not only the first: `--build --target X`
  # runs make on the old Makefiles, which know no target added to the
  # source tree since the last configure.
  execute_process(
    COMMAND ${CMAKE_COMMAND} -S ${SRC_DIR} -B ${GATE_DIR}
      -DPOI360_SANITIZE=${SANITIZE} -DCMAKE_BUILD_TYPE=RelWithDebInfo
    RESULT_VARIABLE config_rc)
  if(NOT config_rc EQUAL 0)
    message(FATAL_ERROR
            "${SANITIZE} gate configure failed (rc=${config_rc})")
  endif()

  cmake_host_system_information(RESULT jobs QUERY NUMBER_OF_LOGICAL_CORES)
  execute_process(
    COMMAND ${CMAKE_COMMAND} --build ${GATE_DIR} -j ${jobs}
      --target ${build_list}
    RESULT_VARIABLE build_rc)
  if(NOT build_rc EQUAL 0)
    message(FATAL_ERROR "${SANITIZE} gate build failed (rc=${build_rc})")
  endif()
endif()

foreach(run ${runs_list})
  string(FIND "${run}" ":" colon)
  if(colon EQUAL -1)
    set(bin ${run})
    set(args)
  else()
    string(SUBSTRING "${run}" 0 ${colon} bin)
    math(EXPR filter_at "${colon} + 1")
    string(SUBSTRING "${run}" ${filter_at} -1 filter)
    set(args "--gtest_filter=${filter}")
  endif()
  if(NOT EXISTS ${GATE_DIR}/tests/${bin})
    message(FATAL_ERROR "${GATE_DIR}/tests/${bin} is not built; run the "
                        "${SANITIZE} gate build test first")
  endif()
  execute_process(
    COMMAND ${GATE_DIR}/tests/${bin} ${args}
    RESULT_VARIABLE run_rc)
  if(NOT run_rc EQUAL 0)
    message(FATAL_ERROR
            "${bin} ${args} failed under ${SANITIZE} sanitizer (rc=${run_rc})")
  endif()
endforeach()
