# Byte-identity golden for the closed fault/monitor/telemetry loop, run as a
# ctest.
#
# Runs bench_fault_lifecycle (all seven catalogue scenarios, oracle counter
# feed) and bench_telemetry --smoke (estimator feed) with --trace, and
# compares the SHA-256 of each stdout and each Chrome-trace file against
# hashes recorded before the fault injector took typed targets instead of a
# name registry. LGSIM_TRACE_CAP=4096 keeps both runs short; the ring then
# evicts most records, but the export still carries evicted_records and the
# full metrics snapshot (sim.events_executed, lifecycle.faults_applied), so
# the record and event counts stay pinned along with the newest records. A
# drift in fault timing, ramp stepping, episode restore, detection or the
# AutoFallback trajectory shows up here as a hash mismatch.
#
# Usage:
#   cmake -DLIFECYCLE=<bench_fault_lifecycle> -DTELEMETRY=<bench_telemetry>
#         -DJOBS=<n> -DWORKDIR=<dir>
#         -DLIFECYCLE_SHA=<sha256> -DLIFECYCLE_TRACE_SHA=<sha256>
#         -DTELEMETRY_SHA=<sha256> -DTELEMETRY_TRACE_SHA=<sha256>
#         -P lifecycle_golden_check.cmake

foreach(var LIFECYCLE TELEMETRY JOBS WORKDIR LIFECYCLE_SHA LIFECYCLE_TRACE_SHA
        TELEMETRY_SHA TELEMETRY_TRACE_SHA)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "lifecycle_golden_check: ${var} not set")
  endif()
endforeach()

set(ENV{LGSIM_TRACE_CAP} 4096)
set(ENV{LGSIM_BENCH_JOBS} ${JOBS})
set(prefix ${WORKDIR}/lifecycle_golden_j${JOBS})

function(expect_sha what file expected)
  file(SHA256 ${file} got)
  if(NOT got STREQUAL expected)
    message(FATAL_ERROR "lifecycle_golden_check (jobs=${JOBS}): ${what} "
        "diverged from the golden\n  expected ${expected}\n  got      ${got}\n"
        "  kept: ${file}")
  endif()
endfunction()

set(LIFECYCLE_ARGS "")
set(TELEMETRY_ARGS --smoke)
foreach(bench LIFECYCLE TELEMETRY)
  execute_process(
      COMMAND ${${bench}} ${${bench}_ARGS}
          --trace=${prefix}.${bench}.trace.json
      OUTPUT_FILE ${prefix}.${bench}.stdout
      RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "lifecycle_golden_check: ${${bench}} exited with ${rc}")
  endif()
  expect_sha("${bench} stdout" ${prefix}.${bench}.stdout ${${bench}_SHA})
  expect_sha("${bench} trace" ${prefix}.${bench}.trace.json
      ${${bench}_TRACE_SHA})
endforeach()
message(STATUS "lifecycle golden (jobs=${JOBS}): stdout+trace byte-identical")
