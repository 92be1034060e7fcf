# Byte-identity golden for the long-flow testbed runner, run as a ctest.
#
# Every throughput experiment drives one long-lived TCP flow across the
# corrupting link (harness::LongFlow): the Fig. 9/21 timelines, the Table 3
# goodput grid, and the four-scheme baseline sweep with its fault-script
# cells. This runs all four bench binaries at a fixed reduced scale and
# compares the SHA-256 of each stdout, plus the --bench_json rows of
# bench_baselines --smoke, against hashes recorded before the three
# hand-wired copies of that testbed were folded into one runner. A drift in
# path wiring, event order, loss-model installation or the measurement
# window shows up here as a hash mismatch.
#
# Usage:
#   cmake -DFIG09=<bench_fig09_dctcp_timeline> -DFIG21=<bench_fig21_cubic_bbr>
#         -DTAB3=<bench_tab3_wharf> -DBASELINES=<bench_baselines>
#         -DJOBS=<n> -DWORKDIR=<dir>
#         -DFIG09_SHA=<sha256> -DFIG21_SHA=<sha256> -DTAB3_SHA=<sha256>
#         -DBASELINES_SHA=<sha256> -DBASELINES_JSON_SHA=<sha256>
#         -P longflow_golden_check.cmake

foreach(var FIG09 FIG21 TAB3 BASELINES JOBS WORKDIR FIG09_SHA FIG21_SHA
        TAB3_SHA BASELINES_SHA BASELINES_JSON_SHA)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "longflow_golden_check: ${var} not set")
  endif()
endforeach()

set(ENV{LGSIM_BENCH_SCALE} 0.05)
set(ENV{LGSIM_BENCH_JOBS} ${JOBS})
set(prefix ${WORKDIR}/longflow_golden_j${JOBS})
set(json_file ${prefix}.baselines.json)

function(expect_sha what file expected)
  file(SHA256 ${file} got)
  if(NOT got STREQUAL expected)
    message(FATAL_ERROR "longflow_golden_check (jobs=${JOBS}): ${what} "
        "diverged from the golden\n  expected ${expected}\n  got      ${got}\n"
        "  kept: ${file}")
  endif()
endfunction()

foreach(bench FIG09 FIG21 TAB3)
  execute_process(COMMAND ${${bench}} OUTPUT_FILE ${prefix}.${bench}.stdout
      RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "longflow_golden_check: ${${bench}} exited with ${rc}")
  endif()
  expect_sha("${bench} stdout" ${prefix}.${bench}.stdout ${${bench}_SHA})
endforeach()

execute_process(
    COMMAND ${BASELINES} --smoke --bench_json=${json_file}
    OUTPUT_FILE ${prefix}.BASELINES.stdout
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "longflow_golden_check: ${BASELINES} --smoke exited "
      "with ${rc}")
endif()
expect_sha("BASELINES --smoke stdout" ${prefix}.BASELINES.stdout
    ${BASELINES_SHA})
expect_sha("BASELINES --bench_json" ${json_file} ${BASELINES_JSON_SHA})
message(STATUS "longflow golden (jobs=${JOBS}): four stdouts + bench_json "
    "byte-identical")
