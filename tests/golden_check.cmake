# One golden check, run as a ctest: see lg_add_golden in CMakeLists.txt for
# the table and what each golden pins.
#
# Usage:
#   cmake -DNAME=<test name> -DJOBS=<n> -DWORKDIR=<dir> -DENV=<VAR=value>
#         -DTRACE_DIFF=<trace_diff.py> -P golden_check.cmake
#         -- RUN <bench> <stdout sha> <file sha or -> <args...> [RUN ...]
#
# Each RUN row runs <bench> <args...> with ENV and LGSIM_BENCH_JOBS=JOBS set,
# @OUT@ in its arguments standing for the file it writes, and compares the
# SHA-256 of its stdout (and of that file, unless "-") with the recorded
# hash. Every row runs before the check fails, and the failure lists each
# output that diverged.

string(REGEX REPLACE "=.*" "" env_var "${ENV}")
string(REGEX REPLACE "^[^=]*=" "" env_value "${ENV}")
set(ENV{${env_var}} "${env_value}")
set(ENV{LGSIM_BENCH_JOBS} ${JOBS})

# Split the arguments after "--" into rows, one per RUN.
set(rows 0)
set(in_rows FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  set(arg "${CMAKE_ARGV${i}}")
  if(arg STREQUAL "--")
    set(in_rows TRUE)
  elseif(in_rows AND arg STREQUAL "RUN")
    math(EXPR rows "${rows} + 1")
    set(row${rows} "")
  elseif(in_rows)
    list(APPEND row${rows} "${arg}")
  endif()
endforeach()

set(report "")
function(expect what file expected hint)
  set(got "(not written)")
  if(EXISTS ${file})
    file(SHA256 ${file} got)
  endif()
  if(NOT got STREQUAL expected)
    string(APPEND report "\n  ${what}\n    expected ${expected}\n    got      "
        "${got}\n    kept: ${file}${hint}")
    set(report "${report}" PARENT_SCOPE)
  endif()
endfunction()

foreach(r RANGE 1 ${rows})
  list(POP_FRONT row${r} bench stdout_sha file_sha)
  get_filename_component(tag ${bench} NAME)
  set(stdout_file ${WORKDIR}/${NAME}.${tag}.stdout)
  set(out_file ${WORKDIR}/${NAME}.${tag}.json)
  file(REMOVE ${out_file})
  string(REPLACE "@OUT@" "${out_file}" args "${row${r}}")
  execute_process(COMMAND ${bench} ${args} OUTPUT_FILE ${stdout_file}
      RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    string(APPEND report "\n  ${tag} exited with ${rc}")
  endif()
  expect("${tag} stdout" ${stdout_file} ${stdout_sha} "")
  if(NOT file_sha STREQUAL "-")
    set(hint "")
    if("${row${r}}" MATCHES "--trace=@OUT@")
      string(APPEND hint "\n    records that moved: python3 ${TRACE_DIFF} "
          "<parent build>/tests/${NAME}.${tag}.json ${out_file}")
    endif()
    expect("${tag} output file" ${out_file} ${file_sha} "${hint}")
  endif()
endforeach()

if(report)
  message(FATAL_ERROR "${NAME}: diverged from the golden:${report}")
endif()
message(STATUS "${NAME}: ${rows} run(s) byte-identical")
