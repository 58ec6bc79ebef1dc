# Thread count never changes a fuzz campaign's results (`cmake -P`
# script mode; see CMakeLists.txt, test fuzz_threads).
#
# `gact fuzz --seed 7 --iters 300` over the quick registry runs once at
# --threads 1 and once at --threads 4. Every output line — the schedule
# and violation counts, the result digest, any counterexample — must be
# identical, except the schedules/sec rate. Each loop slot keeps its own
# executor and reuses it across schedules, so state that leaks from one
# schedule into the next, or differs between slots, fails here.
#
# Expected -D definition: GACT (the gact binary).

if(NOT DEFINED GACT)
  message(FATAL_ERROR "usage: cmake -DGACT=<gact> -P fuzz_threads.cmake")
endif()

function(run_fuzz threads outvar)
  execute_process(
    COMMAND "${GACT}" fuzz --seed 7 --iters 300 --threads ${threads}
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE code)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "gact fuzz --threads ${threads}: expected exit 0, got ${code}\nstdout:\n${out}\nstderr:\n${err}")
  endif()
  # The rate is the one line field that may differ between runs.
  string(REGEX REPLACE "[0-9]+ schedules/sec" "N schedules/sec" out "${out}")
  set(${outvar} "${out}" PARENT_SCOPE)
endfunction()

run_fuzz(1 serial)
run_fuzz(4 sharded)
if(NOT serial STREQUAL sharded)
  message(FATAL_ERROR "gact fuzz output differs between --threads 1 and --threads 4\n--threads 1:\n${serial}\n--threads 4:\n${sharded}")
endif()
string(REGEX MATCHALL "[0-9]+ schedules, [0-9]+ violations" lines "${serial}")
list(LENGTH lines campaigns)
if(campaigns EQUAL 0)
  message(FATAL_ERROR "gact fuzz printed no campaign line:\n${serial}")
endif()
message(STATUS "fuzz threads: ${campaigns} campaigns identical at 1 and 4 threads")
