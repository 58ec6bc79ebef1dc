# End-to-end gate for nogood-pool persistence, run as a ctest
# (`cmake -P` script mode; see CMakeLists.txt, test engine_cli_pool_file):
# one `gact solve` process solves a scenario with --pool-file, a
# SECOND process loads the file cold and must reproduce the
# bit-identical witness (compared by the printed digests) with 0
# backtracks. This is the acceptance shape of the PR-5 persistence
# tentpole, exercised through the real CLI surface rather than the
# library API (tests/nogood_pool_persistence_test.cpp covers that).
#
# Expected -D definitions: GACT (path to the gact binary), WORKDIR
# (scratch directory). The scenario: chr2-2p-wf — solvable at depth 2
# with a nonzero cold backtrack count, so "0 backtracks warm" is a real
# assertion, in ~milliseconds.

if(NOT DEFINED GACT OR NOT DEFINED WORKDIR)
  message(FATAL_ERROR "usage: cmake -DGACT=<gact> -DWORKDIR=<dir> -P pool_file_e2e.cmake")
endif()

set(scenario chr2-2p-wf)
set(pool_file "${WORKDIR}/pool-e2e.txt")
file(MAKE_DIRECTORY "${WORKDIR}")
file(REMOVE "${pool_file}")

function(run_cli out_var)
  execute_process(
    COMMAND "${GACT}" solve --threads 1 --pool-file "${pool_file}" "${scenario}"
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE code)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "gact solve exited ${code}:\n${out}\n${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

function(extract_digest out_var text label)
  string(REGEX MATCH "witness digest: ([0-9a-f]+)" _ "${text}")
  if(NOT CMAKE_MATCH_1)
    message(FATAL_ERROR "${label}: no witness digest printed:\n${text}")
  endif()
  set(${out_var} "${CMAKE_MATCH_1}" PARENT_SCOPE)
endfunction()

# --- process 1: cold solve, pool saved -------------------------------------
run_cli(cold)
if(NOT cold MATCHES "${scenario}: solvable")
  message(FATAL_ERROR "cold run did not solve:\n${cold}")
endif()
if(cold MATCHES "${scenario}: [^\n]*, 0 backtracks")
  message(FATAL_ERROR "cold run already at 0 backtracks — the scenario no longer exercises warm-start:\n${cold}")
endif()
if(NOT cold MATCHES "pool saved to")
  message(FATAL_ERROR "cold run did not save the pool:\n${cold}")
endif()
if(NOT EXISTS "${pool_file}")
  message(FATAL_ERROR "pool file missing after the cold run")
endif()
extract_digest(cold_digest "${cold}" "cold run")

# --- process 2: fresh process, warm-started from the file ------------------
run_cli(warm)
if(NOT warm MATCHES "${scenario}: solvable")
  message(FATAL_ERROR "warm run did not solve:\n${warm}")
endif()
if(NOT warm MATCHES "${scenario}: [^\n]*, 0 backtracks")
  message(FATAL_ERROR "warm run did not replay the learned conflicts to 0 backtracks:\n${warm}")
endif()
if(NOT warm MATCHES "pool [1-9][0-9]* seeded")
  message(FATAL_ERROR "warm run reports no pool seeding:\n${warm}")
endif()
extract_digest(warm_digest "${warm}" "warm run")
if(NOT cold_digest STREQUAL warm_digest)
  message(FATAL_ERROR "witness digests differ across the process boundary: cold ${cold_digest} vs warm ${warm_digest}")
endif()

# --- corrupted file: downgrade, never abort --------------------------------
file(WRITE "${pool_file}" "gact-nogood-pool v999\ngarbage\n")
run_cli(corrupt)
if(NOT corrupt MATCHES "${scenario}: solvable")
  message(FATAL_ERROR "corrupted pool file broke the solve:\n${corrupt}")
endif()

file(REMOVE "${pool_file}")
message(STATUS "pool-file e2e: witness ${cold_digest} reproduced at 0 backtracks across a process boundary")
