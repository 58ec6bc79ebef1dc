# The million-schedule fuzz soak (`cmake -P` script mode; see
# CMakeLists.txt, test fuzz_soak — labeled `heavy`, TIMEOUT 1800).
#
# Like tests/heavy_scenarios_test.cpp this self-skips unless
# GACT_RUN_HEAVY=1, so the tier-1 suite stays fast while CI (and anyone
# locally) can run the long gate explicitly:
#
#   GACT_RUN_HEAVY=1 ctest -L heavy --output-on-failure
#
# One `gact fuzz` invocation, 250k schedules for each of the four
# wait-free table-rule scenarios = 1M executions total (the wait-free
# executor runs tens of thousands of schedules per second; the landing
# rules' exact rational arithmetic is ~3 orders of magnitude slower and
# gets its depth from the tier-1 200-schedule campaigns instead). Any
# Definition 4.1 violation exits 1 with a shrunk, replayable
# counterexample in the output.

if(NOT DEFINED GACT)
  message(FATAL_ERROR "usage: cmake -DGACT=<gact> -P fuzz_soak.cmake")
endif()

if(NOT "$ENV{GACT_RUN_HEAVY}" STREQUAL "1")
  message(STATUS "fuzz soak skipped: set GACT_RUN_HEAVY=1 to run the million-schedule gate")
  return()
endif()

set(iters 250000)
execute_process(
  COMMAND "${GACT}" fuzz
    --scenario is-1-wf --scenario is-2-wf
    --scenario ksa-2p-k2-wf --scenario chr2-2p-wf
    --iters ${iters} --threads 4 --seed 1
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE code)
message(STATUS "gact fuzz output:\n${out}")
if(NOT code EQUAL 0)
  message(FATAL_ERROR "fuzz soak failed (exit ${code}):\n${out}\n${err}")
endif()

# Belt and braces on top of the exit code: every scenario line must
# report exactly ${iters} schedules and zero violations.
foreach(scenario is-1-wf is-2-wf ksa-2p-k2-wf chr2-2p-wf)
  if(NOT out MATCHES "${scenario}: ${iters} schedules, 0 violations")
    message(FATAL_ERROR "soak line missing or dirty for ${scenario}:\n${out}")
  endif()
endforeach()
message(STATUS "fuzz soak: 4 x ${iters} schedules, zero violations")
