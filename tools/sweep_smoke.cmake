# Sweep determinism smoke, end to end through the real binary (`cmake -P`
# script mode; see CMakeLists.txt, test sweep_smoke).
#
# The contract under test (`gact sweep`, tools/gact.cpp):
#  * the quick preset expands to a >= 20-cell grid and completes (exit 0);
#  * --json output is byte-identical across repeated runs AND across
#    thread counts (--threads 1 vs --threads 4) — no timings leak in, no
#    shared pool makes backtrack counts order-dependent;
#  * the 1-thread and 4-thread outputs are byte-identical to the
#    committed golden (tests/quick_sweep.golden.json), so a change to any
#    cell's verdict, backtrack count or witness digest fails here. A
#    change that moves them on purpose regenerates the golden with
#    `gact sweep --preset quick --json > tests/quick_sweep.golden.json`
#    and says why;
#  * the JSON parses, every cell carries a verdict from the engine's
#    four-way set, and the summary tallies add up to the cell count — an
#    exception during any solve would have surfaced as exit 3 instead.
#
# Expected -D definitions: GACT (the gact binary), WORKDIR (scratch dir),
# GOLDEN (the committed quick-sweep JSON).

if(NOT DEFINED GACT OR NOT DEFINED WORKDIR OR NOT DEFINED GOLDEN)
  message(FATAL_ERROR "usage: cmake -DGACT=<gact> -DWORKDIR=<dir> -DGOLDEN=<json> -P sweep_smoke.cmake")
endif()

file(MAKE_DIRECTORY "${WORKDIR}")

function(run_sweep outfile threads)
  execute_process(
    COMMAND "${GACT}" sweep --preset quick --json --threads ${threads}
    OUTPUT_FILE "${WORKDIR}/${outfile}"
    ERROR_VARIABLE err
    RESULT_VARIABLE code)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "gact sweep --preset quick --threads ${threads}: expected exit 0, got ${code}\nstderr:\n${err}")
  endif()
endfunction()

run_sweep(run1.json 1)
run_sweep(run4a.json 4)
run_sweep(run4b.json 4)

file(READ "${WORKDIR}/run1.json" RUN1)
file(READ "${WORKDIR}/run4a.json" RUN4A)
file(READ "${WORKDIR}/run4b.json" RUN4B)
if(NOT RUN1 STREQUAL RUN4A)
  message(FATAL_ERROR "sweep JSON differs between --threads 1 and --threads 4 (${WORKDIR}/run1.json vs run4a.json)")
endif()
if(NOT RUN4A STREQUAL RUN4B)
  message(FATAL_ERROR "sweep JSON differs between two identical --threads 4 runs (${WORKDIR}/run4a.json vs run4b.json)")
endif()

file(READ "${GOLDEN}" EXPECTED)
if(NOT RUN1 STREQUAL EXPECTED)
  message(FATAL_ERROR "sweep JSON at --threads 1 differs from the golden (${WORKDIR}/run1.json vs ${GOLDEN})")
endif()
if(NOT RUN4A STREQUAL EXPECTED)
  message(FATAL_ERROR "sweep JSON at --threads 4 differs from the golden (${WORKDIR}/run4a.json vs ${GOLDEN})")
endif()

# Structural validation (cmake >= 3.19 has string(JSON)).
string(JSON cell_count LENGTH "${RUN1}" cells)
if(cell_count LESS 20)
  message(FATAL_ERROR "quick preset expanded to ${cell_count} cells, expected >= 20")
endif()

set(total_tally 0)
foreach(verdict "solvable" "unsolvable-to-depth" "budget-exhausted" "unsupported")
  string(JSON n GET "${RUN1}" summary ${verdict})
  math(EXPR total_tally "${total_tally} + ${n}")
endforeach()
string(JSON summary_cells GET "${RUN1}" summary cells)
if(NOT total_tally EQUAL summary_cells OR NOT summary_cells EQUAL cell_count)
  message(FATAL_ERROR "summary tallies (${total_tally}) / summary.cells (${summary_cells}) / cells length (${cell_count}) disagree")
endif()

math(EXPR last_cell "${cell_count} - 1")
foreach(i RANGE 0 ${last_cell})
  string(JSON verdict GET "${RUN1}" cells ${i} verdict)
  if(NOT verdict MATCHES "^(solvable|unsolvable-to-depth|budget-exhausted|unsupported)$")
    string(JSON name GET "${RUN1}" cells ${i} name)
    message(FATAL_ERROR "cell ${name}: unexpected verdict '${verdict}'")
  endif()
endforeach()

message(STATUS "sweep smoke: ${cell_count} cells, byte-identical across runs and thread counts and to the golden")
