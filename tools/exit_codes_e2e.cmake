# The tools' exit-code contract, pinned end to end (`cmake -P` script
# mode; see CMakeLists.txt, test tools_exit_codes). All five CLIs agree:
#
#   0  the tool completed and its answer is clean — including "unsolvable"
#      verdicts (engine_cli, gact_sweep) and skipped scenarios
#      (gact_fuzz), which are answers, not failures
#   1  a real negative finding: a Definition 4.1 violation (gact_fuzz) or
#      an ok:false server reply (gact_client); for gact_serve, a server
#      that could not start
#   2  usage error: unknown flag, unknown scenario, contradictory flags,
#      a --threads value that is not a positive integer, any other
#      malformed or out-of-range numeric flag
#   3  internal/transport error: an exception escaped, or the server
#      reply never arrived
#
# Expected -D definitions: CLI (example_engine_cli), FUZZ (gact_fuzz),
# CLIENT (gact_client), SWEEP (gact_sweep), SERVE (gact_serve). Every
# invocation here is milliseconds-scale: the solvable scenarios used are
# depth-0/1, the sweep grids are tiny, the client targets a port nothing
# listens on, and no server ever starts (see the gact_serve section).

if(NOT DEFINED CLI OR NOT DEFINED FUZZ OR NOT DEFINED CLIENT OR NOT DEFINED SWEEP OR NOT DEFINED SERVE)
  message(FATAL_ERROR "usage: cmake -DCLI=<example_engine_cli> -DFUZZ=<gact_fuzz> -DCLIENT=<gact_client> -DSWEEP=<gact_sweep> -DSERVE=<gact_serve> -P exit_codes_e2e.cmake")
endif()

function(expect_exit expected label)
  execute_process(
    COMMAND ${ARGN}
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE code)
  if(NOT code EQUAL ${expected})
    message(FATAL_ERROR "${label}: expected exit ${expected}, got ${code}\nstdout:\n${out}\nstderr:\n${err}")
  endif()
endfunction()

# --- example_engine_cli -----------------------------------------------------
# Unsolvable is an answer: the batch completed, exit 0.
expect_exit(0 "engine_cli unsolvable verdict"
  "${CLI}" --threads 1 --no-pool consensus-2-wf)
# Usage errors: unknown scenario name, contradictory pool flags.
expect_exit(2 "engine_cli unknown scenario"
  "${CLI}" no-such-scenario)
expect_exit(2 "engine_cli contradictory flags"
  "${CLI}" --no-pool --pool-file /tmp/never-written.pool ksa-2p-k2-wf)
# --threads takes a positive integer: junk, zero, a negative count (which
# used to wrap to 4294967295) and an out-of-range count are usage errors.
foreach(bad abc 0 -1 4294967296 2x)
  expect_exit(2 "engine_cli --threads ${bad}"
    "${CLI}" --threads ${bad} --no-pool consensus-2-wf)
endforeach()

# --- gact_fuzz --------------------------------------------------------------
# A clean campaign and a skipped (unsolvable) scenario both exit 0.
expect_exit(0 "gact_fuzz clean campaign"
  "${FUZZ}" --scenario ksa-2p-k2-wf --iters 25 --threads 2)
expect_exit(0 "gact_fuzz skipped scenario"
  "${FUZZ}" --scenario consensus-2-wf --iters 5)
expect_exit(2 "gact_fuzz unknown flag"
  "${FUZZ}" --no-such-flag)
expect_exit(2 "gact_fuzz unknown scenario"
  "${FUZZ}" --scenario no-such-scenario)
foreach(bad abc 0 -1 4294967296 2x)
  expect_exit(2 "gact_fuzz --threads ${bad}"
    "${FUZZ}" --scenario ksa-2p-k2-wf --iters 5 --threads ${bad})
endforeach()
# The other numeric flags parse just as strictly. A negative --slack
# used to wrap to SIZE_MAX and overflow the horizon into a false
# Definition 4.1 violation (exit 1); a negative --max-prefix crashed the
# schedule generator (exit 3); junk --max-prefix / --seconds values were
# read as 0.
foreach(bad abc -1 1001 4294967296 2x)
  expect_exit(2 "gact_fuzz --slack ${bad}"
    "${FUZZ}" --scenario chr2-2p-wf --iters 5 --slack ${bad})
  expect_exit(2 "gact_fuzz --max-prefix ${bad}"
    "${FUZZ}" --scenario chr2-2p-wf --iters 5 --max-prefix ${bad})
endforeach()
foreach(bad abc -5 inf nan 1e3 0x10 1.2.3 .)
  expect_exit(2 "gact_fuzz --seconds '${bad}'"
    "${FUZZ}" --scenario chr2-2p-wf --iters 5 --seconds "${bad}")
endforeach()
foreach(bad abc -1 18446744073709551616)
  expect_exit(2 "gact_fuzz --seed ${bad}"
    "${FUZZ}" --scenario chr2-2p-wf --iters 5 --seed ${bad})
  expect_exit(2 "gact_fuzz --iters ${bad}"
    "${FUZZ}" --scenario chr2-2p-wf --iters ${bad})
endforeach()
# In-range values still run a clean campaign.
expect_exit(0 "gact_fuzz in-range numeric flags"
  "${FUZZ}" --scenario chr2-2p-wf --iters 5 --slack 0 --max-prefix 0
  --seconds 0.0 --seed 18446744073709551615)

# --- gact_sweep -------------------------------------------------------------
# A completed sweep exits 0 whatever the verdicts are.
expect_exit(0 "gact_sweep tiny grid"
  "${SWEEP}" --family wf-is --param n=1..2 --threads 1)
expect_exit(0 "gact_sweep list families"
  "${SWEEP}" --list-families)
# Usage errors: unknown family, out-of-schema axis value, unknown flag.
expect_exit(2 "gact_sweep unknown family"
  "${SWEEP}" --family no-such-family)
expect_exit(2 "gact_sweep out-of-range axis"
  "${SWEEP}" --family wf-is --param n=1..9)
expect_exit(2 "gact_sweep unknown flag"
  "${SWEEP}" --no-such-flag)
expect_exit(2 "gact_sweep missing selection"
  "${SWEEP}" --threads 1)
foreach(bad abc 0 -1 4294967296 2x)
  expect_exit(2 "gact_sweep --threads ${bad}"
    "${SWEEP}" --family wf-is --param n=1..2 --threads ${bad})
endforeach()

# --- gact_client ------------------------------------------------------------
expect_exit(2 "gact_client unknown command"
  "${CLIENT}" frobnicate)
expect_exit(2 "gact_client solve without scenario"
  "${CLIENT}" solve)
# Port 1 is privileged and unbound in the test environment: the connect
# fails, which is a transport error (3), not a solver-level failure (1).
expect_exit(3 "gact_client no server"
  "${CLIENT}" --port 1 stats)
# Numeric flags parse strictly. --port used to read "7461x" as 7461, and
# --timeout-ms read "abc" as 0 and "-1" as ULONG_MAX. A value the parser
# wrongly accepted would reach the connect to port 1 and exit 3.
foreach(bad abc 0 -1 65536 4294967296 2x 7461x)
  expect_exit(2 "gact_client --port ${bad}"
    "${CLIENT}" --port ${bad} stats)
endforeach()
foreach(bad abc -1 4294967296 2x)
  expect_exit(2 "gact_client --timeout-ms ${bad}"
    "${CLIENT}" --port 1 solve chr2-2p-wf --timeout-ms ${bad})
endforeach()
expect_exit(3 "gact_client in-range numeric flags"
  "${CLIENT}" --port 1 solve chr2-2p-wf --timeout-ms 4294967295)

# --- gact_serve -------------------------------------------------------------
# Every case ends in --bind with an invalid address, so a value the parser
# accepts makes start() fail before any socket binds or any worker thread
# starts: exit 1, never a running server. --threads -1 used to wrap to
# ULONG_MAX and ask the scheduler for 4294967295 workers.
set(no_start --bind not-an-address)
expect_exit(2 "gact_serve unknown option"
  "${SERVE}" --no-such-flag ${no_start})
foreach(bad abc 0 -1 1025 4294967296 2x)
  expect_exit(2 "gact_serve --threads ${bad}"
    "${SERVE}" --threads ${bad} ${no_start})
endforeach()
foreach(bad abc -1 65536 4294967296 2x)
  expect_exit(2 "gact_serve --port ${bad}"
    "${SERVE}" --port ${bad} ${no_start})
endforeach()
foreach(flag --queue-depth --max-connections)
  foreach(bad abc 0 -1 18446744073709551616 2x)
    expect_exit(2 "gact_serve ${flag} ${bad}"
      "${SERVE}" ${flag} ${bad} ${no_start})
  endforeach()
endforeach()
foreach(flag --snapshot-every --timeout-ms)
  foreach(bad abc -1 4294967296 2x)
    expect_exit(2 "gact_serve ${flag} ${bad}"
      "${SERVE}" ${flag} ${bad} ${no_start})
  endforeach()
endforeach()
# In-range values parse; the invalid bind address then fails the start.
expect_exit(1 "gact_serve in-range numeric flags"
  "${SERVE}" --port 0 --threads 1024 --queue-depth 1 --max-connections 1
  --snapshot-every 4294967295 --timeout-ms 4294967295 ${no_start})

message(STATUS "exit-code e2e: all five tools honor the 0/1/2/3 contract")
