# The front end's exit-code contract, pinned end to end (`cmake -P`
# script mode; see CMakeLists.txt, test tools_exit_codes). Every `gact`
# subcommand agrees:
#
#   0  the command completed and its answer is clean — including
#      "unsolvable" verdicts (solve, sweep) and skipped scenarios (fuzz),
#      which are answers, not failures
#   1  a real negative finding: a Definition 4.1 violation (fuzz) or an
#      ok:false server reply (client); for serve, a server that could not
#      start
#   2  usage error: a missing or unknown subcommand, an unknown flag, a
#      flag without its value, an unknown scenario, contradictory flags,
#      a --threads value that is not a positive integer, any other
#      malformed or out-of-range numeric flag
#   3  internal/transport error: an exception escaped, or the server
#      reply never arrived
#
# Expected -D definition: GACT (the gact binary). Every invocation here is
# milliseconds-scale: the solvable scenarios used are depth-0/1, the
# sweep grids are tiny, the client targets a port nothing listens on, and
# no server ever starts (see the serve section). Each run is also capped
# at 60 s, so a parser that wrongly starts a server fails instead of
# hanging the suite.

if(NOT DEFINED GACT)
  message(FATAL_ERROR "usage: cmake -DGACT=<gact> -P exit_codes_e2e.cmake")
endif()

# Runs the command and checks its exit code; leaves its stderr in
# `last_err` for a caller that also checks the diagnostic.
function(expect_exit expected label)
  execute_process(
    COMMAND ${ARGN}
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE code
    TIMEOUT 60)
  if(NOT code EQUAL ${expected})
    message(FATAL_ERROR "${label}: expected exit ${expected}, got ${code}\nstdout:\n${out}\nstderr:\n${err}")
  endif()
  set(last_err "${err}" PARENT_SCOPE)
endfunction()

# --- the dispatcher ---------------------------------------------------------
expect_exit(2 "no subcommand" "${GACT}")
expect_exit(2 "unknown subcommand" "${GACT}" frobnicate)
expect_exit(0 "gact list" "${GACT}" list)
expect_exit(2 "gact list with an argument" "${GACT}" list --threads)

# Every value-taking flag of every subcommand, given last with no value,
# is a usage error that says so (it used to read as an unknown argument
# or, for solve, as an unknown scenario named after the flag). The serve
# cases bind an invalid address and the client cases target port 1, so a
# flag wrongly accepted can neither start a server nor reach one.
foreach(case
    "solve --threads" "solve --pool-file"
    "sweep --preset" "sweep --family" "sweep --param"
    "sweep --family wf-is --threads"
    "fuzz --scenario" "fuzz --seed" "fuzz --iters" "fuzz --threads"
    "fuzz --seconds" "fuzz --slack" "fuzz --max-prefix"
    "serve --bind not-an-address --port" "serve --port 0 --bind"
    "serve --bind not-an-address --threads"
    "serve --bind not-an-address --queue-depth"
    "serve --bind not-an-address --max-connections"
    "serve --bind not-an-address --pool-file"
    "serve --bind not-an-address --snapshot-every"
    "serve --bind not-an-address --timeout-ms"
    "client --port 1 stats --host" "client stats --port"
    "client --port 1 solve chr2-2p-wf --timeout-ms")
  separate_arguments(case_args UNIX_COMMAND "${case}")
  expect_exit(2 "gact ${case} (no value)" "${GACT}" ${case_args})
  if(NOT last_err MATCHES "needs a value")
    message(FATAL_ERROR "gact ${case} (no value): no 'needs a value' diagnostic:\n${last_err}")
  endif()
endforeach()

# --- gact solve ------------------------------------------------------------
# Unsolvable is an answer: the batch completed, exit 0.
expect_exit(0 "solve unsolvable verdict"
  "${GACT}" solve --threads 1 --no-pool consensus-2-wf)
# Usage errors: unknown scenario name, unknown flag, contradictory pool
# flags.
expect_exit(2 "solve unknown scenario"
  "${GACT}" solve no-such-scenario)
expect_exit(2 "solve unknown flag"
  "${GACT}" solve --no-such-flag)
expect_exit(2 "solve contradictory flags"
  "${GACT}" solve --no-pool --pool-file /tmp/never-written.pool ksa-2p-k2-wf)
# --threads takes a positive integer: junk, zero, a negative count (which
# used to wrap to 4294967295) and an out-of-range count are usage errors.
foreach(bad abc 0 -1 4294967296 2x)
  expect_exit(2 "solve --threads ${bad}"
    "${GACT}" solve --threads ${bad} --no-pool consensus-2-wf)
endforeach()

# --- gact fuzz -------------------------------------------------------------
# A clean campaign and a skipped (unsolvable) scenario both exit 0.
expect_exit(0 "fuzz clean campaign"
  "${GACT}" fuzz --scenario ksa-2p-k2-wf --iters 25 --threads 2)
expect_exit(0 "fuzz skipped scenario"
  "${GACT}" fuzz --scenario consensus-2-wf --iters 5)
expect_exit(2 "fuzz unknown flag"
  "${GACT}" fuzz --no-such-flag)
expect_exit(2 "fuzz unknown scenario"
  "${GACT}" fuzz --scenario no-such-scenario)
foreach(bad abc 0 -1 4294967296 2x)
  expect_exit(2 "fuzz --threads ${bad}"
    "${GACT}" fuzz --scenario ksa-2p-k2-wf --iters 5 --threads ${bad})
endforeach()
# The other numeric flags parse just as strictly. A negative --slack
# used to wrap to SIZE_MAX and overflow the horizon into a false
# Definition 4.1 violation (exit 1); a negative --max-prefix crashed the
# schedule generator (exit 3); junk --max-prefix / --seconds values were
# read as 0.
foreach(bad abc -1 1001 4294967296 2x)
  expect_exit(2 "fuzz --slack ${bad}"
    "${GACT}" fuzz --scenario chr2-2p-wf --iters 5 --slack ${bad})
  expect_exit(2 "fuzz --max-prefix ${bad}"
    "${GACT}" fuzz --scenario chr2-2p-wf --iters 5 --max-prefix ${bad})
endforeach()
foreach(bad abc -5 inf nan 1e3 0x10 1.2.3 .)
  expect_exit(2 "fuzz --seconds '${bad}'"
    "${GACT}" fuzz --scenario chr2-2p-wf --iters 5 --seconds "${bad}")
endforeach()
foreach(bad abc -1 18446744073709551616)
  expect_exit(2 "fuzz --seed ${bad}"
    "${GACT}" fuzz --scenario chr2-2p-wf --iters 5 --seed ${bad})
  expect_exit(2 "fuzz --iters ${bad}"
    "${GACT}" fuzz --scenario chr2-2p-wf --iters ${bad})
endforeach()
# --iters is bounded like --slack: the largest count used to reach
# runtime::fuzz, which allocates a result slot per iteration up front, and
# died with "cannot create std::vector larger than max_size()" (exit 3).
# Only values rejected at parse time are tried here.
foreach(bad 10000001 18446744073709551615)
  expect_exit(2 "fuzz --iters ${bad}"
    "${GACT}" fuzz --scenario chr2-2p-wf --iters ${bad})
  if(NOT last_err MATCHES "want 0..10000000")
    message(FATAL_ERROR "fuzz --iters ${bad}: no range diagnostic:\n${last_err}")
  endif()
endforeach()
# In-range values still run a clean campaign.
expect_exit(0 "fuzz in-range numeric flags"
  "${GACT}" fuzz --scenario chr2-2p-wf --iters 5 --slack 0 --max-prefix 0
  --seconds 0.0 --seed 18446744073709551615)

# --- gact sweep ------------------------------------------------------------
# A completed sweep exits 0 whatever the verdicts are.
expect_exit(0 "sweep tiny grid"
  "${GACT}" sweep --family wf-is --param n=1..2 --threads 1)
# Usage errors: unknown family, out-of-schema axis value, unknown flag.
expect_exit(2 "sweep unknown family"
  "${GACT}" sweep --family no-such-family)
expect_exit(2 "sweep out-of-range axis"
  "${GACT}" sweep --family wf-is --param n=1..9)
expect_exit(2 "sweep unknown flag"
  "${GACT}" sweep --no-such-flag)
expect_exit(2 "sweep missing selection"
  "${GACT}" sweep --threads 1)
foreach(bad abc 0 -1 4294967296 2x)
  expect_exit(2 "sweep --threads ${bad}"
    "${GACT}" sweep --family wf-is --param n=1..2 --threads ${bad})
endforeach()
# GACT_EXEC_THREADS sizes the shared scheduler only when it is a plain
# count in 1..1024; junk falls back to the default of at least 4 workers
# (`--stats` prints the count). "1x" and " 1junk" used to start 1 worker.
foreach(value 1 1x " 1junk" 0 1025)
  expect_exit(0 "sweep --stats with GACT_EXEC_THREADS='${value}'"
    "${CMAKE_COMMAND}" -E env "GACT_EXEC_THREADS=${value}"
    "${GACT}" sweep --family wf-is --param n=1 --stats)
  if(value STREQUAL "1")
    set(want_one TRUE)
  else()
    set(want_one FALSE)
  endif()
  if(last_err MATCHES "exec: 1 workers")
    set(got_one TRUE)
  else()
    set(got_one FALSE)
  endif()
  if(NOT want_one STREQUAL got_one)
    message(FATAL_ERROR "GACT_EXEC_THREADS='${value}': wrong worker count:\n${last_err}")
  endif()
endforeach()

# --- gact client -----------------------------------------------------------
expect_exit(2 "client unknown command"
  "${GACT}" client frobnicate)
expect_exit(2 "client solve without scenario"
  "${GACT}" client solve)
# Port 1 is privileged and unbound in the test environment: the connect
# fails, which is a transport error (3), not a solver-level failure (1).
expect_exit(3 "client no server"
  "${GACT}" client --port 1 stats)
# Numeric flags parse strictly. --port used to read "7461x" as 7461, and
# --timeout-ms read "abc" as 0 and "-1" as ULONG_MAX. A value the parser
# wrongly accepted would reach the connect to port 1 and exit 3.
foreach(bad abc 0 -1 65536 4294967296 2x 7461x)
  expect_exit(2 "client --port ${bad}"
    "${GACT}" client --port ${bad} stats)
endforeach()
foreach(bad abc -1 4294967296 2x)
  expect_exit(2 "client --timeout-ms ${bad}"
    "${GACT}" client --port 1 solve chr2-2p-wf --timeout-ms ${bad})
endforeach()
expect_exit(3 "client in-range numeric flags"
  "${GACT}" client --port 1 solve chr2-2p-wf --timeout-ms 4294967295)

# --- gact serve ------------------------------------------------------------
# Every case ends in --bind with an invalid address, so a value the parser
# accepts makes start() fail before any socket binds or any worker thread
# starts: exit 1, never a running server. --threads -1 used to wrap to
# ULONG_MAX and ask the scheduler for 4294967295 workers.
set(no_start --bind not-an-address)
expect_exit(2 "serve unknown option"
  "${GACT}" serve --no-such-flag ${no_start})
foreach(bad abc 0 -1 1025 4294967296 2x)
  expect_exit(2 "serve --threads ${bad}"
    "${GACT}" serve --threads ${bad} ${no_start})
endforeach()
foreach(bad abc -1 65536 4294967296 2x)
  expect_exit(2 "serve --port ${bad}"
    "${GACT}" serve --port ${bad} ${no_start})
endforeach()
foreach(flag --queue-depth --max-connections)
  foreach(bad abc 0 -1 18446744073709551616 2x)
    expect_exit(2 "serve ${flag} ${bad}"
      "${GACT}" serve ${flag} ${bad} ${no_start})
  endforeach()
endforeach()
foreach(flag --snapshot-every --timeout-ms)
  foreach(bad abc -1 4294967296 2x)
    expect_exit(2 "serve ${flag} ${bad}"
      "${GACT}" serve ${flag} ${bad} ${no_start})
  endforeach()
endforeach()
# In-range values parse; the invalid bind address then fails the start.
expect_exit(1 "serve in-range numeric flags"
  "${GACT}" serve --port 0 --threads 1024 --queue-depth 1 --max-connections 1
  --snapshot-every 4294967295 --timeout-ms 4294967295 ${no_start})

message(STATUS "exit-code e2e: every gact subcommand honors the 0/1/2/3 contract")
