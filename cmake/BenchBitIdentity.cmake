# Runs a suite bench twice — --FLAG=1 and --FLAG=N — and fails unless
# stdout is byte-identical. The suite guarantees this for both execution
# knobs (--threads=: replicates land in seed order; --shards=: the
# three-phase sharded resolve is bit-identical to serial; no timing in
# text output), so any diff is a determinism regression in the harness or
# an engine.
#
# Arguments (via -D):
#   BENCH      full path of the bench executable
#   BENCH_ARGS semicolon-separated extra args (tiny smoke config)
#   FLAG       knob to vary: "threads" (default) or "shards"
#   THREADS    parallel value of the knob to compare against (default 8)
#   WORK_DIR   scratch directory for the two captures
#
# Every failure message ends with the shell command that reproduces it.

if(NOT DEFINED THREADS)
  set(THREADS 8)
endif()
if(NOT DEFINED FLAG)
  set(FLAG threads)
endif()

get_filename_component(BENCH_NAME ${BENCH} NAME_WE)
set(serial_out ${WORK_DIR}/${BENCH_NAME}_${FLAG}1.txt)
set(parallel_out ${WORK_DIR}/${BENCH_NAME}_${FLAG}${THREADS}.txt)

set(serial_cmd ${BENCH} ${BENCH_ARGS} --${FLAG}=1)
set(parallel_cmd ${BENCH} ${BENCH_ARGS} --${FLAG}=${THREADS})
string(JOIN " " serial_line ${serial_cmd})
string(JOIN " " parallel_line ${parallel_cmd})

execute_process(
  COMMAND ${serial_cmd}
  OUTPUT_FILE ${serial_out}
  RESULT_VARIABLE rc_serial)
if(NOT rc_serial EQUAL 0)
  message(FATAL_ERROR "${BENCH_NAME} --${FLAG}=1 exited with ${rc_serial}\n"
                      "  reproduce: ${serial_line}")
endif()

execute_process(
  COMMAND ${parallel_cmd}
  OUTPUT_FILE ${parallel_out}
  RESULT_VARIABLE rc_parallel)
if(NOT rc_parallel EQUAL 0)
  message(FATAL_ERROR "${BENCH_NAME} --${FLAG}=${THREADS} exited with ${rc_parallel}\n"
                      "  reproduce: ${parallel_line}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${serial_out} ${parallel_out}
  RESULT_VARIABLE rc_compare)
if(NOT rc_compare EQUAL 0)
  message(FATAL_ERROR
          "${BENCH_NAME}: --${FLAG}=1 vs --${FLAG}=${THREADS} stdout differs "
          "(${serial_out} vs ${parallel_out})\n"
          "  reproduce: ${serial_line} > ${serial_out} && "
          "${parallel_line} > ${parallel_out} && diff ${serial_out} ${parallel_out}")
endif()
