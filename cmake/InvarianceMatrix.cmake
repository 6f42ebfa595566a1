# Runs one command over the cartesian product of flag axes and fails
# unless every run exits 0 and every run's artifacts are byte-identical
# (cmake -E compare_files): each run's stdout against the first run's,
# and, with GOLDEN set, each run's --manifest= file against GOLDEN. This
# is the determinism contract end to end: --threads=, --shards= and
# --engine= change wall time, never output.
#
# Arguments (via -D):
#   CMD       the command and its fixed arguments (a list)
#   AXES      flag axes, `;`-separated `flag=v1,v2,...`; one run per
#             combination, e.g. "threads=1,8" or "engine=event,slot;shards=1,4"
#   NAME      run label, for messages and capture file names
#   WORK_DIR  scratch directory for the captures
#   GOLDEN    optional checked-in manifest; each run then also gets
#             --manifest=<capture>
#
# Every failure message ends with the shell command that reproduces it; a
# manifest drift names scripts/pack_diff.py for the field-level report.

file(MAKE_DIRECTORY ${WORK_DIR})
set(pack_diff ${CMAKE_CURRENT_LIST_DIR}/../scripts/pack_diff.py)
cmake_path(NORMAL_PATH pack_diff)

# Each combination is a space-separated flag string; " " seeds the product.
set(combos " ")
foreach(axis IN LISTS AXES)
  string(REGEX MATCH "^([^=]+)=(.+)$" matched "${axis}")
  if(NOT matched)
    message(FATAL_ERROR "${NAME}: bad axis '${axis}' (expected flag=v1,v2,...)")
  endif()
  set(flag ${CMAKE_MATCH_1})
  string(REPLACE "," ";" values "${CMAKE_MATCH_2}")
  set(next "")
  foreach(combo IN LISTS combos)
    foreach(value IN LISTS values)
      string(STRIP "${combo} --${flag}=${value}" extended)
      list(APPEND next "${extended}")
    endforeach()
  endforeach()
  set(combos "${next}")
endforeach()

set(first_out "")
foreach(combo IN LISTS combos)
  separate_arguments(flags UNIX_COMMAND "${combo}")
  string(REPLACE "--" "" tag "${combo}")
  string(REPLACE "=" "-" tag "${tag}")
  string(REPLACE " " "_" tag "${tag}")
  set(out ${WORK_DIR}/${NAME}_${tag}.out)
  set(run_cmd ${CMD} ${flags})
  if(GOLDEN)
    set(manifest ${WORK_DIR}/${NAME}_${tag}.manifest.jsonl)
    list(APPEND run_cmd --manifest=${manifest})
  endif()
  string(JOIN " " run_line ${run_cmd})

  execute_process(COMMAND ${run_cmd} OUTPUT_FILE ${out} RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${NAME}: run with ${combo} exited with ${rc}\n"
                        "  reproduce: ${run_line}")
  endif()

  if(first_out STREQUAL "")
    set(first_out ${out})
    set(first_line ${run_line})
    set(first_combo ${combo})
  else()
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${first_out} ${out}
                    RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "${NAME}: stdout drift between ${first_combo} and ${combo} "
                          "(${first_out} vs ${out})\n"
                          "  reproduce: ${first_line} > ${first_out} && "
                          "${run_line} > ${out} && diff ${first_out} ${out}")
    endif()
  endif()

  if(GOLDEN)
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${manifest}
                    RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "${NAME}: manifest drift under ${combo} (${manifest} vs ${GOLDEN})\n"
                          "  reproduce: ${run_line} && python3 ${pack_diff} ${GOLDEN} ${manifest}")
    endif()
  endif()
endforeach()
