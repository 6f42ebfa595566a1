# Verifies one golden scenario pack end to end:
#
#   1. runs `lowsense_cli --pack=` under every engine x shards combination
#      (event/slot x 1/4) — a nonzero exit means a pinned digest or an
#      expectation failed under that combination;
#   2. regenerates the manifest under each combination and diffs every one
#      against the checked-in golden *.manifest.jsonl with pack_diff.py —
#      manifests carry only engine/shard-invariant fields, so any byte of
#      drift is a determinism or behavior regression.
#
# Arguments (via -D):
#   CLI        full path of the lowsense_cli executable
#   PACK       full path of the .pack file
#   GOLDEN     full path of the checked-in .manifest.jsonl
#   PACK_DIFF  full path of scripts/pack_diff.py
#   PYTHON     python3 executable
#   WORK_DIR   scratch directory for regenerated manifests
#
# Every failure message ends with the shell command that reproduces it.

get_filename_component(PACK_NAME ${PACK} NAME_WE)
file(MAKE_DIRECTORY ${WORK_DIR})

foreach(engine event slot)
  foreach(shards 1 4)
    set(candidate ${WORK_DIR}/${PACK_NAME}_${engine}_sh${shards}.manifest.jsonl)
    set(run_cmd ${CLI} --pack=${PACK} --engine=${engine} --shards=${shards}
                --manifest=${candidate})
    string(JOIN " " run_line ${run_cmd})
    execute_process(
      COMMAND ${run_cmd}
      OUTPUT_QUIET
      RESULT_VARIABLE rc_run)
    if(NOT rc_run EQUAL 0)
      message(FATAL_ERROR
              "${PACK_NAME}: --engine=${engine} --shards=${shards} exited with "
              "${rc_run} (digest or expectation failure)\n"
              "  reproduce: ${run_line}")
    endif()

    set(diff_cmd ${PYTHON} ${PACK_DIFF} ${GOLDEN} ${candidate})
    string(JOIN " " diff_line ${diff_cmd})
    execute_process(
      COMMAND ${diff_cmd}
      RESULT_VARIABLE rc_diff)
    if(NOT rc_diff EQUAL 0)
      message(FATAL_ERROR
              "${PACK_NAME}: manifest drift under --engine=${engine} "
              "--shards=${shards} (${candidate} vs ${GOLDEN})\n"
              "  reproduce: ${run_line} && ${diff_line}")
    endif()
  endforeach()
endforeach()
