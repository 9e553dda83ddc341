# Fails when a paper bench no longer prints exactly its committed golden
# output (bench/golden/<name>.txt): runs the bench into a scratch file and
# diffs it against the golden.
#   cmake -DBENCH=<binary> [-DARGS=<arg;...>] -DGOLDEN=<golden file>
#         -DOUTPUT=<scratch file> -P golden_current.cmake
# A change that means to move a figure refreshes the golden with
#   ./build/bench/<name> [args] > bench/golden/<name>.txt
# and names each changed line, its old and new value, and why.
execute_process(COMMAND "${BENCH}" ${ARGS}
                OUTPUT_FILE "${OUTPUT}"
                RESULT_VARIABLE run_result)
if(NOT run_result EQUAL 0)
  message(FATAL_ERROR "${BENCH} failed: ${run_result}")
endif()
execute_process(COMMAND diff -u "${GOLDEN}" "${OUTPUT}"
                RESULT_VARIABLE diff_result)
if(NOT diff_result EQUAL 0)
  message(FATAL_ERROR "${BENCH} output differs from ${GOLDEN}")
endif()
file(REMOVE "${OUTPUT}")
