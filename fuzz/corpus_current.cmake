# Fails when the committed seed corpus is not exactly what the seed
# generator writes today (a wire or disk format change left stale or
# missing seeds behind). Regenerates every seed into a scratch directory
# and compares the whole tree:
#   cmake -DMAKE_SEEDS=<fuzz_make_seeds> -DCORPUS=<repo>/fuzz/corpus
#         -DSCRATCH=<dir> -P corpus_current.cmake
# To refresh the corpus, delete fuzz/corpus and run
#   ./build/fuzz/fuzz_make_seeds fuzz/corpus
file(REMOVE_RECURSE "${SCRATCH}")
execute_process(COMMAND "${MAKE_SEEDS}" "${SCRATCH}"
                RESULT_VARIABLE generate_result OUTPUT_QUIET)
if(NOT generate_result EQUAL 0)
  message(FATAL_ERROR "fuzz_make_seeds failed: ${generate_result}")
endif()
execute_process(COMMAND diff -r "${SCRATCH}" "${CORPUS}"
                RESULT_VARIABLE diff_result)
file(REMOVE_RECURSE "${SCRATCH}")
if(NOT diff_result EQUAL 0)
  message(FATAL_ERROR
    "fuzz/corpus is stale: delete it and regenerate with fuzz_make_seeds")
endif()
