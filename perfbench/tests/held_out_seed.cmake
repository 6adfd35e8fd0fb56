# Every trial of every workload must pass its invariant checks at the
# held-out seed, and the run must succeed. Only "all" runs every
# workload at the given seed (a single-workload run checks the other
# three at the pinned seed). Run by CTest with
#   -DPERFBENCH=<binary> -DSEED=<seed> -P held_out_seed.cmake
execute_process(
    COMMAND ${PERFBENCH} --workload all --seed ${SEED}
            --seconds 0.01
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT code EQUAL 0)
    message(FATAL_ERROR "expected exit code 0, got ${code}\n${err}")
endif()
if(NOT out MATCHES "\"correct\": true, \"attempted\": [0-9]+, \"failed\": 0,")
    message(FATAL_ERROR "seed ${SEED}: some trials failed an invariant:\n"
                        "${out}\n${err}")
endif()
