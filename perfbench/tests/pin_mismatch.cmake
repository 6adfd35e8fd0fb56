# A pinned digest that does not match must fail the run with exit
# code 3 and name the workload. Run by CTest with
#   -DPERFBENCH=<binary> -DPINS=<pin file> -P pin_mismatch.cmake
execute_process(
    COMMAND ${PERFBENCH} --workload kv_service --seed 42 --seconds 0.01
            --pins ${PINS}
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT code EQUAL 3)
    message(FATAL_ERROR "expected exit code 3, got ${code}\n${err}")
endif()
if(NOT err MATCHES "kv_service: digest mismatch at seed 42")
    message(FATAL_ERROR "mismatch does not name the workload:\n${err}")
endif()
if(NOT out MATCHES "\"correct\": false")
    message(FATAL_ERROR "result does not report correct=false:\n${out}")
endif()
