# A campaign bench must refuse a malformed count with its usage line
# and exit 2, before running anything: trailing junk ("8x") and a
# negative count ("-1") are the two inputs a bare strtoull let
# through. Run by CTest with
#   -DFAULT=<fault_campaign_main> -DCOMPOUND=<bench_compound_fault>
#   -P cli_rejects_bad_counts.cmake
foreach(case "${FAULT};--cuts;8x" "${COMPOUND};--trials;-1")
    execute_process(
        COMMAND ${case} --out bad_count.json
        RESULT_VARIABLE code
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    if(NOT code EQUAL 2)
        message(FATAL_ERROR "${case}: expected exit code 2, got ${code}\n"
                            "${out}\n${err}")
    endif()
    if(NOT err MATCHES "usage: ")
        message(FATAL_ERROR "${case}: no usage line on stderr:\n${err}")
    endif()
endforeach()
